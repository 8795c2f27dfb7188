package server

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzMaxPayload is FuzzReadRequest's payload guard, small enough for
// the fuzzer to reach both sides of it.
const fuzzMaxPayload = 64

// FuzzReadRequest feeds arbitrary bytes to the GFP1 frame reader that
// every server and proxy connection runs on untrusted input. It must
// never panic; an error is a framing violation or a short read; an
// accepted message stays within the params/payload guards and
// re-encodes byte-identically to the bytes it consumed.
func FuzzReadRequest(f *testing.F) {
	for _, m := range []*Message{
		{Op: OpRSEncode, ID: 1, Payload: []byte("message")},
		{Op: OpSeal, Flags: FlagTraced, ID: 2, Params: make([]byte, NonceSize+20), Payload: []byte{0}},
		{Op: OpStats, Status: StatusShuttingDown, ID: 3},
	} {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := ReadRequest(r, fuzzMaxPayload)
		if err != nil {
			var pe *ProtoError
			if !errors.As(err, &pe) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected error class %T: %v", err, err)
			}
			return
		}
		if len(m.Params) > MaxParams || len(m.Payload) > fuzzMaxPayload {
			t.Fatalf("accepted params %dB / payload %dB past the %d/%d guards",
				len(m.Params), len(m.Payload), MaxParams, fuzzMaxPayload)
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		if err := WriteResponse(&out, m); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", out.Bytes(), consumed)
		}
	})
}
