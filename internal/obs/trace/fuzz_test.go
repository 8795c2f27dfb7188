package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceExtract feeds arbitrary params to Extract, which servers and
// proxies run on every traced request. It fails open: never a panic;
// on !ok the params come back unchanged and the context is zero; on ok
// the context has a trace id and rest is the params minus the
// ExtSize-byte extension.
func FuzzTraceExtract(f *testing.F) {
	f.Add(Context{Trace: 1, Span: 2, Sampled: true}.Append([]byte("nonce-bytes!")))
	f.Add(Context{Trace: 7}.Append(nil))
	f.Add(bytes.Repeat([]byte{0xab}, ExtSize))
	f.Fuzz(func(t *testing.T, params []byte) {
		c, rest, ok := Extract(params)
		if !ok {
			if c != (Context{}) {
				t.Fatalf("!ok with non-zero context %+v", c)
			}
			if len(rest) != len(params) || (len(params) > 0 && &rest[0] != &params[0]) {
				t.Fatalf("!ok changed params: got %x from %x", rest, params)
			}
			return
		}
		if c.Trace == 0 {
			t.Fatal("ok with a zero trace id")
		}
		if len(rest) != len(params)-ExtSize || !bytes.Equal(rest, params[:len(params)-ExtSize]) {
			t.Fatalf("ok: rest %x is not params %x minus the %d-byte extension", rest, params, ExtSize)
		}
	})
}
