package ecc

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzParsePoint checks the engine's allocation-free point parser, which
// every ecdh-derive, ecdsa-verify and secure-session request runs on a
// peer's point, against the reference decoder on K-233: parsePoint must
// accept exactly the encodings UnmarshalUncompressed decodes to a point
// other than infinity, and yield the same coordinates.
func FuzzParsePoint(f *testing.F) {
	c := K233()
	e := testEngine(f, c)
	pub := e.PublicBytes()
	f.Add(pub)
	f.Add(c.MarshalUncompressed(c.Generator()))
	f.Add([]byte{0x00})
	f.Add(flipBit(pub, len(pub)-1)) // off the curve
	f.Add(overflowX(c, pub))        // x wider than the field
	f.Add(pub[:len(pub)-1])         // truncated
	f.Fuzz(func(t *testing.T, b []byte) {
		errE := e.parsePoint(b)
		p, errC := c.UnmarshalUncompressed(b)
		want := errC == nil && !p.Inf
		if (errE == nil) != want {
			t.Fatalf("parsePoint(%x) = %v, UnmarshalUncompressed = %+v, %v", b, errE, p, errC)
		}
		if want && (!c.F.Equal(e.px, p.X) || !c.F.Equal(e.py, p.Y)) {
			t.Fatalf("parsePoint(%x) coordinates differ from UnmarshalUncompressed", b)
		}
	})
}

// FuzzOpenSessionResponse feeds arbitrary handshake responses to the
// client side of secure-session. It must never panic, and since nothing
// but the server holding the ephemeral key can seal the challenge, the
// only response it may accept is the genuine SecureSession reply the
// corpus was seeded from.
func FuzzOpenSessionResponse(f *testing.F) {
	c := K233()
	e := testEngine(f, c)
	rng := rand.New(rand.NewSource(31))
	client, err := GenerateKey(c, rng)
	if err != nil {
		f.Fatal(err)
	}
	clientPub := c.MarshalUncompressed(client.Pub)
	challenge := []byte("prove you derived the same key")
	genuine, err := e.SecureSession(rng, nil, clientPub, challenge)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add(flipBit(genuine, len(genuine)-1))           // tag
	f.Add(flipBit(genuine, e.PointBytes()+2))         // nonce
	f.Add(genuine[:e.PointBytes()+SessionNonceBytes]) // no sealed part
	f.Fuzz(func(t *testing.T, resp []byte) {
		_, got, err := OpenSessionResponse(client, clientPub, resp)
		if err != nil {
			return
		}
		if !bytes.Equal(resp, genuine) {
			t.Fatalf("accepted a response that is not the genuine reply: %x", resp)
		}
		if !bytes.Equal(got, challenge) {
			t.Fatalf("opened challenge %q, want %q", got, challenge)
		}
	})
}
