package ecc

import (
	"bytes"
	"math/big"
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

// FuzzVerifyWire feeds arbitrary ecdsa-verify wire payloads,
// pub‖sig‖digest, to the engine's verifier on K-233, split the way the
// server's dispatch stage splits them once validateECC's length rule
// has passed. It must never panic, and since only the key holder can
// sign, it may accept only the engine's own public key with the
// genuine deterministic signature r‖s over the digest or its high-s
// twin r‖(n−s). The seeds (testdata/fuzz/FuzzVerifyWire) hold a
// genuine triple, its twin, a flipped digest bit, r = 0 with s = n,
// r with s+n, a short signature and an off-curve point.
func FuzzVerifyWire(f *testing.F) {
	c := K233()
	e := testEngine(f, c)
	pb, ob := e.PointBytes(), e.OrderBytes()
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) <= pb+2*ob || len(b) > pb+2*ob+MaxDigestBytes {
			return // validateECC rejects the length before dispatch
		}
		pub, sig, digest := b[:pb], b[pb:pb+2*ob], b[pb+2*ob:]
		if e.VerifyWire(pub, sig, digest) != nil {
			return
		}
		if !bytes.Equal(pub, e.PublicBytes()) {
			t.Fatalf("accepted a signature under a foreign key %x", pub)
		}
		want, err := e.SignAppend(nil, digest)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sig, want) && !bytes.Equal(sig, highS(c, want)) {
			t.Fatalf("accepted %x over %x, want the genuine signature %x or its twin", sig, digest, want)
		}
	})
}

// highS returns the twin r‖(n−s) of a wire signature r‖s.
func highS(c *Curve, sig []byte) []byte {
	ob := len(sig) / 2
	s := new(big.Int).SetBytes(sig[ob:])
	out := append([]byte{}, sig...)
	new(big.Int).Sub(c.Order, s).FillBytes(out[ob:])
	return out
}
