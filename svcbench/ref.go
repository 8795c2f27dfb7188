package main

// Local references the benchmark checks the service's answers against.
// They are computed before timing starts and run on code paths the
// server does not use: stdlib AES-GCM instead of internal/aes, math/big
// curve arithmetic instead of the fixed-width ecc.Engine ladder, and a
// from-the-RFC HMAC-DRBG instead of the engine's hand-rolled one.

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/big"

	"repro/internal/ecc"
)

// serverScalar reproduces the server's documented derivation of its
// private ECC scalar from Config.ECCKey: RandomScalar fed by the stream
// SHA-256("GFP1 ecc scalar v1" || curve || key || counter64). The
// benchmark checks the result against the public key the server
// advertises in its stats, so a drift in either side shows up as a
// set-up failure rather than as wrong signatures.
func serverScalar(c *ecc.Curve, key []byte) (*big.Int, error) {
	prefix := append([]byte("GFP1 ecc scalar v1"+c.Name), key...)
	return c.RandomScalar(&hashStream{prefix: prefix})
}

type hashStream struct {
	prefix []byte
	ctr    uint64
	buf    []byte
}

func (h *hashStream) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(h.buf) == 0 {
			var c [8]byte
			binary.BigEndian.PutUint64(c[:], h.ctr)
			sum := sha256.Sum256(append(append([]byte(nil), h.prefix...), c[:]...))
			h.buf = sum[:]
			h.ctr++
		}
		k := copy(p[n:], h.buf)
		h.buf = h.buf[k:]
		n += k
	}
	return n, nil
}

// signRFC6979 is the reference ECDSA signer: RFC 6979 §3.2 nonces with
// HMAC-SHA256, SEC 1 digest truncation, and the low-s form the service
// emits, all on math/big. It returns r || s, each OrderBytes wide.
func signRFC6979(c *ecc.Curve, d *big.Int, digest []byte) []byte {
	n := c.Order
	qlen := n.BitLen()
	rlen := (qlen + 7) / 8
	bits2int := func(b []byte) *big.Int {
		v := new(big.Int).SetBytes(b)
		if excess := len(b)*8 - qlen; excess > 0 {
			v.Rsh(v, uint(excess))
		}
		return v
	}
	int2octets := func(v *big.Int) []byte { return v.FillBytes(make([]byte, rlen)) }
	e := bits2int(digest)
	e.Mod(e, n)

	mac := func(key []byte, parts ...[]byte) []byte {
		h := hmac.New(sha256.New, key)
		for _, p := range parts {
			h.Write(p)
		}
		return h.Sum(nil)
	}
	V := make([]byte, 32)
	K := make([]byte, 32)
	for i := range V {
		V[i] = 1
	}
	x, h1 := int2octets(d), int2octets(e)
	for _, sep := range []byte{0, 1} {
		K = mac(K, V, []byte{sep}, x, h1)
		V = mac(K, V)
	}
	for {
		var T []byte
		for len(T)*8 < qlen {
			V = mac(K, V)
			T = append(T, V...)
		}
		k := bits2int(T)
		if k.Sign() > 0 && k.Cmp(n) < 0 {
			if p := c.ScalarBaseMult(k); !p.Inf {
				r := new(big.Int).SetBytes(c.F.Bytes(p.X))
				r.Mod(r, n)
				if r.Sign() != 0 {
					s := new(big.Int).Mul(r, d)
					s.Add(s, e)
					s.Mul(s, new(big.Int).ModInverse(k, n))
					s.Mod(s, n)
					if s.Sign() != 0 {
						if ns := new(big.Int).Sub(n, s); ns.Cmp(s) < 0 {
							s = ns
						}
						return append(int2octets(r), int2octets(s)...)
					}
				}
			}
		}
		K = mac(K, V, []byte{0})
		V = mac(K, V)
	}
}
