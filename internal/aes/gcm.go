package aes

// Galois/Counter Mode. GCM's GHASH authenticator is itself Galois-field
// arithmetic — multiplication in GF(2^128)/x^128+x^7+x^2+x+1 with a
// bit-reflected element encoding — so an AES-GCM packet pipeline runs
// entirely on the operations the paper's processor accelerates: AES
// rounds on the SIMD unit and the 128-bit GHASH products on iterated
// 32-bit carry-free partial products (gf32bMult), exactly like the
// ECC_l wide multiplications of Section 3.3.4.
//
// Every GHASH product goes through one constant-time multiplier (mul):
// a Karatsuba product over the 64-bit halves, three gfbig.Clmul64Lo
// products for the low halves of the partial products and three on the
// bit-reversed operands for the high halves, then a shift-and-xor
// sparse reduction (BearSSL's ghash_ctmul64). No branch and no table
// index depends on H or the data. Its reference, mulHClmul, is the
// carry-free product and reduction of internal/gfbig over the reflected
// polynomials, built the way the GF processor would compute it; the
// tests and SelfTest check one against the other.

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/gfbig"
)

// gcmTagSize is the full 16-byte authentication tag.
const gcmTagSize = 16

// ghashField is GF(2^128)/x^128+x^7+x^2+x+1 in gfbig's LSB-first packing,
// the field of the mulHClmul reference.
var ghashField = gfbig.MustNew(128, 7, 2, 1, 0)

// GCM is an AES-GCM AEAD with a 96-bit nonce and 16-byte tag.
type GCM struct {
	c *Cipher
	// The hash subkey H = E_K(0^128) as big-endian halves (hHi is bytes
	// 0..7), their xor for the Karatsuba middle product, and the bit
	// reversals of all three for the high halves of the products.
	hHi, hLo, hMid    uint64
	hHiR, hLoR, hMidR uint64
	// hRefl is H in the LSB-first polynomial basis, for mulHClmul.
	hRefl gfbig.Elem
}

// NewGCM wraps the cipher in Galois/Counter Mode.
func (c *Cipher) NewGCM() *GCM {
	var zero, h [BlockSize]byte
	c.Encrypt(h[:], zero[:])
	return newGCM(c, &h)
}

// newGCM builds a GCM over c with hash subkey h.
func newGCM(c *Cipher, h *[BlockSize]byte) *GCM {
	g := &GCM{
		c:   c,
		hHi: binary.BigEndian.Uint64(h[0:8]),
		hLo: binary.BigEndian.Uint64(h[8:16]),
	}
	g.hMid = g.hHi ^ g.hLo
	g.hHiR, g.hLoR, g.hMidR = bits.Reverse64(g.hHi), bits.Reverse64(g.hLo), bits.Reverse64(g.hMid)
	g.hRefl = g.reflect(h[:])
	return g
}

// reflect converts a 16-byte GHASH element (bit 0 = MSB of byte 0 =
// coefficient of x^0) into the standard LSB-first gfbig packing.
func (g *GCM) reflect(b []byte) gfbig.Elem {
	e := ghashField.Zero()
	for i := 0; i < 128; i++ {
		// GHASH bit i lives at byte i/8, bit (7 - i%8) — MSB first.
		if b[i/8]>>(7-i%8)&1 == 1 {
			e[i/32] |= 1 << (i % 32)
		}
	}
	return e
}

// unreflect is the inverse of reflect.
func (g *GCM) unreflect(e gfbig.Elem) []byte {
	b := make([]byte, 16)
	for i := 0; i < 128; i++ {
		if e[i/32]>>(i%32)&1 == 1 {
			b[i/8] |= 1 << (7 - i%8)
		}
	}
	return b
}

// mul returns X·H for the block X with big-endian halves xHi, xLo.
//
// GHASH numbers bits MSB first, so a block read as a big-endian integer
// is its polynomial bit-reversed. Clmul64Lo of two reversed halves is
// the high half of their product, reversed and shifted left by one;
// Karatsuba gives the middle terms from the xor of the halves. The
// 256-bit product v3:v2:v1:v0 (still reflected) is shifted left by one
// to undo the reflection's offset, and v1:v0 is folded into v3:v2 with
// x^128 = x^7+x^2+x+1 read in the reflected order: shifts by 1, 2 and 7
// and their complements 63, 62 and 57.
func (g *GCM) mul(xHi, xLo uint64) (zHi, zLo uint64) {
	xHiR, xLoR := bits.Reverse64(xHi), bits.Reverse64(xLo)
	xMid, xMidR := xHi^xLo, xHiR^xLoR

	z0 := gfbig.Clmul64Lo(xLo, g.hLo)
	z1 := gfbig.Clmul64Lo(xHi, g.hHi)
	z2 := gfbig.Clmul64Lo(xMid, g.hMid)
	z0h := gfbig.Clmul64Lo(xLoR, g.hLoR)
	z1h := gfbig.Clmul64Lo(xHiR, g.hHiR)
	z2h := gfbig.Clmul64Lo(xMidR, g.hMidR)
	z2 ^= z0 ^ z1
	z2h ^= z0h ^ z1h
	z0h = bits.Reverse64(z0h) >> 1
	z1h = bits.Reverse64(z1h) >> 1
	z2h = bits.Reverse64(z2h) >> 1

	v0, v1, v2, v3 := z0, z0h^z2, z1^z2h, z1h
	v3 = v3<<1 | v2>>63
	v2 = v2<<1 | v1>>63
	v1 = v1<<1 | v0>>63
	v0 <<= 1

	v2 ^= v0 ^ v0>>1 ^ v0>>2 ^ v0>>7
	v1 ^= v0<<63 ^ v0<<62 ^ v0<<57
	v3 ^= v1 ^ v1>>1 ^ v1>>2 ^ v1>>7
	v2 ^= v1<<63 ^ v1<<62 ^ v1<<57
	return v3, v2
}

// mulHClmul computes the same product through carry-free multiplication
// and sparse reduction in the reflected basis — the GF-processor path:
// reflect both operands, take the 128x128 carry-free product (sixteen
// 32-bit partial products), reduce modulo x^128+x^7+x^2+x+1, reflect
// back. It is the reference for mul.
func (g *GCM) mulHClmul(x []byte) []byte {
	// GHASH numbers the bits of its byte string MSB-of-byte-0 first, and
	// that bit index IS the polynomial coefficient index; reflect() maps
	// it to gfbig's LSB-first packing of the same polynomial, so the
	// product is a plain field multiplication modulo x^128+x^7+x^2+x+1 —
	// sixteen 32-bit carry-free partial products plus sparse reduction,
	// identical in structure to the Section 3.3.4 wide multiplies.
	xr := g.reflect(x)
	red := ghashField.Mul(xr, g.hRefl)
	return g.unreflect(red)
}

// ghash returns GHASH_H over aad and ct, each zero-padded to whole
// blocks, followed by the length block: the bit lengths of aad and ct.
func (g *GCM) ghash(aad, ct []byte) [BlockSize]byte {
	yHi, yLo := g.absorb(0, 0, aad)
	yHi, yLo = g.absorb(yHi, yLo, ct)
	yHi, yLo = g.mul(yHi^uint64(len(aad))*8, yLo^uint64(len(ct))*8)
	var out [BlockSize]byte
	binary.BigEndian.PutUint64(out[0:8], yHi)
	binary.BigEndian.PutUint64(out[8:16], yLo)
	return out
}

// absorb folds b, zero-padded to whole blocks, into the running hash.
func (g *GCM) absorb(yHi, yLo uint64, b []byte) (uint64, uint64) {
	for ; len(b) >= BlockSize; b = b[BlockSize:] {
		yHi, yLo = g.mul(yHi^binary.BigEndian.Uint64(b[0:8]), yLo^binary.BigEndian.Uint64(b[8:16]))
	}
	if len(b) > 0 {
		var blk [BlockSize]byte
		copy(blk[:], b)
		yHi, yLo = g.mul(yHi^binary.BigEndian.Uint64(blk[0:8]), yLo^binary.BigEndian.Uint64(blk[8:16]))
	}
	return yHi, yLo
}

// gctr XORs src with the keystream E_K(J0 with counter ctr), ctr+1, ...
// into dst. The counter is the last 32-bit word of J0 and wraps mod 2^32.
func (g *GCM) gctr(dst, src []byte, j0 *[BlockSize]byte, ctr uint32) {
	n0 := binary.BigEndian.Uint32(j0[0:4])
	n1 := binary.BigEndian.Uint32(j0[4:8])
	n2 := binary.BigEndian.Uint32(j0[8:12])
	for off := 0; off < len(src); off += BlockSize {
		k0, k1, k2, k3 := g.c.encrypt(n0, n1, n2, ctr)
		ctr++
		xorBlock(dst[off:], src[off:], k0, k1, k2, k3)
	}
}

// xorBlock writes the first min(len(src), 16) bytes of src XOR the
// keystream block k0..k3 (big-endian words) to dst.
func xorBlock(dst, src []byte, k0, k1, k2, k3 uint32) {
	if len(src) >= BlockSize {
		dst = dst[:BlockSize]
		binary.BigEndian.PutUint32(dst[0:4], binary.BigEndian.Uint32(src[0:4])^k0)
		binary.BigEndian.PutUint32(dst[4:8], binary.BigEndian.Uint32(src[4:8])^k1)
		binary.BigEndian.PutUint32(dst[8:12], binary.BigEndian.Uint32(src[8:12])^k2)
		binary.BigEndian.PutUint32(dst[12:16], binary.BigEndian.Uint32(src[12:16])^k3)
		return
	}
	var ks [BlockSize]byte
	binary.BigEndian.PutUint32(ks[0:4], k0)
	binary.BigEndian.PutUint32(ks[4:8], k1)
	binary.BigEndian.PutUint32(ks[8:12], k2)
	binary.BigEndian.PutUint32(ks[12:16], k3)
	for i := range src {
		dst[i] = src[i] ^ ks[i]
	}
}

// j0 is the pre-counter block of a 96-bit nonce: nonce || 0^31 || 1.
func j0(nonce []byte) [BlockSize]byte {
	var b [BlockSize]byte
	copy(b[:], nonce)
	b[15] = 1
	return b
}

// Seal encrypts and authenticates plaintext with the 12-byte nonce and
// additional authenticated data, returning ciphertext || 16-byte tag.
func (g *GCM) Seal(nonce, plaintext, aad []byte) ([]byte, error) {
	if len(nonce) != 12 {
		return nil, fmt.Errorf("aes: GCM nonce must be 12 bytes")
	}
	pre := j0(nonce)
	out := make([]byte, len(plaintext)+gcmTagSize)
	g.gctr(out, plaintext, &pre, 2)
	s := g.ghash(aad, out[:len(plaintext)])
	// tag = GHASH ^ E_K(J0): GCTR with counter 1, J0's own counter.
	g.gctr(out[len(plaintext):], s[:], &pre, 1)
	return out, nil
}

// Open verifies and decrypts Seal's output. It returns an error on
// authentication failure (and no plaintext).
func (g *GCM) Open(nonce, sealed, aad []byte) ([]byte, error) {
	if len(nonce) != 12 {
		return nil, fmt.Errorf("aes: GCM nonce must be 12 bytes")
	}
	if len(sealed) < gcmTagSize {
		return nil, fmt.Errorf("aes: GCM ciphertext shorter than tag")
	}
	ct := sealed[:len(sealed)-gcmTagSize]
	tag := sealed[len(sealed)-gcmTagSize:]
	pre := j0(nonce)
	s := g.ghash(aad, ct)
	g.gctr(s[:], s[:], &pre, 1)
	var diff byte
	for i := 0; i < gcmTagSize; i++ {
		diff |= tag[i] ^ s[i]
	}
	if diff != 0 {
		return nil, fmt.Errorf("aes: GCM authentication failed")
	}
	pt := make([]byte, len(ct))
	g.gctr(pt, ct, &pre, 2)
	return pt, nil
}
