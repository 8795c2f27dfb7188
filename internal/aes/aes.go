// Package aes implements AES-128/192/256 from first principles on top of
// Galois-field arithmetic (repro/internal/gf), the way the paper maps it
// onto the GF processor: the S-box is the GF(2^8) multiplicative inverse
// followed by an affine transform (no lookup table is mathematically
// required), and MixColumns/InvMixColumns are inner products in
// GF(2^8)/x^8+x^4+x^3+x+1.
//
// Encrypt, the serving path of CTR and GCM, runs on four big-endian
// uint32 columns with a word key schedule and four fused round tables
// te0..te3, generated at init from this package's own S-box and
// MixColumns rows: one lookup per state byte does SubBytes, ShiftRows
// and MixColumns together. The State functions (SubBytes, ShiftRows,
// MixColumns, ...) are the FIPS-197 reference: the metered paper
// kernels, Decrypt and SelfTest use them. Both are validated against
// the standard library crypto/aes and the FIPS-197 vectors in the tests.
//
// Not constant-time: the round tables, like the S-box and mixT, are
// indexed by secret bytes, so the cipher's cache footprint depends on
// the key and data. GHASH (gcm.go) is constant-time.
//
// Concurrency: a *Cipher is immutable once NewCipher has expanded the
// key schedule, and a *GCM is immutable once NewGCM has derived the
// GHASH subkey; Encrypt, Decrypt, Seal and Open keep all per-call state
// in locals (the package-level S-box and round tables are written only
// at init).
// One shared instance may therefore be used from many goroutines
// concurrently, as the repro/internal/pipeline worker pools do; the
// CTR/CBC helpers in modes.go take the IV per call and are equally safe
// as long as callers pass distinct dst buffers.
package aes

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/gf"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// Field returns the AES Galois field GF(2^8)/x^8+x^4+x^3+x+1.
func Field() *gf.Field { return aesField }

var aesField = gf.AES()

// sbox/invSbox are derived — not transcribed — from the field inverse and
// affine transform at package init, mirroring the paper's claim that the
// S-box "is realized directly with the multiplicative inverse operation".
var sbox, invSbox [256]byte

func init() {
	for x := 0; x < 256; x++ {
		s := SubByteComputed(byte(x))
		sbox[x] = s
		invSbox[s] = byte(x)
	}
}

// SubByteComputed evaluates the AES S-box arithmetically:
// inverse in GF(2^8) (with 0 -> 0), then the FIPS-197 affine transform.
func SubByteComputed(x byte) byte {
	var inv byte
	if x != 0 {
		inv = byte(aesField.Inv(gf.Elem(x)))
	}
	return affine(inv)
}

// InvSubByteComputed evaluates the inverse S-box arithmetically: inverse
// affine transform, then GF(2^8) inversion.
func InvSubByteComputed(x byte) byte {
	y := invAffine(x)
	if y == 0 {
		return 0
	}
	return byte(aesField.Inv(gf.Elem(y)))
}

// affine applies b_i = a_i ^ a_{i+4} ^ a_{i+5} ^ a_{i+6} ^ a_{i+7} ^ c_i
// (indices mod 8) with c = 0x63.
func affine(a byte) byte {
	var b byte
	for i := 0; i < 8; i++ {
		bit := (a>>i ^ a>>((i+4)%8) ^ a>>((i+5)%8) ^ a>>((i+6)%8) ^ a>>((i+7)%8)) & 1
		b |= bit << i
	}
	return b ^ 0x63
}

// invAffine inverts affine: a_i = b_{i+2} ^ b_{i+5} ^ b_{i+7} ^ d_i with
// d = 0x05.
func invAffine(b byte) byte {
	var a byte
	for i := 0; i < 8; i++ {
		bit := (b>>((i+2)%8) ^ b>>((i+5)%8) ^ b>>((i+7)%8)) & 1
		a |= bit << i
	}
	return a ^ 0x05
}

// Cipher is an AES cipher with an expanded key schedule.
type Cipher struct {
	rounds int // 10, 12 or 14
	// enc holds the 4*(rounds+1) round-key words in encryption order,
	// one big-endian column each.
	enc [4 * 15]uint32
}

// NewCipher creates an AES cipher for a 16-, 24- or 32-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	var rounds int
	switch len(key) {
	case 16:
		rounds = 10
	case 24:
		rounds = 12
	case 32:
		rounds = 14
	default:
		return nil, fmt.Errorf("aes: invalid key size %d", len(key))
	}
	c := &Cipher{rounds: rounds}
	expandKey(c.enc[:4*(rounds+1)], key)
	return c, nil
}

// Rounds returns the number of rounds (10, 12 or 14).
func (c *Cipher) Rounds() int { return c.rounds }

// RoundKey returns round key r (0..rounds) as 16 bytes.
func (c *Cipher) RoundKey(r int) []byte {
	rk := c.roundKey(r)
	return rk[:]
}

// roundKey returns round key r as bytes, the form the State functions
// take.
func (c *Cipher) roundKey(r int) [BlockSize]byte {
	var rk [BlockSize]byte
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint32(rk[4*i:], c.enc[4*r+i])
	}
	return rk
}

// expandKey performs the FIPS-197 key expansion into the words w, one
// big-endian column each. The RotWord/SubWord step is the "vectorizable
// with 4 (a row)" kernel of the paper's Table 5.
func expandKey(w []uint32, key []byte) {
	nk := len(key) / 4
	for i := 0; i < nk; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := byte(1)
	for i := nk; i < len(w); i++ {
		t := w[i-1]
		if i%nk == 0 {
			// RotWord + SubWord + Rcon
			t = bits.RotateLeft32(t, 8)
			t = subRows(t, t, t, t) ^ uint32(rcon)<<24
			rcon = Xtime(rcon)
		} else if nk > 6 && i%nk == 4 {
			t = subRows(t, t, t, t)
		}
		w[i] = w[i-nk] ^ t
	}
}

// State is the 4x4 AES state. state[r][c] follows FIPS-197: byte i of the
// input maps to state[i%4][i/4] (column-major).
type State [4][4]byte

// LoadState fills a state from a 16-byte block.
func LoadState(block []byte) State {
	var s State
	for i := 0; i < 16; i++ {
		s[i%4][i/4] = block[i]
	}
	return s
}

// Bytes serializes the state back to a 16-byte block.
func (s State) Bytes() []byte {
	out := make([]byte, 16)
	for i := 0; i < 16; i++ {
		out[i] = s[i%4][i/4]
	}
	return out
}

// AddRoundKey XORs the round key into the state — pure GF addition,
// "vectorizable with 16 independent state bytes" (Table 5).
func AddRoundKey(s *State, rk []byte) {
	for i := 0; i < 16; i++ {
		s[i%4][i/4] ^= rk[i]
	}
}

// SubBytes applies the S-box to every state byte.
func SubBytes(s *State) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[r][c] = sbox[s[r][c]]
		}
	}
}

// InvSubBytes applies the inverse S-box.
func InvSubBytes(s *State) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[r][c] = invSbox[s[r][c]]
		}
	}
}

// ShiftRows rotates row r left by r — the nonvectorizable data movement of
// Table 5.
func ShiftRows(s *State) {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[c] = s[r][(c+r)%4]
		}
		s[r] = tmp
	}
}

// InvShiftRows rotates row r right by r.
func InvShiftRows(s *State) {
	for r := 1; r < 4; r++ {
		var tmp [4]byte
		for c := 0; c < 4; c++ {
			tmp[(c+r)%4] = s[r][c]
		}
		s[r] = tmp
	}
}

// mixColCoeff and invMixColCoeff are the circulant first rows of the
// MixColumns matrices. The paper highlights that MixCol's {02,03,01,01}
// admits shift/xor tricks on a CPU while InvMixCol's {0E,0B,0D,09} does
// not — but a GF multiplier is agnostic to the coefficient values.
var (
	mixColCoeff    = [4]byte{0x02, 0x03, 0x01, 0x01}
	invMixColCoeff = [4]byte{0x0E, 0x0B, 0x0D, 0x09}
)

// mixT/invMixT hold the four mul-by-coefficient rows of the (inverse)
// MixColumns matrices, derived at init from the field's bulk kernels:
// mixT[i][x] = coeff[i] * x. One table lookup per product replaces
// Field.Mul's two lookups plus branch in the block cipher's hottest
// non-S-box step — the software image of feeding the paper's wide GF
// multiplier with constant operands. The derivation goes through the
// kernels' static dispatch (the table tier at m = 8, or the scalar
// reference under GFP_KERNEL_TIER=scalar; docs/GF.md), and the
// differential selftest guarantees both give identical tables; the
// per-block hot path below is tier-independent from then on.
var mixT, invMixT [4][256]byte

func init() {
	k := aesField.Kernels()
	src := make([]gf.Elem, 256)
	for x := range src {
		src[x] = gf.Elem(x)
	}
	row := make([]gf.Elem, 256)
	for i := 0; i < 4; i++ {
		k.MulConstSlice(row, src, gf.Elem(mixColCoeff[i]))
		for x, v := range row {
			mixT[i][x] = byte(v)
		}
		k.MulConstSlice(row, src, gf.Elem(invMixColCoeff[i]))
		for x, v := range row {
			invMixT[i][x] = byte(v)
		}
	}
}

// te0..te3 are the fused round tables: te0[x] is the MixColumns column
// of S(x) in row 0, {2·S(x), S(x), S(x), 3·S(x)} as one big-endian word,
// and te1..te3 are it rotated right by 8, 16 and 24 bits for rows 1..3.
// XORing te0[a0] ^ te1[a1] ^ te2[a2] ^ te3[a3] over the four bytes that
// ShiftRows brings into a column is SubBytes, ShiftRows and MixColumns
// of that column. They are built from sbox and mixT, so they inherit the
// differential checks on both.
var te0, te1, te2, te3 [256]uint32

func init() {
	for x := 0; x < 256; x++ {
		s := sbox[x]
		w := uint32(mixT[0][s])<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(mixT[1][s])
		te0[x] = w
		te1[x] = bits.RotateLeft32(w, -8)
		te2[x] = bits.RotateLeft32(w, -16)
		te3[x] = bits.RotateLeft32(w, -24)
	}
}

// Xtime multiplies by x (0x02) in the AES field — the doubling primitive
// classic byte-sliced AES implementations build MixColumns from.
func Xtime(b byte) byte { return mixT[0][b] }

// MixColumns multiplies each state column by the MixColumns matrix in
// GF(2^8) — 4 independent 4x4 GF matrix-vector products (Table 5),
// table-driven via the precomputed coefficient rows.
func MixColumns(s *State) { mixWith(s, &mixT) }

// InvMixColumns applies the inverse matrix.
func InvMixColumns(s *State) { mixWith(s, &invMixT) }

// mixWith applies the circulant matrix whose mul-by-coefficient rows are
// t: out[r] = sum_i t[(i-r+4)%4][col[i]], fully unrolled per column.
func mixWith(s *State, t *[4][256]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[0][c], s[1][c], s[2][c], s[3][c]
		s[0][c] = t[0][a0] ^ t[1][a1] ^ t[2][a2] ^ t[3][a3]
		s[1][c] = t[3][a0] ^ t[0][a1] ^ t[1][a2] ^ t[2][a3]
		s[2][c] = t[2][a0] ^ t[3][a1] ^ t[0][a2] ^ t[1][a3]
		s[3][c] = t[1][a0] ^ t[2][a1] ^ t[3][a2] ^ t[0][a3]
	}
}

// mixWithGF is the arithmetic reference for mixWith: the same circulant
// product evaluated through Field.Mul. Tests assert the table path agrees
// with it for both coefficient sets over all byte values.
func mixWithGF(s *State, coeff [4]byte) {
	for c := 0; c < 4; c++ {
		var col, out [4]byte
		for r := 0; r < 4; r++ {
			col[r] = s[r][c]
		}
		for r := 0; r < 4; r++ {
			var acc gf.Elem
			for i := 0; i < 4; i++ {
				acc ^= aesField.Mul(gf.Elem(coeff[(i-r+4)%4]), gf.Elem(col[i]))
			}
			out[r] = byte(acc)
		}
		for r := 0; r < 4; r++ {
			s[r][c] = out[r]
		}
	}
}

// Encrypt encrypts one 16-byte block: dst = AES(src). dst and src may
// overlap. It panics on short slices like crypto/cipher.Block does.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	s0, s1, s2, s3 := c.encrypt(binary.BigEndian.Uint32(src[0:4]), binary.BigEndian.Uint32(src[4:8]),
		binary.BigEndian.Uint32(src[8:12]), binary.BigEndian.Uint32(src[12:16]))
	binary.BigEndian.PutUint32(dst[0:4], s0)
	binary.BigEndian.PutUint32(dst[4:8], s1)
	binary.BigEndian.PutUint32(dst[8:12], s2)
	binary.BigEndian.PutUint32(dst[12:16], s3)
}

// encrypt runs the cipher on one block held as four big-endian columns.
// Each middle round is four table lookups and a round-key word per
// column; the last round (no MixColumns) looks up the plain S-box.
func (c *Cipher) encrypt(s0, s1, s2, s3 uint32) (uint32, uint32, uint32, uint32) {
	k := c.enc[:4*(c.rounds+1)]
	s0 ^= k[0]
	s1 ^= k[1]
	s2 ^= k[2]
	s3 ^= k[3]
	for k = k[4:]; len(k) > 4; k = k[4:] {
		t0 := te0[s0>>24] ^ te1[uint8(s1>>16)] ^ te2[uint8(s2>>8)] ^ te3[uint8(s3)] ^ k[0]
		t1 := te0[s1>>24] ^ te1[uint8(s2>>16)] ^ te2[uint8(s3>>8)] ^ te3[uint8(s0)] ^ k[1]
		t2 := te0[s2>>24] ^ te1[uint8(s3>>16)] ^ te2[uint8(s0>>8)] ^ te3[uint8(s1)] ^ k[2]
		t3 := te0[s3>>24] ^ te1[uint8(s0>>16)] ^ te2[uint8(s1>>8)] ^ te3[uint8(s2)] ^ k[3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	k = k[:4]
	t0 := subRows(s0, s1, s2, s3) ^ k[0]
	t1 := subRows(s1, s2, s3, s0) ^ k[1]
	t2 := subRows(s2, s3, s0, s1) ^ k[2]
	t3 := subRows(s3, s0, s1, s2) ^ k[3]
	return t0, t1, t2, t3
}

// subRows returns the word whose byte r (byte 0 is the most
// significant) is the S-box of byte r of the r-th argument: SubBytes and
// ShiftRows of one column in the last round, SubWord (all four
// arguments the same word) in the key schedule.
func subRows(a, b, c, d uint32) uint32 {
	return uint32(sbox[a>>24])<<24 | uint32(sbox[uint8(b>>16)])<<16 |
		uint32(sbox[uint8(c>>8)])<<8 | uint32(sbox[uint8(d)])
}

// encryptState is the FIPS-197 reference for Encrypt: the round
// composed from the State functions.
func (c *Cipher) encryptState(dst, src []byte) {
	s := LoadState(src[:16])
	rk := c.roundKey(0)
	AddRoundKey(&s, rk[:])
	for r := 1; r < c.rounds; r++ {
		SubBytes(&s)
		ShiftRows(&s)
		MixColumns(&s)
		rk = c.roundKey(r)
		AddRoundKey(&s, rk[:])
	}
	SubBytes(&s)
	ShiftRows(&s)
	rk = c.roundKey(c.rounds)
	AddRoundKey(&s, rk[:])
	copy(dst, s.Bytes())
}

// Decrypt decrypts one 16-byte block using the straightforward inverse
// cipher (FIPS-197 Section 5.3).
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	s := LoadState(src[:16])
	rk := c.roundKey(c.rounds)
	AddRoundKey(&s, rk[:])
	for r := c.rounds - 1; r >= 1; r-- {
		InvShiftRows(&s)
		InvSubBytes(&s)
		rk = c.roundKey(r)
		AddRoundKey(&s, rk[:])
		InvMixColumns(&s)
	}
	InvShiftRows(&s)
	InvSubBytes(&s)
	rk = c.roundKey(0)
	AddRoundKey(&s, rk[:])
	copy(dst, s.Bytes())
}

// BlockSize makes *Cipher satisfy crypto/cipher.Block.
func (c *Cipher) BlockSize() int { return BlockSize }
