package aes

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Block-cipher modes of operation. The paper's IoT scenario applies AES
// "on a packet-by-packet basis"; CTR is the natural packet mode (no
// padding, encrypt-only datapath) and CBC is provided for completeness.

// EncryptCTR encrypts (or decrypts — CTR is an involution) src with a
// 16-byte initial counter block. The counter increments big-endian over
// the full block.
func (c *Cipher) EncryptCTR(dst, src, iv []byte) error {
	if len(iv) != BlockSize {
		return fmt.Errorf("aes: CTR iv must be %d bytes", BlockSize)
	}
	if len(dst) < len(src) {
		return fmt.Errorf("aes: CTR dst shorter than src")
	}
	hi, lo := binary.BigEndian.Uint64(iv[0:8]), binary.BigEndian.Uint64(iv[8:16])
	for off := 0; off < len(src); off += BlockSize {
		k0, k1, k2, k3 := c.encrypt(uint32(hi>>32), uint32(hi), uint32(lo>>32), uint32(lo))
		xorBlock(dst[off:], src[off:], k0, k1, k2, k3)
		var carry uint64
		lo, carry = bits.Add64(lo, 1, 0)
		hi += carry
	}
	return nil
}

// EncryptCBC encrypts src (length must be a multiple of 16) in CBC mode.
func (c *Cipher) EncryptCBC(dst, src, iv []byte) error {
	if len(src)%BlockSize != 0 {
		return fmt.Errorf("aes: CBC plaintext not block-aligned")
	}
	if len(iv) != BlockSize {
		return fmt.Errorf("aes: CBC iv must be %d bytes", BlockSize)
	}
	if len(dst) < len(src) {
		return fmt.Errorf("aes: CBC dst shorter than src")
	}
	prev := append([]byte(nil), iv...)
	var blk [BlockSize]byte
	for off := 0; off < len(src); off += BlockSize {
		for i := 0; i < BlockSize; i++ {
			blk[i] = src[off+i] ^ prev[i]
		}
		c.Encrypt(dst[off:off+BlockSize], blk[:])
		copy(prev, dst[off:off+BlockSize])
	}
	return nil
}

// DecryptCBC decrypts src (length must be a multiple of 16) in CBC mode.
func (c *Cipher) DecryptCBC(dst, src, iv []byte) error {
	if len(src)%BlockSize != 0 {
		return fmt.Errorf("aes: CBC ciphertext not block-aligned")
	}
	if len(iv) != BlockSize {
		return fmt.Errorf("aes: CBC iv must be %d bytes", BlockSize)
	}
	if len(dst) < len(src) {
		return fmt.Errorf("aes: CBC dst shorter than src")
	}
	prev := append([]byte(nil), iv...)
	var blk [BlockSize]byte
	for off := 0; off < len(src); off += BlockSize {
		cur := append([]byte(nil), src[off:off+BlockSize]...)
		c.Decrypt(blk[:], cur)
		for i := 0; i < BlockSize; i++ {
			dst[off+i] = blk[i] ^ prev[i]
		}
		prev = cur
	}
	return nil
}
