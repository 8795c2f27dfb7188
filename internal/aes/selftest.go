package aes

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// SelfTest checks the serving paths against their slow references on
// vectors pseudo-random inputs drawn from seed: the round-table Encrypt
// against the FIPS-197 State composition for AES-128, -192 and -256, and
// the constant-time GHASH product against the gfbig carry-free product
// (mulHClmul). It returns the first disagreement, naming the check.
func SelfTest(vectors int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var key [32]byte
	var blk, got, want [BlockSize]byte
	for _, n := range []int{16, 24, 32} {
		for i := 0; i < vectors; i++ {
			rng.Read(key[:n])
			rng.Read(blk[:])
			c, err := NewCipher(key[:n])
			if err != nil {
				return err
			}
			c.Encrypt(got[:], blk[:])
			c.encryptState(want[:], blk[:])
			if got != want {
				return fmt.Errorf("aes: AES-%d table Encrypt of %x under key %x = %x, State reference %x",
					8*n, blk, key[:n], got, want)
			}
		}
	}
	var h, x [BlockSize]byte
	for i := 0; i < vectors; i++ {
		rng.Read(h[:])
		rng.Read(x[:])
		if err := checkGHASH(&h, &x); err != nil {
			return err
		}
	}
	return nil
}

// checkGHASH compares the serving GHASH product X·H with mulHClmul.
func checkGHASH(h, x *[BlockSize]byte) error {
	g := newGCM(nil, h)
	zHi, zLo := g.mul(binary.BigEndian.Uint64(x[0:8]), binary.BigEndian.Uint64(x[8:16]))
	var got [BlockSize]byte
	binary.BigEndian.PutUint64(got[0:8], zHi)
	binary.BigEndian.PutUint64(got[8:16], zLo)
	if want := g.mulHClmul(x[:]); !bytes.Equal(got[:], want) {
		return fmt.Errorf("aes: GHASH product %x·%x = %x, gfbig reference %x", x, h, got, want)
	}
	return nil
}
