package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"testing"
)

// FuzzGCMOpen feeds arbitrary (nonce, sealed, aad) triples to GCM Open
// under a fixed key, as the server's aead-open op does with a peer's
// request. It must never panic; with a 12-byte nonce it must accept
// exactly what the standard library accepts, and whatever it opens must
// re-seal to exactly the sealed input.
func FuzzGCMOpen(f *testing.F) {
	key := bytes.Repeat([]byte{0x42}, 16)
	c, err := NewCipher(key)
	if err != nil {
		f.Fatal(err)
	}
	g := c.NewGCM()
	blk, err := stdaes.NewCipher(key)
	if err != nil {
		f.Fatal(err)
	}
	ref, err := cipher.NewGCM(blk)
	if err != nil {
		f.Fatal(err)
	}
	nonce := []byte("fuzz-nonce-1")
	for _, n := range []int{0, 1, 16, 17, 64} {
		aad := []byte("gfp1")[:n%5]
		sealed, err := g.Seal(nonce, bytes.Repeat([]byte{byte(n)}, n), aad)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(nonce, sealed, aad)
	}
	f.Add(nonce[:11], make([]byte, 16), []byte(nil))
	f.Add(nonce, make([]byte, 15), []byte(nil))
	f.Fuzz(func(t *testing.T, nonce, sealed, aad []byte) {
		pt, err := g.Open(nonce, sealed, aad)
		if len(nonce) == 12 {
			want, refErr := ref.Open(nil, nonce, sealed, aad)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("Open error %v, standard library %v", err, refErr)
			}
			if err == nil && !bytes.Equal(pt, want) {
				t.Fatalf("Open plaintext %x, standard library %x", pt, want)
			}
		}
		if err != nil {
			return
		}
		resealed, err := g.Seal(nonce, pt, aad)
		if err != nil {
			t.Fatalf("re-seal of an opened message: %v", err)
		}
		if !bytes.Equal(resealed, sealed) {
			t.Fatalf("re-seal %x, want %x", resealed, sealed)
		}
	})
}

// FuzzGHASHProduct checks the constant-time GHASH product against the
// gfbig carry-free reference on arbitrary operands: the first 16 bytes
// of the input are H, the next 16 are X (zero-padded when short).
func FuzzGHASHProduct(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Add(append([]byte{0x80}, make([]byte, 31)...))
	f.Add([]byte("0123456789abcdefGHASH-operand-X!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h, x [BlockSize]byte
		copy(h[:], data)
		if len(data) > BlockSize {
			copy(x[:], data[BlockSize:])
		}
		if err := checkGHASH(&h, &x); err != nil {
			t.Fatal(err)
		}
	})
}
