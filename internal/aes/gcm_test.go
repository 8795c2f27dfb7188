package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"
)

func TestGCMMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ks := range []int{16, 24, 32} {
		for _, ptLen := range []int{0, 1, 16, 33, 64, 100} {
			for _, aadLen := range []int{0, 7, 16, 40} {
				key := make([]byte, ks)
				nonce := make([]byte, 12)
				pt := make([]byte, ptLen)
				aad := make([]byte, aadLen)
				rng.Read(key)
				rng.Read(nonce)
				rng.Read(pt)
				rng.Read(aad)

				ours, _ := NewCipher(key)
				got, err := ours.NewGCM().Seal(nonce, pt, aad)
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := stdaes.NewCipher(key)
				g, _ := cipher.NewGCM(ref)
				want := g.Seal(nil, nonce, pt, aad)
				if !bytes.Equal(got, want) {
					t.Fatalf("ks=%d pt=%d aad=%d: sealed output differs from crypto/cipher", ks, ptLen, aadLen)
				}
			}
		}
	}
}

func TestGCMOpenRoundTripAndTamper(t *testing.T) {
	key := []byte("0123456789abcdef")
	c, _ := NewCipher(key)
	g := c.NewGCM()
	nonce := []byte("12-byte-nonc")
	pt := []byte("authenticated and encrypted packet payload")
	aad := []byte("packet header")
	sealed, err := g.Seal(nonce, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	back, err := g.Open(nonce, sealed, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("round trip failed")
	}
	// Any single-bit tamper must fail authentication.
	for _, idx := range []int{0, len(sealed) / 2, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[idx] ^= 1
		if _, err := g.Open(nonce, bad, aad); err == nil {
			t.Fatalf("tampered byte %d accepted", idx)
		}
	}
	// Wrong AAD must fail.
	if _, err := g.Open(nonce, sealed, []byte("other header")); err == nil {
		t.Fatal("wrong aad accepted")
	}
}

func TestGCMValidation(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	g := c.NewGCM()
	if _, err := g.Seal(make([]byte, 11), nil, nil); err == nil {
		t.Error("11-byte nonce accepted")
	}
	if _, err := g.Open(make([]byte, 12), make([]byte, 8), nil); err == nil {
		t.Error("too-short ciphertext accepted")
	}
}

// TestGHASHProductMatchesClmul: the constant-time Karatsuba GHASH
// product agrees with the gfbig carry-free reference (mulHClmul) on edge
// cases of H and X and on 10^4 random pairs.
func TestGHASHProductMatchesClmul(t *testing.T) {
	var zero, one, ones, top, low [16]byte
	one[15] = 1
	top[0] = 0x80
	low[15] = 0x80
	for i := range ones {
		ones[i] = 0xFF
	}
	edges := [][16]byte{zero, one, ones, top, low}
	for _, h := range edges {
		for _, x := range edges {
			if err := checkGHASH(&h, &x); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(2))
	var h, x [16]byte
	for trial := 0; trial < 10000; trial++ {
		rng.Read(h[:])
		rng.Read(x[:])
		if err := checkGHASH(&h, &x); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestGCMAllocs: Seal and Open allocate only their output, and CTR into
// a caller buffer allocates nothing.
func TestGCMAllocs(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	g := c.NewGCM()
	nonce := make([]byte, 12)
	pt := make([]byte, 16<<10)
	aad := []byte("hdr")
	sealed, _ := g.Seal(nonce, pt, aad)
	if n := testing.AllocsPerRun(10, func() { g.Seal(nonce, pt, aad) }); n != 1 {
		t.Errorf("Seal of 16 KiB: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { g.Open(nonce, sealed, aad) }); n != 1 {
		t.Errorf("Open of 16 KiB: %v allocs, want 1", n)
	}
	iv := make([]byte, 16)
	dst := make([]byte, len(pt))
	if n := testing.AllocsPerRun(10, func() { c.EncryptCTR(dst, pt, iv) }); n != 0 {
		t.Errorf("EncryptCTR: %v allocs, want 0", n)
	}
}

func benchmarkGCM16K(b *testing.B, open bool) {
	c, _ := NewCipher(make([]byte, 16))
	g := c.NewGCM()
	nonce := make([]byte, 12)
	pt := make([]byte, 16<<10)
	sealed, _ := g.Seal(nonce, pt, nil)
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if open {
			_, err = g.Open(nonce, sealed, nil)
		} else {
			_, err = g.Seal(nonce, pt, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGCMSeal16K(b *testing.B) { benchmarkGCM16K(b, false) }
func BenchmarkGCMOpen16K(b *testing.B) { benchmarkGCM16K(b, true) }

func TestGHASHReflectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, _ := NewCipher(make([]byte, 16))
	g := c.NewGCM()
	for trial := 0; trial < 50; trial++ {
		var x [16]byte
		rng.Read(x[:])
		if !bytes.Equal(g.unreflect(g.reflect(x[:])), x[:]) {
			t.Fatal("reflect/unreflect not inverse")
		}
	}
}
