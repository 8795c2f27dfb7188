package gf

import (
	"fmt"
	"math/rand"
	"testing"
)

// clmul32 is the carry-less product of two 32-bit polynomials through
// the hole-masked integer multiply.
func clmul32(a, b uint32) uint64 {
	return clmulG(uint64(a), clmulGroups(uint64(b)))
}

func TestClmul32AgainstCarrylessMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		if got, want := clmul32(a, b), CarrylessMul(a, b); got != want {
			t.Fatalf("clmul32(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestClmulGMatchesClmul32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		if got, want := clmulG(uint64(a), clmulGroups(uint64(b))), CarrylessMul(a, b); got != want {
			t.Fatalf("clmulG(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

// TestBarrettReduce checks the two-clmul Barrett division against the
// long-division reference for divisors of every degree 1..16.
func TestBarrettReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for d := 1; d <= 16; d++ {
		for k := 0; k < 25; k++ {
			p := uint64(1)<<uint(d) | uint64(rng.Intn(1<<uint(d)))
			bc := newBarrettConsts(p)
			for i := 0; i < 2000; i++ {
				v := uint64(rng.Uint32())
				if got, want := bc.reduce(v), ReducePoly(v, p); got != want {
					t.Fatalf("d=%d p=%#x: reduce(%#x) = %#x, want %#x", d, p, v, got, want)
				}
			}
		}
	}
}

func TestPolyDivGF2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		p := uint64(rng.Intn(1<<16)) | 1<<uint(1+rng.Intn(16))
		v := uint64(rng.Uint32())
		q := polyDivGF2(v, p)
		// v = q*p + r with deg(r) < deg(p)
		r := v ^ clmul32(uint32(q), uint32(p))
		if want := ReducePoly(v, p); r != want {
			t.Fatalf("polyDivGF2(%#x, %#x) = %#x: remainder %#x, want %#x", v, p, q, r, want)
		}
	}
}

// TestBitSyndromePlanFold checks the minimal-polynomial fold against
// the scalar Horner for every odd power of alpha (the BCH root layout)
// across word lengths that exercise the partial lead chunk, on the
// default m=1, 3, 8 and 16 fields and the non-primitive AES field.
func TestBitSyndromePlanFold(t *testing.T) {
	fields := []*Field{}
	for _, m := range []int{1, 3, 8, 16} {
		f, err := NewDefault(m)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	fields = append(fields, MustNew(8, 0x11B)) // AES: generator != x

	rng := rand.New(rand.NewSource(6))
	for _, f := range fields {
		xs := make([]Elem, 16)
		for i := range xs {
			xs[i] = f.Exp(2*i + 1)
		}
		xs[15] = 0 // degenerate point: minpoly x, syndrome = last bit
		bp := f.Kernels().NewBitSyndromePlan(xs)
		ref := f.ScalarKernels()
		for _, n := range []int{1, 2, 31, 32, 33, 63, 64, 255, 1023} {
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			got, want := make([]Elem, len(xs)), make([]Elem, len(xs))
			bp.fold(got, bits)
			ref.SyndromeBitSlice(want, bits, xs)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v n=%d point %d (x=%d): fold %d, scalar %d", f, n, j, xs[j], got[j], want[j])
				}
			}
		}
	}
}

// TestBitSyndromePlanConcurrent exercises the plan's scratch pool under
// concurrent Run calls (the pipeline decodes frames in parallel).
func TestBitSyndromePlanConcurrent(t *testing.T) {
	f, err := NewDefault(8)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]Elem, 16)
	for i := range xs {
		xs[i] = f.Exp(2*i + 1)
	}
	bp := f.Kernels().forTier(TierCLMul).NewBitSyndromePlan(xs)
	ref := f.ScalarKernels()
	bits := make([]byte, 255)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	want := make([]Elem, len(xs))
	ref.SyndromeBitSlice(want, bits, xs)

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			got := make([]Elem, len(xs))
			for it := 0; it < 200; it++ {
				bp.Run(got, bits)
				for j := range got {
					if got[j] != want[j] {
						done <- fmt.Errorf("concurrent plan mismatch at point %d: %d want %d", j, got[j], want[j])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkBitSyndromeFoldSweep prices the clmul fold against the plain
// SyndromeBitSlice (table at m = 8, scalar at m = 16) over 16 odd-power
// points at the word lengths foldMinBits was fixed from.
func BenchmarkBitSyndromeFoldSweep(b *testing.B) {
	for _, m := range []int{8, 16} {
		f := MustDefault(m)
		xs := make([]Elem, 16)
		for i := range xs {
			xs[i] = f.Exp(2*i + 1)
		}
		k := f.Kernels()
		bp := k.NewBitSyndromePlan(xs)
		dst := make([]Elem, len(xs))
		rng := rand.New(rand.NewSource(1))
		for _, n := range []int{16, 32, 64, 128, 255} {
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			b.Run(fmt.Sprintf("m=%d/n=%d/fold", m, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bp.fold(dst, bits)
				}
			})
			b.Run(fmt.Sprintf("m=%d/n=%d/%s", m, n, k.Tier()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.SyndromeBitSlice(dst, bits, xs)
				}
			})
		}
	}
}
