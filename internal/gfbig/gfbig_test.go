package gfbig

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func allFields() []*Field {
	return []*Field{F163(), F233(), F283(), F409(), F571()}
}

func randElem(rng *rand.Rand, f *Field) Elem {
	e := f.Zero()
	for i := range e {
		e[i] = rng.Uint32()
	}
	// normalize: clear bits >= m
	top := f.M() % WordBits
	if top != 0 {
		e[len(e)-1] &= 1<<top - 1
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 0); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := New(233); err == nil {
		t.Error("no low terms accepted")
	}
	if _, err := New(233, 74); err == nil {
		t.Error("missing constant term accepted")
	}
	if _, err := New(233, 74, 74, 0); err == nil {
		t.Error("non-descending exponents accepted")
	}
	if _, err := New(233, 233, 0); err == nil {
		t.Error("exponent >= m accepted")
	}
}

func TestFieldParameters(t *testing.T) {
	f := F233()
	if f.M() != 233 || f.Words() != 8 {
		t.Fatalf("K-233 field: m=%d words=%d", f.M(), f.Words())
	}
	exps := f.Exponents()
	if len(exps) != 2 || exps[0] != 74 || exps[1] != 1-1 {
		t.Fatalf("exponents = %v", exps)
	}
}

func TestClmul32(t *testing.T) {
	if Clmul32(0b101, 0b11) != 0b1111 {
		t.Fatal("(x^2+1)(x+1) wrong")
	}
	if Clmul32(0xFFFFFFFF, 0xFFFFFFFF) != 0x55555555_55555555 {
		t.Fatalf("all-ones clmul = %#x", Clmul32(0xFFFFFFFF, 0xFFFFFFFF))
	}
	prop := func(a, b uint32) bool { return Clmul32(a, b) == Clmul32(b, a) }
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// clmul64Ref is the 128-bit carry-free product of x and y built from
// four Clmul32 partial products.
func clmul64Ref(x, y uint64) (hi, lo uint64) {
	x0, x1 := uint32(x), uint32(x>>32)
	y0, y1 := uint32(y), uint32(y>>32)
	mid := Clmul32(x0, y1) ^ Clmul32(x1, y0)
	lo = Clmul32(x0, y0) ^ mid<<32
	hi = Clmul32(x1, y1) ^ mid>>32
	return hi, lo
}

// TestClmul64LoMatchesClmul32: the constant-time 64-bit product and its
// bit-reversed high half agree with the Clmul32 composition on edge
// cases and random pairs.
func TestClmul64LoMatchesClmul32(t *testing.T) {
	edges := []uint64{0, 1, 2, 1 << 63, ^uint64(0), 0x8888888888888888, 0x1111111111111111, 0xDEADBEEFCAFEF00D}
	check := func(x, y uint64) {
		t.Helper()
		wantHi, wantLo := clmul64Ref(x, y)
		if got := Clmul64Lo(x, y); got != wantLo {
			t.Fatalf("Clmul64Lo(%#x, %#x) = %#x, want %#x", x, y, got, wantLo)
		}
		hi := bits.Reverse64(Clmul64Lo(bits.Reverse64(x), bits.Reverse64(y))) >> 1
		if hi != wantHi {
			t.Fatalf("reversed high half of %#x*%#x = %#x, want %#x", x, y, hi, wantHi)
		}
	}
	for _, x := range edges {
		for _, y := range edges {
			check(x, y)
		}
	}
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 10000; i++ {
		check(rng.Uint64(), rng.Uint64())
	}
}

func TestMulSmallAgainstKnownField(t *testing.T) {
	// GF(2^8) with the AES polynomial, expressed as a gfbig field, must
	// reproduce known AES-field products.
	f := MustNew(8, 4, 3, 1, 0)
	a := f.FromUint64(0x53)
	b := f.FromUint64(0xCA)
	if p := f.Mul(a, b); p[0] != 0x01 {
		t.Fatalf("0x53*0xCA = %#x, want 1", p[0])
	}
	if p := f.Mul(f.FromUint64(0x57), f.FromUint64(0x83)); p[0] != 0xC1 {
		t.Fatalf("0x57*0x83 = %#x, want 0xC1", p[0])
	}
}

func TestMulFieldAxioms(t *testing.T) {
	for _, f := range allFields() {
		rng := rand.New(rand.NewSource(int64(f.M())))
		one := f.One()
		for trial := 0; trial < 25; trial++ {
			a := randElem(rng, f)
			b := randElem(rng, f)
			c := randElem(rng, f)
			if !f.Equal(f.Mul(a, one), a) {
				t.Fatalf("%v: a*1 != a", f)
			}
			if !f.Equal(f.Mul(a, b), f.Mul(b, a)) {
				t.Fatalf("%v: commutativity", f)
			}
			if !f.Equal(f.Mul(a, f.Mul(b, c)), f.Mul(f.Mul(a, b), c)) {
				t.Fatalf("%v: associativity", f)
			}
			if !f.Equal(f.Mul(a, f.Add(b, c)), f.Add(f.Mul(a, b), f.Mul(a, c))) {
				t.Fatalf("%v: distributivity", f)
			}
		}
	}
}

func TestSqrMatchesMul(t *testing.T) {
	for _, f := range allFields() {
		rng := rand.New(rand.NewSource(int64(f.M()) + 1))
		for trial := 0; trial < 50; trial++ {
			a := randElem(rng, f)
			if !f.Equal(f.Sqr(a), f.Mul(a, a)) {
				t.Fatalf("%v: sqr != mul(a,a)", f)
			}
		}
	}
}

func TestFrobeniusLinearity(t *testing.T) {
	f := F233()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := randElem(rng, f)
		b := randElem(rng, f)
		if !f.Equal(f.Sqr(f.Add(a, b)), f.Add(f.Sqr(a), f.Sqr(b))) {
			t.Fatal("(a+b)^2 != a^2+b^2")
		}
	}
}

func TestKaratsubaMatchesSchoolbook(t *testing.T) {
	for _, f := range allFields() {
		rng := rand.New(rand.NewSource(int64(f.M()) + 2))
		for trial := 0; trial < 30; trial++ {
			a := randElem(rng, f)
			b := randElem(rng, f)
			want := f.MulFull(a, b)
			for levels := 1; levels <= 3; levels++ {
				got := f.MulFullKaratsuba(a, b, levels)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v: karatsuba(%d levels) differs at word %d", f, levels, i)
					}
				}
			}
			if !f.Equal(f.MulKaratsuba(a, b), f.Mul(a, b)) {
				t.Fatalf("%v: MulKaratsuba reduced product differs", f)
			}
		}
	}
}

func TestClmul32Count(t *testing.T) {
	// 8 words: schoolbook 64, 1-level 48, 2-level 36 partial products.
	if Clmul32Count(8, 0) != 64 {
		t.Errorf("schoolbook count = %d", Clmul32Count(8, 0))
	}
	if Clmul32Count(8, 1) != 48 {
		t.Errorf("1-level count = %d", Clmul32Count(8, 1))
	}
	if Clmul32Count(8, 2) != 36 {
		t.Errorf("2-level count = %d", Clmul32Count(8, 2))
	}
}

func TestInverse(t *testing.T) {
	for _, f := range allFields() {
		rng := rand.New(rand.NewSource(int64(f.M()) + 3))
		one := f.One()
		for trial := 0; trial < 10; trial++ {
			a := randElem(rng, f)
			if f.IsZero(a) {
				continue
			}
			inv := f.Inv(a)
			if !f.Equal(f.Mul(a, inv), one) {
				t.Fatalf("%v: a * a^-1 != 1", f)
			}
			if !f.Equal(f.InvEuclid(a), inv) {
				t.Fatalf("%v: Euclid inverse != ITA inverse", f)
			}
		}
	}
}

func TestInvOpsCounts(t *testing.T) {
	// ITA on GF(2^233): m-1 = 232 squarings total and 10 multiplications
	// (binary chain on 232 = 0b11101000: 7 doublings + 3 add-ones).
	f := F233()
	a := f.FromUint64(0xDEADBEEF)
	_, tr := f.InvOps(a)
	if tr.Squares != 232 {
		t.Errorf("squares = %d, want 232", tr.Squares)
	}
	if tr.Muls != 10 {
		t.Errorf("muls = %d, want 10", tr.Muls)
	}
}

func TestInverseOfZeroPanics(t *testing.T) {
	f := F233()
	for name, fn := range map[string]func(){
		"Inv":       func() { f.Inv(f.Zero()) },
		"InvEuclid": func() { f.InvEuclid(f.Zero()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(0) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFermatIdentity(t *testing.T) {
	// a^(2^m) == a: square m times.
	for _, f := range []*Field{F163(), F233()} {
		rng := rand.New(rand.NewSource(int64(f.M()) + 4))
		a := randElem(rng, f)
		x := f.Copy(a)
		for i := 0; i < f.M(); i++ {
			x = f.Sqr(x)
		}
		if !f.Equal(x, a) {
			t.Fatalf("%v: a^(2^m) != a", f)
		}
	}
}

func TestPow(t *testing.T) {
	f := F233()
	rng := rand.New(rand.NewSource(11))
	a := randElem(rng, f)
	// a^5 == a*a*a*a*a
	want := f.Mul(f.Mul(f.Mul(f.Mul(a, a), a), a), a)
	if !f.Equal(f.Pow(a, 5), want) {
		t.Fatal("Pow(a,5) wrong")
	}
	if !f.Equal(f.Pow(a, 0), f.One()) {
		t.Fatal("Pow(a,0) != 1")
	}
}

func TestDivAndDegree(t *testing.T) {
	f := F233()
	rng := rand.New(rand.NewSource(12))
	a := randElem(rng, f)
	b := randElem(rng, f)
	if f.IsZero(b) {
		t.Skip("zero b")
	}
	q := f.Div(a, b)
	if !f.Equal(f.Mul(q, b), a) {
		t.Fatal("Div broken")
	}
	if Degree([]uint32{0, 0}) != -1 {
		t.Error("Degree(0) != -1")
	}
	if Degree([]uint32{0, 8}) != 35 {
		t.Errorf("Degree = %d, want 35", Degree([]uint32{0, 8}))
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, f := range allFields() {
		rng := rand.New(rand.NewSource(int64(f.M()) + 5))
		for trial := 0; trial < 20; trial++ {
			a := randElem(rng, f)
			b := f.Bytes(a)
			if len(b) != (f.M()+7)/8 {
				t.Fatalf("%v: bytes length %d", f, len(b))
			}
			back, err := f.SetBytes(b)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Equal(back, a) {
				t.Fatalf("%v: bytes round trip", f)
			}
		}
	}
}

func TestSetBytesRejectsOversized(t *testing.T) {
	f := F233()
	b := make([]byte, 30)
	b[0] = 0xFF // degree 239 > 232
	if _, err := f.SetBytes(b); err == nil {
		t.Error("oversized value accepted")
	}
}

func TestHexRoundTrip(t *testing.T) {
	f := F233()
	rng := rand.New(rand.NewSource(13))
	a := randElem(rng, f)
	h := f.Hex(a)
	back, err := f.SetHex(h)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(back, a) {
		t.Fatal("hex round trip")
	}
	if _, err := f.SetHex("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	// Odd-length hex gets a leading zero.
	if _, err := f.SetHex("f"); err != nil {
		t.Errorf("odd hex rejected: %v", err)
	}
}

func TestBitAndFromUint64(t *testing.T) {
	f := F233()
	a := f.FromUint64(1 << 40)
	if f.Bit(a, 40) != 1 || f.Bit(a, 39) != 0 {
		t.Fatal("Bit() wrong")
	}
	if f.Bit(a, -1) != 0 || f.Bit(a, 10000) != 0 {
		t.Fatal("out-of-range Bit() not zero")
	}
}

func TestReduceIdempotentOnSmallValues(t *testing.T) {
	f := F233()
	a := f.FromUint64(12345)
	full := make([]uint32, 2*f.Words())
	copy(full, a)
	if !f.Equal(f.Reduce(full), a) {
		t.Fatal("Reduce changed an already-reduced value")
	}
}

func TestStringer(t *testing.T) {
	if F233().String() != "GF(2^233)" {
		t.Errorf("F233 name = %q", F233().String())
	}
	f := MustNew(9, 1, 0)
	if f.String() != "GF(2)[x^9+x+1]" {
		t.Errorf("generic name = %q", f.String())
	}
}
