package gf

import (
	"fmt"
	"strings"
	"testing"
)

// TestVerifyKernelsAllTiers is the exhaustive differential gate of the
// tier registry: for EVERY irreducible polynomial of degree 2..8 (all
// field shapes the codec layer can construct) plus the default
// degree-16 field, every registered tier must agree with the scalar
// reference on every bulk op, the bit-syndrome plans included.
func TestVerifyKernelsAllTiers(t *testing.T) {
	for m := 2; m <= 8; m++ {
		for _, p := range IrreduciblePolys(m) {
			f := MustNew(m, p)
			if err := VerifyKernels(f, 2, int64(p)); err != nil {
				t.Errorf("m=%d poly=%#x: %v", m, p, err)
			}
		}
	}
	f16, err := NewDefault(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKernels(f16, 2, 16); err != nil {
		t.Errorf("m=16: %v", err)
	}
}

// TestVerifyKernelsDefaultFields covers the default polynomial of every
// supported degree, including the 8 < m < 16 shapes the all-irreducible
// sweep skips.
func TestVerifyKernelsDefaultFields(t *testing.T) {
	for m := 1; m <= 16; m++ {
		f, err := NewDefault(m)
		if err != nil {
			t.Fatalf("NewDefault(%d): %v", m, err)
		}
		if err := VerifyKernels(f, 2, int64(m)); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

func TestParseTier(t *testing.T) {
	for id := TierID(0); id < NumTiers; id++ {
		got, err := ParseTier(id.String())
		if err != nil || got != id {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", id.String(), got, err, id)
		}
	}
	for _, name := range []string{"", "auto"} {
		if got, err := ParseTier(name); err != nil || got != TierAuto {
			t.Errorf("ParseTier(%q) = %v, %v; want TierAuto", name, got, err)
		}
	}
	for _, name := range []string{"simd", "packed", "bitsliced"} {
		_, err := ParseTier(name)
		if err == nil || !strings.Contains(err.Error(), "auto|scalar|table|clmul") {
			t.Errorf("ParseTier(%s): error %v, want one listing auto|scalar|table|clmul", name, err)
		}
	}
}

func TestAvailableTiers(t *testing.T) {
	cases := []struct {
		m    int
		want []string
	}{
		{4, []string{"scalar", "table", "clmul"}},
		{8, []string{"scalar", "table", "clmul"}},
		{12, []string{"scalar", "clmul"}},
		{16, []string{"scalar", "clmul"}},
	}
	for _, tc := range cases {
		got := MustDefault(tc.m).Kernels().AvailableTiers()
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("m=%d: AvailableTiers() = %v, want %v", tc.m, got, tc.want)
		}
	}
}

// TestForcedTierRouting checks which tier each call is charged to —
// under the static rule, under every process-wide force and on a pinned
// view — and that outputs stay bit-exact with the scalar reference
// everywhere. BitSyndromePlan.Run is probed on both sides of
// foldMinBits.
func TestForcedTierRouting(t *testing.T) {
	defer ForceKernelTier(ForcedKernelTier())
	f8, f16 := MustDefault(8), MustDefault(16)
	const (
		mulConst = "MulConstSlice"
		planLong = "Plan.Run n=foldMinBits"
		planShrt = "Plan.Run n=foldMinBits-1"
	)
	cases := []struct {
		f      *Field
		scalar bool // drive the pinned-scalar view
		force  TierID
		op     string
		want   TierID
	}{
		{f8, false, TierAuto, mulConst, TierTable},
		{f8, false, TierAuto, planLong, TierCLMul},
		{f8, false, TierAuto, planShrt, TierTable},
		{f16, false, TierAuto, mulConst, TierScalar},
		{f16, false, TierAuto, planLong, TierCLMul},
		{f16, false, TierAuto, planShrt, TierScalar},

		{f8, false, TierScalar, mulConst, TierScalar},
		{f8, false, TierScalar, planLong, TierScalar},
		{f8, false, TierTable, mulConst, TierTable},
		{f8, false, TierTable, planLong, TierTable},
		{f16, false, TierTable, mulConst, TierScalar},
		{f8, false, TierCLMul, mulConst, TierScalar},
		{f8, false, TierCLMul, planShrt, TierCLMul},

		// A pin outranks the force: scalar views stay scalar.
		{f8, true, TierTable, mulConst, TierScalar},
		{f8, true, TierCLMul, planLong, TierScalar},
		{f8, true, TierAuto, planLong, TierScalar},
	}
	for _, tc := range cases {
		ForceKernelTier(tc.force)
		k, ref := tc.f.Kernels(), tc.f.ScalarKernels()
		if tc.scalar {
			k = ref
		}
		var got, want []Elem
		before := KernelCalls()
		switch tc.op {
		case mulConst:
			src := make([]Elem, 255)
			for i := range src {
				src[i] = Elem(i + 1)
			}
			got, want = make([]Elem, len(src)), make([]Elem, len(src))
			k.MulConstSlice(got, src, 0x57)
			after := KernelCalls()
			ref.MulConstSlice(want, src, 0x57)
			checkCharged(t, tc.f, tc.force, tc.op, before, after, tc.want)
		default:
			n := foldMinBits
			if tc.op == planShrt {
				n--
			}
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte(i*7/3) & 1
			}
			xs := []Elem{tc.f.Exp(1), tc.f.Exp(3), tc.f.Exp(5), tc.f.Exp(7), tc.f.Exp(9)}
			plan := k.NewBitSyndromePlan(xs)
			got, want = make([]Elem, len(xs)), make([]Elem, len(xs))
			before = KernelCalls()
			plan.Run(got, bits)
			after := KernelCalls()
			ref.SyndromeBitSlice(want, bits, xs)
			checkCharged(t, tc.f, tc.force, tc.op, before, after, tc.want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v force=%v %s: [%d] = %d, scalar reference %d", tc.f, tc.force, tc.op, i, got[i], want[i])
			}
		}
	}
}

// checkCharged asserts that exactly one call was charged, to want.
func checkCharged(t *testing.T, f *Field, force TierID, op string, before, after [NumTiers]int64, want TierID) {
	t.Helper()
	for id := TierID(0); id < NumTiers; id++ {
		d := after[id] - before[id]
		if id == want && d < 1 || id != want && d != 0 {
			t.Errorf("%v force=%v %s: %v charged %d calls, want the call on %v", f, force, op, id, d, want)
		}
	}
}

// TestTierSelectionShape checks that the published rows tell the truth:
// for every field shape and length, the tier the dispatcher resolves on
// the auto view is the one its Selections row names.
func TestTierSelectionShape(t *testing.T) {
	defer ForceKernelTier(ForcedKernelTier())
	ForceKernelTier(TierAuto)
	for _, m := range []int{1, 4, 8, 12, 16} {
		f := MustDefault(m)
		k := f.Kernels()
		rows := 0
		for _, r := range Selections() {
			if r.Field != f.String() {
				continue
			}
			rows++
			for _, n := range []int{1, foldMinBits - 1, foldMinBits, 4096} {
				want := r.Below
				if r.Crossover > 0 && n >= r.Crossover {
					want = r.Above
				}
				got := k.plainTier()
				if r.Op == "syndromebitfold" && k.folds(n) {
					got = TierCLMul
				}
				if got.String() != want {
					t.Errorf("%v op %s n=%d: dispatch resolves %v, Selections says %s", f, r.Op, n, got, want)
				}
			}
		}
		if rows != len(opNames) {
			t.Errorf("%v: %d selection rows, want %d", f, rows, len(opNames))
		}
	}
}
