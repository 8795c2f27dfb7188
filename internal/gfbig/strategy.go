package gfbig

// Full-product strategies for the wide-word fields. Every full
// multiplication is served by one of two interchangeable strategies,
// chosen by a static rule: the paper's two-level Karatsuba (§3.3.4)
// unless the scalar kernel tier is forced (GFP_KERNEL_TIER=scalar),
// which pins the definitional schoolbook product.

import "repro/internal/gf"

// Strategy identifies one full-product implementation.
type Strategy uint8

const (
	// StratSchoolbook is the definitional Words^2 32x32 path (MulFull).
	StratSchoolbook Strategy = iota
	// StratKaratsuba is the paper's two-level Karatsuba decomposition.
	StratKaratsuba
	// NumStrategies is the number of strategies.
	NumStrategies
)

var strategyNames = [NumStrategies]string{"schoolbook", "karatsuba"}

// String returns the strategy's name.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return "strategy(?)"
}

// StrategyNames returns the names of all full-product strategies in
// Strategy order.
func StrategyNames() []string { return append([]string(nil), strategyNames[:]...) }

// karatsubaLevels is the recursion depth used by the auto and scratch
// paths: two levels (8 words -> 4 -> 2 for GF(2^233)), matching the
// paper's decomposition.
const karatsubaLevels = 2

// MulStrategy returns the full-product strategy Mul and the To-variants
// use for this field: schoolbook under a forced scalar kernel tier,
// karatsuba otherwise.
func (f *Field) MulStrategy() Strategy {
	if gf.ForcedKernelTier() == gf.TierScalar {
		return StratSchoolbook
	}
	return StratKaratsuba
}

// mulFullAuto is the strategy dispatch behind Mul.
func (f *Field) mulFullAuto(a, b Elem) []uint32 {
	if f.MulStrategy() == StratKaratsuba {
		return f.MulFullKaratsuba(a, b, karatsubaLevels)
	}
	return f.MulFull(a, b)
}
