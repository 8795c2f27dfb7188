package gf

// Static kernel dispatch. Every bulk operation is bound at design time
// to the datapath that measured cheaper for it, the way the paper binds
// each GF routine to the cheaper of the table-lookup route (the M0+
// baseline) and the computed carry-free route (the gf32bMult-style
// paths). The rule, fixed from the measurements in docs/GF.md:
//
//	m <= 8   every op on the table tier (flat order x order products)
//	m >  8   every op on the scalar tier (Field.Mul; no table exists)
//	BitSyndromePlan.Run  the clmul minimal-polynomial fold for words of
//	         at least foldMinBits bits, the field's plain
//	         SyndromeBitSlice below that
//
// The same binary on the same input always takes the same code path.
// Selection precedence per call:
//
//  1. an instance pin (Field.ScalarKernels, the selftest's per-tier
//     views),
//  2. the process-wide forced tier (GFP_KERNEL_TIER, read at start-up),
//  3. the static rule above.
//
// A forced tier that has no implementation of an op for the field (the
// table above m = 8, clmul for every op but the plan fold) runs the
// scalar reference, so output stays bit-exact under any force.

import (
	"fmt"
	"os"
	"sync/atomic"
)

// TierID identifies one kernel implementation tier.
type TierID uint8

const (
	// TierScalar is the pure Field.Mul reference path: the behavioral
	// specification and the fallback for ops a tier does not implement.
	TierScalar TierID = iota
	// TierTable is the flat order x order product table (m <= 8).
	TierTable
	// TierCLMul is the carry-less-multiply minimal-polynomial fold behind
	// BitSyndromePlan.Run: the software analogue of the paper's
	// gf32bMult datapath.
	TierCLMul
	// NumTiers is the number of tiers.
	NumTiers

	// TierAuto means "no pin / no force": use the static rule.
	TierAuto TierID = 0xFF
)

var tierNames = [NumTiers]string{"scalar", "table", "clmul"}

// foldMinBits is the shortest binary word BitSyndromePlan.Run folds
// with the clmul tier; shorter words take the plain SyndromeBitSlice.
// Fixed from the fold-vs-table sweep recorded in docs/GF.md.
const foldMinBits = 64

// String returns the tier's name.
func (t TierID) String() string {
	if t == TierAuto {
		return "auto"
	}
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// TierNames returns the names of all tiers in TierID order.
func TierNames() []string {
	out := make([]string, NumTiers)
	copy(out, tierNames[:])
	return out
}

// ParseTier maps a tier name (or "auto"/"") to a TierID.
func ParseTier(name string) (TierID, error) {
	if name == "" || name == "auto" {
		return TierAuto, nil
	}
	for i, n := range tierNames {
		if n == name {
			return TierID(i), nil
		}
	}
	return TierAuto, fmt.Errorf("gf: unknown kernel tier %q (want auto|scalar|table|clmul)", name)
}

// forcedTier is the process-wide tier override, stored as int32(TierID).
var forcedTier atomic.Int32

func init() {
	forcedTier.Store(int32(TierAuto))
	if v := os.Getenv("GFP_KERNEL_TIER"); v != "" {
		t, err := ParseTier(v)
		if err != nil {
			panic(fmt.Sprintf("gf: GFP_KERNEL_TIER: %v", err))
		}
		forcedTier.Store(int32(t))
	}
}

// ForceKernelTier forces every auto-dispatched kernel call process-wide
// onto the given tier; ForceKernelTier(TierAuto) restores the static
// rule. Processes set the force through the GFP_KERNEL_TIER environment
// variable; tests and the per-tier benchmarks use this entry point.
// Safe for concurrent use.
func ForceKernelTier(t TierID) { forcedTier.Store(int32(t)) }

// ForcedKernelTier returns the current process-wide override, or
// TierAuto when the static rule is in force.
func ForcedKernelTier() TierID { return TierID(forcedTier.Load()) }
