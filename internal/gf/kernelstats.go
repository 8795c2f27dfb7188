package gf

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kernel-tier accounting: every exported bulk operation records one hit
// against the tier that actually served it — the software analogue of
// counting which hardware datapath a GF instruction was issued to. The
// counters are process-wide so a metrics registry can report how much
// of the workload ran on each tier without threading a registry into
// every codec. Alongside the counters, the static per-(field, op) tier
// rule is published for the observability plane.

var tierCalls [NumTiers]atomic.Int64

// hit records one bulk-kernel invocation served by tier t.
func (k *Kernels) hit(t TierID) { tierCalls[t].Add(1) }

// Tier names the tier that serves this view's bulk ops under the static
// rule: "table" for m <= 8, "scalar" above and on a pinned-scalar view.
func (k *Kernels) Tier() string {
	if k.mul != nil {
		return TierTable.String()
	}
	return TierScalar.String()
}

// KernelCalls returns the process-wide cumulative number of bulk-kernel
// invocations served by each tier, indexed by TierID (see TierNames).
func KernelCalls() [NumTiers]int64 {
	var out [NumTiers]int64
	for i := range out {
		out[i] = tierCalls[i].Load()
	}
	return out
}

// TierSelection is one row of the static dispatch rule: for (Field, Op),
// lengths below Crossover are served by tier Below, lengths at or above
// it by Above (Crossover 0 means Below == Above serves everything).
type TierSelection struct {
	Field     string `json:"field"`
	Op        string `json:"op"`
	Below     string `json:"below"`
	Above     string `json:"above"`
	Crossover int    `json:"crossover"`
}

// opNames lists the dispatched ops in Selections. "syndromebitfold" is
// BitSyndromePlan.Run, the only op whose tier depends on the length.
var opNames = [...]string{
	"mulconst", "mulconstadd", "dot", "horner",
	"eval", "syndrome", "hornerbit", "syndromebit", "syndromebitfold",
}

var (
	selMu     sync.Mutex
	selShapes = map[uint64]bool{}
	selRows   []TierSelection
)

// publishSelections records the static rule for f's shape the first
// time any Field of that shape builds its kernels. The rows describe
// auto mode; a GFP_KERNEL_TIER force is reported separately.
func publishSelections(f *Field) {
	key := uint64(f.m)<<32 | uint64(f.poly)
	selMu.Lock()
	defer selMu.Unlock()
	if selShapes[key] {
		return
	}
	selShapes[key] = true
	plain := TierScalar.String()
	if f.m <= tableMaxM {
		plain = TierTable.String()
	}
	for _, op := range opNames {
		r := TierSelection{Field: f.String(), Op: op, Below: plain, Above: plain}
		if op == "syndromebitfold" {
			r.Above, r.Crossover = TierCLMul.String(), foldMinBits
		}
		selRows = append(selRows, r)
	}
}

// Selections returns the static dispatch rows of every field shape that
// has built its kernels in this process, sorted by field then op.
func Selections() []TierSelection {
	selMu.Lock()
	out := append([]TierSelection(nil), selRows...)
	selMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Field != out[j].Field {
			return out[i].Field < out[j].Field
		}
		return out[i].Op < out[j].Op
	})
	return out
}
