package gf

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"testing"
)

func TestKernelTierNames(t *testing.T) {
	cases := []struct {
		m    int
		want string
	}{
		{4, "table"},
		{8, "table"},
		{13, "scalar"},
	}
	for _, tc := range cases {
		f, err := NewDefault(tc.m)
		if err != nil {
			t.Fatalf("NewDefault(%d): %v", tc.m, err)
		}
		if got := f.Kernels().Tier(); got != tc.want {
			t.Errorf("m=%d: Tier() = %q, want %q", tc.m, got, tc.want)
		}
		if got := f.ScalarKernels().Tier(); got != "scalar" {
			t.Errorf("m=%d: ScalarKernels().Tier() = %q, want scalar", tc.m, got)
		}
	}
}

func TestKernelCallsCount(t *testing.T) {
	f, err := NewDefault(8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Elem, 32)

	// Force the table tier so accounting is the same in every CI leg.
	defer ForceKernelTier(ForcedKernelTier())
	ForceKernelTier(TierTable)
	k := f.Kernels()
	before := KernelCalls()
	k.AddSlice(buf, buf, buf)
	k.MulConstSlice(buf, buf, 3)
	_ = k.HornerSlice(buf, 2)
	after := KernelCalls()
	if grew := after[TierTable] - before[TierTable]; grew < 3 {
		t.Errorf("table tier calls grew by %d, want >= 3", grew)
	}

	// A pinned-scalar view overrides the process-wide force.
	before = KernelCalls()
	f.ScalarKernels().MulConstSlice(buf, buf, 3)
	after = KernelCalls()
	if grew := after[TierScalar] - before[TierScalar]; grew < 1 {
		t.Errorf("scalar tier calls grew by %d, want >= 1", grew)
	}
}

// selectionsChildEnv makes a re-executed test binary print its
// Selections for the fields of TestSelectionsPublished and exit.
const selectionsChildEnv = "GF_SELECTIONS_CHILD"

// TestSelectionsPublished checks that Selections() for GF(2^4), GF(2^8)
// and GF(2^16) equals the static table documented in docs/GF.md, and
// that three fresh processes of this test binary publish the same table.
func TestSelectionsPublished(t *testing.T) {
	// In Selections order: sorted by field name, then op.
	fields := []*Field{MustDefault(16), MustDefault(4), MustDefault(8)}
	for _, f := range fields {
		f.Kernels()
	}
	rows := selectionsOf(fields)
	if os.Getenv(selectionsChildEnv) != "" {
		if err := json.NewEncoder(os.Stdout).Encode(rows); err != nil {
			t.Fatal(err)
		}
		return
	}

	var want []TierSelection
	for _, f := range fields {
		plain := "table"
		if f.M() > 8 {
			plain = "scalar"
		}
		for _, op := range []string{"dot", "eval", "horner", "hornerbit", "mulconst", "mulconstadd", "syndrome", "syndromebit"} {
			want = append(want, TierSelection{Field: f.String(), Op: op, Below: plain, Above: plain})
		}
		want = append(want, TierSelection{Field: f.String(), Op: "syndromebitfold", Below: plain, Above: "clmul", Crossover: foldMinBits})
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("Selections() =\n%+v\nwant the static table\n%+v", rows, want)
	}

	for i := 0; i < 3; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSelectionsPublished$", "-test.count=1")
		cmd.Env = append(os.Environ(), selectionsChildEnv+"=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("child %d: %v", i, err)
		}
		var got []TierSelection
		if err := json.NewDecoder(bytes.NewReader(out)).Decode(&got); err != nil {
			t.Fatalf("child %d: decoding %q: %v", i, out, err)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("child %d published\n%+v\nthis process\n%+v", i, got, rows)
		}
	}
}

// selectionsOf filters Selections() to the given fields.
func selectionsOf(fields []*Field) []TierSelection {
	keep := map[string]bool{}
	for _, f := range fields {
		keep[f.String()] = true
	}
	var out []TierSelection
	for _, r := range Selections() {
		if keep[r.Field] {
			out = append(out, r)
		}
	}
	return out
}
