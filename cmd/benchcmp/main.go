// Command benchcmp compares two benchmark ledgers written by
// scripts/bench.sh (BENCH_*.json). For every row present in both it
// prints the old and new median ns/op and the relative delta, and flags
// the row slower or faster only when the two ns_op_min..ns_op_max
// ranges do not overlap; overlapping ranges are run-to-run noise.
// Older ledgers that record a single ns_op per row (a bare JSON list,
// or a "benchmarks" list without min/max) count as min = max = ns_op.
//
// Usage:
//
//	benchcmp old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// row is one benchmark of a ledger.
type row struct {
	Name  string  `json:"name"`
	NsOp  float64 `json:"ns_op"`
	NsMin float64 `json:"ns_op_min"`
	NsMax float64 `json:"ns_op_max"`
}

// span returns the row's min..max ns/op, falling back to the median
// for single-run ledgers, which carry no (zero) min and max.
func (r row) span() (lo, hi float64) {
	lo, hi = r.NsOp, r.NsOp
	if r.NsMin > 0 {
		lo = r.NsMin
	}
	if r.NsMax > 0 {
		hi = r.NsMax
	}
	return lo, hi
}

// verdict classifies cur against old: "slower" or "faster" when the
// ranges are disjoint, "" when they overlap.
func verdict(old, cur row) string {
	oLo, oHi := old.span()
	nLo, nHi := cur.span()
	switch {
	case nLo > oHi:
		return "slower"
	case nHi < oLo:
		return "faster"
	}
	return ""
}

// parse reads a ledger: either {"benchmarks": [...]} or a bare list.
func parse(data []byte) ([]row, error) {
	var doc struct {
		Benchmarks []row `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err == nil {
		return doc.Benchmarks, nil
	}
	var rows []row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, err
	}
	return rows, nil
}

func load(path string) ([]row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// compare writes the table of rows shared by old and cur, in cur's
// order.
func compare(w io.Writer, old, cur []row) {
	byName := make(map[string]row, len(old))
	for _, r := range old {
		byName[r.Name] = r
	}
	width := len("benchmark")
	for _, n := range cur {
		width = max(width, len(n.Name))
	}
	fmt.Fprintf(w, "%-*s %12s %12s %8s\n", width, "benchmark", "old ns/op", "new ns/op", "delta")
	for _, n := range cur {
		o, ok := byName[n.Name]
		if !ok {
			continue
		}
		delta := "n/a"
		if o.NsOp != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(n.NsOp-o.NsOp)/o.NsOp)
		}
		line := fmt.Sprintf("%-*s %12s %12s %8s  %s", width, n.Name, fmtNs(o.NsOp), fmtNs(n.NsOp), delta, verdict(o, n))
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

func fmtNs(v float64) string {
	if v >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func run(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: benchcmp old.json new.json")
	}
	old, err := load(args[0])
	if err != nil {
		return err
	}
	cur, err := load(args[1])
	if err != nil {
		return err
	}
	compare(stdout, old, cur)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(1)
	}
}
