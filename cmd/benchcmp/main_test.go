package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new row
		want     string
	}{
		{"overlap", row{NsOp: 100, NsMin: 90, NsMax: 110}, row{NsOp: 105, NsMin: 100, NsMax: 120}, ""},
		{"touching ranges overlap", row{NsOp: 100, NsMin: 90, NsMax: 110}, row{NsOp: 115, NsMin: 110, NsMax: 120}, ""},
		{"disjoint above", row{NsOp: 100, NsMin: 90, NsMax: 110}, row{NsOp: 130, NsMin: 111, NsMax: 140}, "slower"},
		{"disjoint below", row{NsOp: 100, NsMin: 90, NsMax: 110}, row{NsOp: 80, NsMin: 70, NsMax: 89}, "faster"},
		{"median moved inside old range", row{NsOp: 100, NsMin: 50, NsMax: 200}, row{NsOp: 190, NsMin: 180, NsMax: 199}, ""},
		{"single-run old is min = max", row{NsOp: 100}, row{NsOp: 101, NsMin: 100.5, NsMax: 102}, "slower"},
		{"single-run both equal", row{NsOp: 100}, row{NsOp: 100}, ""},
	} {
		if got := verdict(tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareFixtures runs the command on a legacy single-run ledger
// (a bare list) against a repeated one and checks every shared row's
// delta and flag, and that unshared rows are left out.
func TestCompareFixtures(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{filepath.Join("testdata", "old.json"), filepath.Join("testdata", "new.json")}, &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[0]] = f[1:]
	}
	for _, tc := range []struct {
		name string
		want []string
	}{
		{"BenchmarkSame", []string{"100", "100", "+0.0%"}},
		{"BenchmarkSlower", []string{"1000", "1200", "+20.0%", "slower"}},
		{"BenchmarkFaster", []string{"5000", "4000", "-20.0%", "faster"}},
		{"BenchmarkNoisy", []string{"2000", "2600", "+30.0%"}},
	} {
		if got := strings.Join(rows[tc.name], " "); got != strings.Join(tc.want, " ") {
			t.Errorf("%s: row %q, want %q", tc.name, got, strings.Join(tc.want, " "))
		}
	}
	if len(rows) != 4 {
		t.Errorf("printed %d rows, want the 4 shared ones:\n%s", len(rows), out.String())
	}
}

func TestRunErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		nil,
		{"testdata/old.json"},
		{"testdata/old.json", "testdata/missing.json"},
		{bad, "testdata/new.json"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("run(%q) succeeded, want an error", args)
		}
	}
}
