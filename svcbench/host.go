package main

import (
	"os"
	"strconv"
	"strings"
)

// isaFlags are the /proc/cpuinfo flags the GF kernels and the gfbig
// strategies could use.
var isaFlags = []string{"pclmulqdq", "sse4_2", "aes", "avx2", "bmi2", "avx512f", "gfni", "vaes", "vpclmulqdq"}

// cpuInfo returns the CPU model and the isaFlags it has, from
// /proc/cpuinfo; "unknown" where that cannot be read.
func cpuInfo() (model string, flags []string) {
	model = "unknown"
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return model, nil
	}
	var have map[string]bool
	for _, line := range strings.Split(string(b), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if have == nil {
				have = map[string]bool{}
				for _, f := range strings.Fields(val) {
					have[f] = true
				}
			}
		}
	}
	for _, f := range isaFlags {
		if have[f] {
			flags = append(flags, f)
		}
	}
	return model, flags
}

// cpuTicks is the host's CPU time so far, from the "cpu" line of
// /proc/stat: all of it, and the part the hypervisor gave to other
// guests (steal).
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of host CPU time stolen between two reads, in
// percent; 0 where /proc/stat cannot be read.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) * 100 / float64(b.total-a.total)
}
