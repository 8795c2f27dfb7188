#!/usr/bin/env bash
# bench.sh — run the repository's throughput benchmarks COUNT times and
# emit a machine-readable BENCH_<n>.json summary: a "host" block (CPU
# model, the GF-relevant ISA flags from /proc/cpuinfo, cores, GOMAXPROCS,
# Go version, run count and benchtime) plus one row per benchmark with
# the median ns/op ("ns_op") and the min/max over the runs
# ("ns_op_min"/"ns_op_max"), the median MB/s, and B/op and allocs/op.
# Compare two ledgers row by row and count a change only when the
# min..max ranges do not overlap.
#
# Usage:
#   scripts/bench.sh [out.json] [benchtime] [count]
#
# Defaults: out=BENCH_16.json, benchtime=0.5s, count=5. Runs from the
# repo root. The benchmark set covers the bulk GF kernel layer and
# everything built on it: root RS/GF/pipeline benches (including the
# batched pipeline variants and the per-kernel-tier GFTier A/B rows:
# auto, i.e. the static rule, vs forced scalar, table and clmul; AES per
# block and GCM seal of 64 B), the clmul fold-vs-plain bit-syndrome sweep
# in internal/gf, the per-package Bulk-vs-Scalar pairs in internal/rs,
# internal/bch, internal/aes (plus GCM seal/open of 16 KiB) and the
# pipeline link chain, plus the wide-field layer: the gfbig full-product
# strategies (schoolbook/karatsuba) through the allocation-free MulTo
# path and the ECC engine ops built on it.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_16.json}"
benchtime="${2:-0.5s}"
count="${3:-5}"

pattern='RSEncode255|RSSyndromes255|RSDecode255|GFKernel|GFMul|GFTier|PipelineRS255_239|AESEncryptGo|GCMSeal'
gf_pattern='BitSyndromeFoldSweep'
pkg_pattern='Bulk|Scalar|DecodeTo255|Syndromes63|MixColumns|GCMSeal16K|GCMOpen16K|LinkStages'
ecc_pattern='MulToStrategies|InvTo|ECDHDerive|ECDSASign|ECDSAVerify'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

run() { go test -run 'ZZZNONE' -benchtime "$benchtime" -count "$count" -benchmem "$@" >>"$raw"; }
run -bench "$pattern" .
run -bench "$gf_pattern" ./internal/gf
run -bench "$pkg_pattern" ./internal/rs ./internal/bch ./internal/aes ./internal/pipeline
run -bench "$ecc_pattern" ./internal/gfbig ./internal/ecc

cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
procs="${GOMAXPROCS:-$(nproc 2>/dev/null || echo "$cpus")}"
goversion="$(go env GOVERSION)"
model="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
isa="$(awk -F': ' '/^flags/ {print $2; exit}' /proc/cpuinfo 2>/dev/null | tr ' ' '\n' |
    grep -xE 'pclmulqdq|sse4_2|aes|avx2|bmi2|avx512f|gfni|vaes|vpclmulqdq' |
    awk '{printf "%s\"%s\"", (NR > 1 ? ", " : ""), $0}' || true)"

# Parse `go test -bench` lines:
#   BenchmarkName-8   1234   5678 ns/op [12.3 MB/s] [45 B/op] [6 allocs/op] [...]
# and reduce the COUNT lines of each benchmark to median/min/max.
awk -v cpus="$cpus" -v procs="$procs" -v gover="$goversion" -v model="${model:-unknown}" \
    -v isa="$isa" -v count="$count" -v benchtime="$benchtime" '
function median(list,    v, n, i, j, t) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
    lo = v[1]; hi = v[n]
    return (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; mbs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns  = $(i-1)
        if ($i == "MB/s")      mbs = $(i-1)
        if ($i == "B/op")      bop[name] = $(i-1)
        if ($i == "allocs/op") aop[name] = $(i-1)
    }
    if (ns == "") next
    if (!(name in nsl)) order[++rows] = name
    nsl[name] = nsl[name] " " ns
    if (mbs != "") mbl[name] = mbl[name] " " mbs
}
END {
    print "{"
    printf "  \"host\": {\"cpu\": \"%s\", \"isa\": [%s], \"cpus\": %d, \"gomaxprocs\": %d, \"go\": \"%s\", \"count\": %d, \"benchtime\": \"%s\"},\n", model, isa, cpus, procs, gover, count, benchtime
    print "  \"benchmarks\": ["
    for (r = 1; r <= rows; r++) {
        name = order[r]
        line = sprintf("    {\"name\": \"%s\", \"ns_op\": %.10g", name, median(nsl[name]))
        line = line sprintf(", \"ns_op_min\": %.10g, \"ns_op_max\": %.10g", lo, hi)
        if (name in mbl) line = line sprintf(", \"mb_s\": %.10g", median(mbl[name]))
        if (name in bop) line = line ", \"b_op\": " bop[name]
        if (name in aop) line = line ", \"allocs_op\": " aop[name]
        printf "%s}%s\n", line, (r < rows ? "," : "")
    }
    print "  ]"
    print "}"
}
' "$raw" >"$out"

n="$(grep -c '"name"' "$out" || true)"
echo "wrote $out ($n benchmarks x $count runs, $cpus cpus, GOMAXPROCS $procs)"
