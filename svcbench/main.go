// Command svcbench is the service benchmark: it starts gfserved
// backends (and a gfproxy where the workload has one) in this process
// on loopback listeners, drives them closed loop from at most two
// client connections, checks every answer against a local reference and
// prints the end-to-end metrics (-trace 0) or the traced per-layer
// breakdown (-trace 1). The last line of standard output is a JSON
// summary. See README.md for the workloads and the metric map.
//
//	go run . -workload codec-fleet -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"repro/internal/gf"
	"repro/internal/server"
)

func main() {
	var (
		name    = flag.String("workload", "", "codec-fleet or codec-bulk")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		probe   = flag.Bool("setup-probe", false, "internal: measure one cold set-up and exit")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || *seconds > 60) {
		err = fmt.Errorf("-seconds %d outside 1..60", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace %d, want 0 or 1", *traced)
	}
	if err == nil {
		if *probe {
			err = setupProbe(w, *seed)
		} else {
			err = run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics for the summary line, printing each with
// its evidence as it is set, and the reasons for any wrong answer.
type report struct {
	metrics map[string]metric
	correct bool
	why     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}, correct: true} }

func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{v, unit}
	fmt.Printf("%-30s %14.6g %-9s %s\n", name, v, unit, note)
}

// windowPct reports the median over windows of each window's
// q-percentile (µs) in ms, with the sample counts behind it; from says
// which windows. It fails when a window has too few samples beyond its
// percentile.
func (r *report) windowPct(name, from string, windows [][]float64, q float64) error {
	var vals []float64
	minN, minBeyond, top := math.MaxInt, math.MaxInt, 0.0
	for _, us := range windows {
		sort.Float64s(us)
		p := percentile(us, q)
		if !p.OK {
			return fmt.Errorf("%s: a window has %d of %d samples beyond p%g; run longer", name, p.Beyond, p.N, q*100)
		}
		vals = append(vals, p.Value/1e3)
		minN, minBeyond, top = min(minN, p.N), min(minBeyond, p.Beyond), max(top, us[len(us)-1]/1e3)
	}
	sort.Float64s(vals)
	r.set(name, median(vals), "ms", fmt.Sprintf("%s (%.4g..%.4g), each n>=%d beyond>=%d, max %.4g",
		from, vals[0], vals[len(vals)-1], minN, minBeyond, top))
	return nil
}

func (r *report) wrong(why string) {
	r.correct = false
	r.why = append(r.why, why)
}

// setupResult is one cold set-up, measured in a fresh process.
type setupResult struct {
	NewMs         float64  `json:"new_ms"`
	FirstAnswerMs float64  `json:"first_answer_ms"`
	Selections    []string `json:"gf_selections"`
	MulStrategy   string   `json:"mul_strategy"`
}

// setupProbes is how many cold set-ups a run measures, half before and
// half after the measured seconds, so that one burst of host noise
// meets few of them; setup_s is their median.
const setupProbes = 20

// selections is gf.Selections, one "field op below/above@crossover"
// line per kernel-tier choice.
func selections() []string {
	var out []string
	for _, t := range gf.Selections() {
		out = append(out, fmt.Sprintf("%s %s %s/%s@%d", t.Field, t.Op, t.Below, t.Above, t.Crossover))
	}
	return out
}

// setupProbe is the child side: build the fleet from cold, send one
// request of every op class the workload uses, check the answers, and
// print the timings.
func setupProbe(w *workload, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	in, err := newInputs(w, rng)
	if err != nil {
		return err
	}
	// Every stream of a workload sends the same op mix.
	st, err := in.build(streamSpec{kind: w.streams[0].kind, window: 1}, rng, 1)
	if err != nil {
		return err
	}
	reqs := st.reqs
	t0 := time.Now()
	f, err := startFleet(in.serverConfig(w), w.backends, w.proxied)
	if err != nil {
		return err
	}
	newDur := time.Since(t0)
	defer f.close()
	c, err := server.Dial(f.entry, time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := range reqs {
		r := &reqs[i]
		resp, err := c.Call(opWire[r.kind], r.params, r.payload)
		if why := check(r, resp, err); why != "" {
			return errors.New(why)
		}
	}
	answered := time.Since(t0)
	snap, err := c.Stats()
	if err != nil {
		return err
	}
	out := setupResult{
		NewMs:         float64(newDur.Nanoseconds()) / 1e6,
		FirstAnswerMs: float64(answered.Nanoseconds()) / 1e6,
		Selections:    selections(),
	}
	if snap.Config.ECC != nil {
		out.MulStrategy = snap.Config.ECC.MulStrategy
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runSetupProbes measures n cold set-ups, each in a fresh process so
// the lazy kernel-tier calibration and the gfbig strategy race are paid
// every time, as a restarted server pays them.
func runSetupProbes(w *workload, seed int64, n int) ([]setupResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupResult
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, exe, "-setup-probe", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		var r setupResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("setup probe output: %w", err)
		}
		out = append(out, r)
	}
	return out, nil
}

// heapSampler tracks the peak of the live Go heap (the heap in use as
// of the last GC) while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.peak = max(h.peak, liveHeap())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// liveHeap is the heap in use as of the last GC, in bytes.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// restHeapMB forces a collection and returns the live heap in MB: the
// memory the fleet, its tables, pools and idle connections, and the
// generated inputs hold when no request is in flight.
func restHeapMB() float64 {
	runtime.GC()
	return float64(liveHeap()) / 1e6
}

// runContext is printed with every run, so a spread can be traced to
// the host or to the calibration race instead of hidden in a median.
type runContext struct {
	CPU        string   `json:"cpu"`
	ISA        []string `json:"isa"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	// Host CPU time stolen by other guests while the run measured, in
	// percent: over the whole measurement and per end-to-end window.
	StealPct       float64       `json:"steal_pct"`
	WindowStealPct []float64     `json:"window_steal_pct,omitempty"`
	Selections     []string      `json:"gf_selections"`
	MulStrategy    string        `json:"mul_strategy"`
	SetupProbes    []setupResult `json:"setup_probes"`
}

// session is one started workload: inputs, fleet and client streams.
type session struct {
	w       *workload
	in      *inputs
	rng     *rand.Rand
	f       *fleet
	streams []*stream // one per client connection
	ecc     *stream   // ECC requests for the traced probes
	restMB  float64   // live heap at rest after start
	clients []*server.Client
	stats   []*server.Client // one per backend, for reading counters
}

func (s *session) close() error {
	closeAll(s.clients)
	closeAll(s.stats)
	return s.f.close()
}

// build generates the workload's inputs from seed.
func build(w *workload, seed int64) (*session, error) {
	rng := rand.New(rand.NewSource(seed))
	in, err := newInputs(w, rng)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, in: in, rng: rng}
	items := map[streamKind]int{smallCodec: codecItems, bulkCodec: bulkItems}
	for _, sp := range w.streams {
		st, err := in.build(sp, rng, items[sp.kind])
		if err != nil {
			return nil, err
		}
		s.streams = append(s.streams, st)
	}
	if s.ecc, err = in.build(streamSpec{kind: eccOps, window: 1}, rng, eccItems); err != nil {
		return nil, err
	}
	return s, nil
}

// warmRequests is how many requests each stream sends to warm up: a
// fixed amount of work, so that what it leaves on the heap does not
// depend on how fast the fleet serves it.
const warmRequests = 1000

// start brings the fleet up, connects the clients and the per-backend
// stats connections, checks the advertised public key against the
// reference, warms every stream up and reads the heap at rest.
func (s *session) start(rc *runContext) error {
	f, err := startFleet(s.in.serverConfig(s.w), s.w.backends, s.w.proxied)
	if err != nil {
		return err
	}
	s.f = f
	if s.clients, err = dialAll(f.entry, len(s.streams)); err != nil {
		return err
	}
	for _, a := range f.addrs {
		c, err := server.Dial(a, time.Second)
		if err != nil {
			return err
		}
		s.stats = append(s.stats, c)
	}
	snap, err := s.stats[0].Stats()
	if err != nil {
		return err
	}
	if snap.Config.ECC == nil {
		return errors.New("server runs without ECC")
	}
	want := fmt.Sprintf("%x", s.in.curve.MarshalUncompressed(s.in.pub))
	if snap.Config.ECC.PublicKey != want {
		return errors.New("server public key differs from the reference derivation")
	}
	rc.MulStrategy = snap.Config.ECC.MulStrategy
	warm := runRequests(s.clients, s.streams, warmRequests)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d wrong answers: %v", warm.failed, warm.why)
	}
	rc.Selections = selections()
	s.restMB = restHeapMB()
	return nil
}

func run(w *workload, seed int64, d time.Duration, traced bool) error {
	model, isa := cpuInfo()
	rc := &runContext{CPU: model, ISA: isa, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workload: w.name, Seed: seed, Seconds: d.Seconds(), Trace: traced}
	s, err := build(w, seed)
	if err != nil {
		return err
	}
	setups, err := runSetupProbes(w, seed, setupProbes/2)
	if err != nil {
		return err
	}
	if err := s.start(rc); err != nil {
		if s.f != nil {
			s.close()
		}
		return err
	}
	rep := newReport()
	var attempted, failed int
	ticks := readCPUTicks()
	if traced {
		attempted, failed, err = runTraced(s, d, rep)
	} else {
		attempted, failed, err = runEndToEnd(s, d, rep, rc)
	}
	rc.StealPct = round2(stealPct(ticks, readCPUTicks()))
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	more, err := runSetupProbes(w, seed, setupProbes-setupProbes/2)
	if err != nil {
		return err
	}
	rc.SetupProbes = append(setups, more...)
	var newMs, firstMs []float64
	for _, p := range rc.SetupProbes {
		newMs = append(newMs, p.NewMs)
		firstMs = append(firstMs, p.FirstAnswerMs)
	}
	if traced {
		rep.set("setup.new_ms", median(newMs), "ms", "server.New/cluster.New and listen")
		rep.set("setup.first_answer_ms", median(firstMs), "ms", "New to one correct answer per op class the workload uses")
	} else {
		rep.set("setup_s", median(firstMs)/1e3, "s", fmt.Sprintf("median of %d cold set-ups", setupProbes))
	}
	cb, err := json.Marshal(rc)
	if err != nil {
		return err
	}
	fmt.Printf("context %s\n", cb)
	for _, why := range rep.why {
		fmt.Printf("wrong %s\n", why)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct && failed == 0, attempted, failed, rep.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// windowLen is the length of the windows a run is cut into: each
// end-to-end rate and percentile is taken per window and reported as
// the median over the calmest half of the windows, so that a few
// seconds of host noise (CPU steal by other guests) do not move it.
const windowLen = 4 * time.Second

// runEndToEnd measures the workload untraced and reports the
// end-to-end metrics.
func runEndToEnd(s *session, d time.Duration, rep *report, rc *runContext) (attempted, failed int, err error) {
	before, err := s.f.readLedger(s.stats)
	if err != nil {
		return 0, 0, err
	}
	k := max(1, int(d/windowLen))
	win := d / time.Duration(k)
	steal := watchSteal(k, win)
	res := runPhase(s.clients, s.streams, d, nil)
	rc.WindowStealPct = <-steal
	after, err := s.f.readLedger(s.stats)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed = res.attempted, res.failed
	for _, why := range res.why {
		rep.wrong(why)
	}
	if l := after.sub(before); l.gap != 0 {
		rep.wrong(fmt.Sprintf("request ledger off by %d after drain", l.gap))
	}

	// Answers that arrived while the phase drained, after d, fall in no
	// window.
	ws := make([]window, k)
	for j, p := range rc.WindowStealPct {
		ws[j].steal = p
	}
	for _, x := range res.samples {
		if j := int(x.end / win); j < k {
			ws[j].lat = append(ws[j].lat, x.us)
			ws[j].user += x.user
		}
	}
	printWindows(ws, win)
	kept := ws
	if rc.WindowStealPct != nil {
		kept = calmest(ws)
	}
	var ops, mbs []float64
	var lats [][]float64
	for _, w := range kept {
		ops = append(ops, float64(len(w.lat))/win.Seconds())
		mbs = append(mbs, float64(w.user)/win.Seconds()/1e6)
		lats = append(lats, w.lat)
	}
	from := fmt.Sprintf("median of the %d of %d %v windows with the least host steal", len(kept), k, win)
	note := func(xs []float64) string {
		sort.Float64s(xs)
		return fmt.Sprintf("%s (%.6g..%.6g); %d answers in %.3fs",
			from, xs[0], xs[len(xs)-1], len(res.samples), res.elapsed.Seconds())
	}
	rep.set("codec_ops_per_s", median(ops), "1/s", note(ops))
	rep.set("goodput_mb_s", median(mbs), "MB/s", note(mbs))
	if err := rep.windowPct("codec_p50_ms", from, lats, 0.5); err != nil {
		return 0, 0, err
	}
	if err := rep.windowPct("codec_p99_ms", from, lats, 0.99); err != nil {
		return 0, 0, err
	}
	rep.set("mem_peak_mb", s.restMB, "MB",
		fmt.Sprintf("live Go heap at rest after set-up and %d warm-up requests per connection", warmRequests))
	fmt.Printf("%-30s %14.6g %-9s failed=%d attempted=%d\n", "fail_ratio",
		float64(failed)/float64(max(attempted, 1)), "ratio", failed, attempted)
	return attempted, failed, nil
}

// window is one slice of an end-to-end run.
type window struct {
	lat   []float64 // latencies (µs) of the answers that arrived in it
	user  int       // verified payload bytes of those answers
	steal float64   // host CPU steal during it, in percent
}

// calmest returns the half of ws (rounded up) with the least host
// steal. Steal slows every figure of a window without any change to the
// code, and within one run it comes and goes in bursts of seconds.
func calmest(ws []window) []window {
	out := append([]window(nil), ws...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].steal < out[b].steal })
	return out[:(len(out)+1)/2]
}

// printWindows prints one line with every window's figures in time
// order, so that a run's spread can be traced to its steal bursts.
func printWindows(ws []window, win time.Duration) {
	var l struct {
		Ops   []float64 `json:"ops_per_s"`
		P50   []float64 `json:"p50_ms"`
		P99   []float64 `json:"p99_ms"`
		Steal []float64 `json:"steal_pct"`
	}
	for _, w := range ws {
		xs := append([]float64(nil), w.lat...)
		sort.Float64s(xs)
		l.Ops = append(l.Ops, float64(len(xs))/win.Seconds())
		l.P50 = append(l.P50, round2(percentile(xs, 0.5).Value/1e3))
		l.P99 = append(l.P99, round2(percentile(xs, 0.99).Value/1e3))
		l.Steal = append(l.Steal, w.steal)
	}
	b, _ := json.Marshal(l)
	fmt.Printf("windows %s\n", b)
}

// watchSteal reads the host's CPU ticks at the start and at the end of
// each of k consecutive windows of length win, and then sends the
// share stolen in each window, in percent; nil when /proc/stat cannot
// be read.
func watchSteal(k int, win time.Duration) <-chan []float64 {
	out := make(chan []float64, 1)
	start, prev := time.Now(), readCPUTicks()
	if prev.total == 0 {
		out <- nil
		return out
	}
	go func() {
		pct := make([]float64, k)
		for j := range pct {
			time.Sleep(time.Until(start.Add(time.Duration(j+1) * win)))
			t := readCPUTicks()
			pct[j] = round2(stealPct(prev, t))
			prev = t
		}
		out <- pct
	}()
	return out
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

// runTraced replays the workload with spans around every call into the
// layers and reports the per-layer metrics. The measured time is shared
// out: the full workload in alternating untraced and traced turns (for
// the overhead), then one probe per layer.
func runTraced(s *session, d time.Duration, rep *report) (attempted, failed int, err error) {
	tr := newTracer()
	unit := d / 10
	before, err := s.f.readLedger(s.stats)
	if err != nil {
		return 0, 0, err
	}
	// The full workload, untraced and traced in alternation so that
	// both see the same host conditions; the Go runtime figures come
	// from the untraced turns.
	var tallies []*tally
	var plainOps, spanOps int
	var plainTime, spanTime time.Duration
	var gcPause, gcCycles, mallocs uint64
	var heapPeak, retained float64
	for turn := 0; turn < 3; turn++ {
		restBefore := restHeapMB()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		heap := startHeapSampler()
		plain := runPhase(s.clients, s.streams, unit, nil)
		heapPeak = max(heapPeak, heap.peakMB())
		runtime.ReadMemStats(&ms1)
		gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
		gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		mallocs += ms1.Mallocs - ms0.Mallocs
		if turn == 0 {
			// The turn is shorter than the proxy's 30s forward timeout,
			// so whatever it keeps per forwarded request is still live.
			retained = (restHeapMB() - restBefore) * 1e6 / float64(len(plain.samples))
		}
		withSpans := runPhase(s.clients, s.streams, unit, tr)
		plainOps += len(plain.samples)
		plainTime += plain.elapsed
		spanOps += len(withSpans.samples)
		spanTime += withSpans.elapsed
		tallies = append(tallies, &plain.tally, &withSpans.tally)
	}
	after, err := s.f.readLedger(s.stats)
	if err != nil {
		return 0, 0, err
	}

	codecReq := s.streams[0].reqs
	ereqs := s.ecc.reqs
	if err := probeKernels(tr, s.in, codecReq, unit/2); err != nil {
		return 0, 0, err
	}
	verifyAllocs, err := probeECC(tr, s.in, ereqs, s.rng, unit)
	if err != nil {
		return 0, 0, err
	}
	window := s.w.streams[0].window
	if err := probePipeline(tr, s.in.code, s.w.batch, window, codecReq, unit/2); err != nil {
		return 0, 0, err
	}

	// Direct round trips at window 1 on backend 0, then the codec round
	// trip again while a second connection keeps one ECC op in flight on
	// the same server: the head-of-line cost of the shared pipeline.
	direct, err := dialAll(s.f.addrs[0], 2)
	if err != nil {
		return 0, 0, err
	}
	defer closeAll(direct)
	codec1 := &stream{window: 1, reqs: codecReq}
	ecc1 := &stream{window: 1, reqs: ereqs}
	rttCodec := runPhase(direct[:1], []*stream{codec1}, unit/2, tr)
	rttECC := runPhase(direct[:1], []*stream{ecc1}, unit/2, tr)
	loaded := runPhase(direct, []*stream{codec1, ecc1}, unit/2, nil)

	// The proxy hop: the same codec requests at window 1, alternately
	// direct and through a proxy (the workload's own, or one started for
	// this), so both sides see the same host conditions.
	hopBefore, err := s.f.readLedger(s.stats)
	if err != nil {
		return 0, 0, err
	}
	if s.f.proxy == nil {
		if err := s.f.startProxy(); err != nil {
			return 0, 0, err
		}
	}
	viaProxy, err := server.Dial(s.f.entry, time.Second)
	if err != nil {
		return 0, 0, err
	}
	hopDirect, hopProxied := hopProbe(direct[0], viaProxy, codecReq, unit)
	viaProxy.Close()
	hopAfter, err := s.f.readLedger(s.stats)
	if err != nil {
		return 0, 0, err
	}
	tallies = append(tallies, &rttCodec.tally, &rttECC.tally, &loaded.tally, &hopDirect, &hopProxied)
	for _, t := range tallies {
		checkSessions(t)
		attempted += t.attempted
		failed += t.failed
		for _, why := range t.why {
			rep.wrong(why)
		}
	}

	self := tr.selfTimes()
	med := func(name string) float64 { return median(self[name]) }
	// medianUS is the median latency of what one stream sent in one op
	// class.
	medianUS := func(ss []sample, stream int, ecc bool) float64 {
		var xs []float64
		for _, x := range ss {
			if int(x.stream) == stream && x.kind.isECC() == ecc {
				xs = append(xs, x.us)
			}
		}
		return median(xs)
	}
	rep.set("rs.encode_us", med("rs.encode"), "us", "rs.Code.EncodeTo, per request")
	rep.set("rs.decode_us", med("rs.decode"), "us", "rs.Code.DecodeTo, per request")
	rep.set("aes.seal_us", med("aes.seal"), "us", "aes.GCM.Seal, per request")
	rep.set("aes.open_us", med("aes.open"), "us", "aes.GCM.Open, per request")
	rep.set("gfbig.mul_ns", med("gfbig.mul")*1e3/gfbigBatch, "ns", fmt.Sprintf("MulTo at m=%d", s.in.curve.F.M()))
	rep.set("gfbig.inv_us", med("gfbig.inv"), "us", "InvTo")
	rep.set("ecc.sign_us", med("ecc.sign"), "us", "Engine.SignAppend")
	rep.set("ecc.verify_us", med("ecc.verify"), "us", "Engine.VerifyWire")
	rep.set("ecc.derive_us", med("ecc.derive"), "us", "Engine.Derive")
	rep.set("ecc.session_us", med("ecc.session"), "us", "Engine.SecureSession")
	rep.set("ecc.verify_allocs", verifyAllocs, "count", "heap allocations per verify")
	rep.set("pipeline.frame_us", med("pipeline.frame"), "us",
		fmt.Sprintf("submit to Out minus stage service, window %d, n=%d", window, len(self["pipeline.frame"])))
	rep.set("server.codec_rtt_us", medianUS(rttCodec.samples, 0, false), "us", "direct, window 1")
	rep.set("server.ecc_rtt_us", medianUS(rttECC.samples, 0, true), "us", "direct, window 1")
	rep.set("server.codec_rtt_loaded_us", medianUS(loaded.samples, 0, false), "us",
		"direct, window 1, beside one ECC op in flight")

	l := after.sub(before)
	rep.set("server.ledger_gap", float64(l.gap), "count", "requests - responses - rejects - dropped, all ledgers")
	rep.set("server.rejects", float64(l.rejects), "count", "error-status replies")
	rep.set("server.dropped", float64(l.dropped), "count", "")
	rep.set("server.stage_frames", float64(l.stageFrames), "count", "")
	rep.set("server.stage_errors", float64(l.stageErrors), "count", "")
	rep.set("server.corrected", float64(l.corrected), "count", "symbols corrected by rs-decode")
	if l.gap != 0 {
		rep.wrong(fmt.Sprintf("request ledger off by %d after drain", l.gap))
	}

	hop := hopAfter.sub(hopBefore)
	cl := hop
	if s.w.proxied {
		cl = l // the workload's own proxy under the workload's load
	}
	rep.set("cluster.hop_us", medianUS(hopProxied.samples, 0, false)-medianUS(hopDirect.samples, 0, false), "us",
		"proxied minus direct, same requests alternated, window 1")
	rep.set("cluster.backend_dials_per_1k", float64(cl.connsAccepted)*1000/float64(max(cl.forwarded, 1)), "count/1k",
		fmt.Sprintf("%d backend conns for %d forwarded requests", cl.connsAccepted, cl.forwarded))
	rep.set("cluster.retries", float64(cl.retries), "count", "")
	rep.set("cluster.backend_failures", float64(cl.backendFailures), "count", "")

	ops := float64(plainOps)
	rep.set("go.gc_pause_ms", float64(gcPause)/1e6, "ms",
		fmt.Sprintf("total over the untraced %.1fs", plainTime.Seconds()))
	rep.set("go.gc_cycles_per_1k_ops", float64(gcCycles)*1000/ops, "count/1k", "")
	rep.set("go.allocs_per_op", float64(mallocs)/ops, "count", "whole process: client and servers")
	rep.set("go.heap_peak_mb", heapPeak, "MB", "untraced turns")
	rep.set("go.retained_b_per_op", retained, "B", "live heap at rest after the first untraced turn minus before it, per request")

	plainRate := float64(plainOps) / plainTime.Seconds()
	spanRate := float64(spanOps) / spanTime.Seconds()
	rep.set("trace.overhead_pct", (plainRate/spanRate-1)*100, "%", "untraced vs traced ops/s, full workload")

	path := filepath.Join(".bench_build", "spans-"+s.w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return 0, 0, err
	}
	fmt.Printf("spans written to %s\n", path)
	return attempted, failed, nil
}
