// Package pipeline composes the repository's codecs into concurrent,
// batched, backpressured frame-processing pipelines — the scaling layer
// that lets a multi-core host exploit the parallelism the paper's
// processor finds inside one cycle (its 4-way SIMD GF ops) across many
// frames at once.
//
// A Pipeline is an ordered list of Stages. Each stage runs a private
// worker pool (Config.Workers goroutines) fed by a bounded channel, so a
// slow stage exerts backpressure all the way back to Run.Submit instead
// of buffering without limit. Frames are stamped with a sequence number
// on submission and one delivery goroutine restores that order after
// the last stage, so output order always equals submission order no
// matter how workers interleave.
//
// Stage implementations must be safe for concurrent use by multiple
// workers (the codec adapters in stages.go are — see the concurrency
// notes in packages rs, bch and aes); a stage holding per-worker mutable
// state (e.g. a channel-model RNG) instead implements WorkerLocal to get
// one private instance per worker.
package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/perf"
)

// Frame is one unit of work flowing through a pipeline. The payload in
// Data is rewritten by each stage (message -> codeword -> corrupted
// codeword -> message ...). A Frame is owned by exactly one stage worker
// at a time, so stages may mutate it freely without locking.
type Frame struct {
	// Seq is the submission sequence number, assigned by Run.Submit.
	// Frames leave the pipeline in increasing Seq order.
	Seq uint64
	// Epoch tags the frame with the configuration epoch it was submitted
	// under (see Run.SubmitTagged). Epoch-aware stage pairs — e.g. the
	// switchable encoder/decoder of package adaptive — use it to apply
	// the same per-epoch configuration on both sides of the channel, so
	// the pipeline can change codes coherently without draining.
	Epoch int
	// Data is the current payload.
	Data []byte
	// Err is the first stage error encountered; once set, later stages
	// skip the frame and it is delivered as-is so the caller can account
	// for it. FailedAt names the stage that set Err.
	Err      error
	FailedAt string
	// Corrected accumulates symbol/bit corrections reported by decode
	// stages. CorrectedMax is the worst per-codeword correction count an
	// interleaved decode stage observed — the frame's distance to the
	// code's correction bound t, which adaptive controllers use as their
	// degradation signal.
	Corrected    int
	CorrectedMax int
	// Counts accumulates perf cycle accounting reported by metered
	// stages (zero for unmetered pipelines).
	Counts perf.Counts
	// Tag is opaque caller context carried through the pipeline
	// untouched. A caller attaches per-frame state here at submission
	// and reads it back in a stage or at delivery, with no map or lock
	// between the two.
	Tag any
	// Width is the number of codewords packed into this frame's payload.
	// The codec stages set it when they infer the batch width from the
	// payload length; 0 is read as 1 (an unbatched frame). Delivery-side
	// accounting (Pipeline.Sink) is per codeword, so a failed batched
	// frame charges its full width.
	Width int
	// Latency is the submit-to-delivery wall-clock time, set when the
	// frame is released in Seq order.
	Latency time.Duration

	submitted time.Time
	// pooled, when non-nil, is the pool-owned buffer backing Data,
	// installed by a buffer-reusing stage and released by Frame.Recycle.
	pooled *pooledBuf
}

// width returns the frame's codeword count for accounting (Width, with
// 0 meaning 1).
func (f *Frame) width() int {
	if f.Width > 0 {
		return f.Width
	}
	return 1
}

// Stage transforms frames. Process is called concurrently from many
// worker goroutines, each call with exclusive ownership of its frame;
// implementations must not keep per-call mutable state on the receiver
// unless they also implement WorkerLocal.
type Stage interface {
	// Name labels the stage in stats and reports.
	Name() string
	// Process transforms f.Data in place (replacing the slice is fine).
	// Returning an error marks the frame failed; the pipeline keeps
	// running.
	Process(f *Frame) error
}

// WorkerLocal is implemented by stages that need private per-worker
// state. At Start, the pipeline calls ForWorker once per worker and
// routes each worker's frames through its own instance.
type WorkerLocal interface {
	Stage
	// ForWorker returns the stage instance worker w (0-based) will use.
	ForWorker(w int) Stage
}

// Func adapts a function to a stateless Stage.
type Func struct {
	Label string
	F     func(f *Frame) error
}

// Name implements Stage.
func (s Func) Name() string { return s.Label }

// Process implements Stage.
func (s Func) Process(f *Frame) error { return s.F(f) }

// Config sizes a pipeline.
type Config struct {
	// Workers is the worker-pool size of every stage. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Queue is the capacity of every channel between stages (and of
	// Out), in frames. 0 means 2*Workers. Smaller values tighten
	// backpressure; larger values smooth out latency jitter between
	// stages. Note the unit is frames: with batching each slot holds
	// Batch codewords, so byte-level buffering scales with the batch.
	Queue int
	// Batch is the number of codewords batch-aware submitters (the cmd
	// drivers, the server) pack into each frame's payload. The codec
	// stages infer every frame's width from its payload length — a
	// multiple of the codeword size — so the engine itself accepts mixed
	// widths; Batch is carried here so all layers size payloads and
	// queues consistently. 0 means 1 (unbatched).
	Batch int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 2 * c.Workers
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	return c
}

// Pipeline is an immutable description of a stage sequence plus the
// stats the stages accumulate across runs. Build one with New, then
// Start it (possibly several times, though stats are cumulative).
type Pipeline struct {
	cfg    Config
	stages []Stage
	stats  []*StageStats
	// Total observes end-to-end submit-to-delivery latency.
	Total Hist
	// Sink counts delivered frames and codewords (see SinkStats).
	Sink SinkStats
}

// New builds a pipeline from the given stages. The configuration is
// validated here — negative sizes are programming errors, rejected
// up front instead of producing a pipeline that deadlocks or panics
// once started (zero still means "use the default").
func New(cfg Config, stages ...Stage) (*Pipeline, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("pipeline: negative worker count %d", cfg.Workers)
	}
	if cfg.Queue < 0 {
		return nil, fmt.Errorf("pipeline: negative queue depth %d", cfg.Queue)
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("pipeline: negative batch %d", cfg.Batch)
	}
	if len(stages) == 0 {
		return nil, errors.New("pipeline: no stages")
	}
	p := &Pipeline{cfg: cfg.withDefaults(), stages: stages}
	for _, s := range stages {
		if s == nil {
			return nil, errors.New("pipeline: nil stage")
		}
		p.stats = append(p.stats, &StageStats{Name: s.Name()})
	}
	return p, nil
}

// Must is New but panics on error.
func Must(cfg Config, stages ...Stage) *Pipeline {
	p, err := New(cfg, stages...)
	if err != nil {
		panic(err)
	}
	return p
}

// Stats returns the per-stage statistics, in stage order. The returned
// values are live: they keep updating while a run is active.
func (p *Pipeline) Stats() []*StageStats { return p.stats }

// Config returns the resolved configuration (defaults applied).
func (p *Pipeline) Config() Config { return p.cfg }

// Run is one execution of a pipeline: submit frames, read them back in
// submission order from Out, Close when done.
type Run struct {
	p    *Pipeline
	in   chan *Frame
	out  chan *Frame
	seq  atomic.Uint64
	done chan struct{}

	// mu gates submissions against Close: SubmitChecked holds it shared
	// while sending on in, Close holds it exclusively while closing in,
	// so a long-lived concurrent submitter can race Close safely and get
	// ErrClosed instead of a send on a closed channel.
	mu     sync.RWMutex
	closed bool
}

// Start launches the worker pools and returns a Run accepting frames.
// Stages are linked by channels of capacity Queue; one delivery
// goroutine restores Seq order after the last stage and sends on Out.
func (p *Pipeline) Start() *Run {
	cfg := p.cfg
	r := &Run{
		p:    p,
		in:   make(chan *Frame, cfg.Queue),
		out:  make(chan *Frame, cfg.Queue),
		done: make(chan struct{}),
	}
	src := r.in
	for i, s := range p.stages {
		dst := make(chan *Frame, cfg.Queue)
		startStage(s, p.stats[i], cfg.Workers, src, dst)
		src = dst
	}
	go r.deliver(src)
	return r
}

// startStage spawns the worker pool for stage s and closes dst once
// every worker has drained src. Frames that already failed upstream
// pass through untouched.
func startStage(s Stage, st *StageStats, workers int, src <-chan *Frame, dst chan<- *Frame) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		inst := s
		if wl, ok := s.(WorkerLocal); ok {
			inst = wl.ForWorker(w)
		}
		go func() {
			defer wg.Done()
			for f := range src {
				if f.Err == nil {
					RunStage(inst, st, f)
				}
				dst <- f
			}
		}()
	}
	go func() {
		wg.Wait()
		close(dst)
	}()
}

// deliver releases frames on Out in dense Seq order. Frames that finish
// ahead of their predecessors park in held, indexed by Seq modulo its
// length; held doubles until it spans every frame in flight, which the
// bounded channels cap, and is reused from then on.
func (r *Run) deliver(src <-chan *Frame) {
	defer close(r.out)
	defer close(r.done)
	held := make([]*Frame, 16)
	var next uint64
	for f := range src {
		for f.Seq-next >= uint64(len(held)) {
			grown := make([]*Frame, 2*len(held))
			for _, g := range held {
				if g != nil {
					grown[g.Seq%uint64(len(grown))] = g
				}
			}
			held = grown
		}
		held[f.Seq%uint64(len(held))] = f
		for {
			i := next % uint64(len(held))
			g := held[i]
			if g == nil {
				break
			}
			held[i] = nil
			next++
			r.emit(g)
		}
	}
}

// emit stamps the frame's latency, folds it into Total and Sink (per
// codeword: a failed batched frame charges its full width, not 1) and
// sends it on Out.
func (r *Run) emit(f *Frame) {
	f.Latency = time.Since(f.submitted)
	r.p.Total.Observe(f.Latency)
	cw := int64(f.width())
	sk := &r.p.Sink
	sk.Frames.Add(1)
	sk.Codewords.Add(cw)
	if f.Err != nil {
		sk.Failed.Add(1)
		sk.FailedCodewords.Add(cw)
	}
	r.out <- f
}

// RunStage calls s.Process on f and folds the call into st: bytes,
// latency, corrections, cycle counts, and on error f.Err/f.FailedAt.
// It is what a Run's stage workers do per frame, exported for callers
// that drive a stage from their own worker pool (the codec server) and
// report it under the same metrics.
func RunStage(s Stage, st *StageStats, f *Frame) {
	st.BytesIn.Add(int64(len(f.Data)))
	beforeCorrected := f.Corrected
	beforeCounts := f.Counts
	start := time.Now()
	err := s.Process(f)
	st.Latency.Observe(time.Since(start))
	st.Frames.Add(1)
	if f.Counts != beforeCounts {
		st.counts.add(subCounts(f.Counts, beforeCounts))
	}
	if err != nil {
		f.Err = err
		f.FailedAt = s.Name()
		st.Errors.Add(1)
		return
	}
	st.BytesOut.Add(int64(len(f.Data)))
	st.Codewords.Add(int64(f.width()))
	if d := f.Corrected - beforeCorrected; d > 0 {
		st.Corrected.Add(int64(d))
	}
}

// subCounts returns a - b field-wise, attributing a frame's counts delta
// to the stage that produced it.
func subCounts(a, b perf.Counts) perf.Counts {
	return perf.Counts{
		LD: a.LD - b.LD, ST: a.ST - b.ST, ALU: a.ALU - b.ALU, Mul: a.Mul - b.Mul,
		Branch: a.Branch - b.Branch, BranchNT: a.BranchNT - b.BranchNT,
		GFOp: a.GFOp - b.GFOp, GF32: a.GF32 - b.GF32,
	}
}

// ErrClosed is returned by SubmitChecked once Close has been called.
var ErrClosed = errors.New("pipeline: run closed")

// Submit injects a payload as the next frame and returns its sequence
// number. It blocks when the first stage's queue is full (backpressure).
// Submit is safe for concurrent use; "submission order" is then the
// order of sequence assignment. Submit must not be called after Close
// (it panics with ErrClosed); callers that cannot order their
// submissions against Close use SubmitChecked.
func (r *Run) Submit(data []byte) uint64 { return r.SubmitTagged(data, 0) }

// SubmitTagged is Submit with an explicit configuration epoch stamped on
// the frame, for pipelines whose stages switch behavior per epoch.
func (r *Run) SubmitTagged(data []byte, epoch int) uint64 {
	seq, err := r.SubmitChecked(data, epoch, nil)
	if err != nil {
		panic(err)
	}
	return seq
}

// SubmitChecked is SubmitTagged for submitters that may race Close — a
// server draining live connections, for example. It returns ErrClosed
// (instead of panicking) once the run's input has been closed, and
// stamps tag (which may be nil) onto Frame.Tag for delivery-time
// routing. Like Submit it blocks while the first stage's queue is full.
func (r *Run) SubmitChecked(data []byte, epoch int, tag any) (uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return 0, ErrClosed
	}
	f := framePool.Get().(*Frame)
	*f = Frame{Data: data, Epoch: epoch, Tag: tag, submitted: time.Now()}
	f.Seq = r.seq.Add(1) - 1
	// Copy Seq before the handoff: once sent, the consumer may deliver
	// and Free the frame (returning it to the pool) at any moment.
	seq := f.Seq
	r.in <- f
	return seq, nil
}

// Out delivers processed frames in submission order. It is closed after
// Close once every submitted frame has been delivered.
func (r *Run) Out() <-chan *Frame { return r.out }

// Close declares the input complete. In-flight frames still drain to
// Out, which is closed afterwards. Close is idempotent and safe to call
// concurrently with SubmitChecked; it blocks until submitters already
// inside SubmitChecked have handed their frame to the first stage.
func (r *Run) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	close(r.in)
}

// Wait blocks until the pipeline has fully drained (Close called and
// every frame delivered). The caller must be consuming Out — or have
// consumed it — for Wait to return.
func (r *Run) Wait() { <-r.done }

// Drain submits every payload, closes the input and collects all frames
// in submission order — the convenient batch entry point. Frames whose
// stages failed carry Err; the first such error (by Seq) is returned
// alongside the full frame list.
func (r *Run) Drain(payloads [][]byte) ([]*Frame, error) {
	go func() {
		for _, d := range payloads {
			r.Submit(d)
		}
		r.Close()
	}()
	frames := make([]*Frame, 0, len(payloads))
	var firstErr error
	for f := range r.Out() {
		frames = append(frames, f)
		if f.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("pipeline: frame %d failed in %s: %w", f.Seq, f.FailedAt, f.Err)
		}
	}
	return frames, firstErr
}
