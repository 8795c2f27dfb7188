package pipeline

import (
	"fmt"
	"sync"
	"time"
)

// Sharded reorder sink. The original engine funneled every frame through
// one goroutine holding an unbounded pending map that never shrank after
// an out-of-order burst. Here the delivery path fans out by Seq modulo
// the shard count: the last stage's workers scatter frames onto
// per-shard rings and each shard's sequencer folds the per-frame
// delivery stats (latency, end-to-end histogram) in
// parallel before funneling into the selector, which restores dense Seq
// order through a power-of-two circular window — O(1) slab-reusing
// insert/release per frame, no map.
//
// The selector never waits on a *specific* shard (a selective receive
// plus bounded shard queues can deadlock behind head-of-line blocking in
// the stage workers); it consumes whatever the merged ring holds and
// parks out-of-order frames in the window, which grows to the in-flight
// bound and is reused thereafter.

// shardedSink scatters a stage worker's run of frames onto the per-shard
// sequencer rings with at most one bulk enqueue per shard per run.
type shardedSink struct {
	shards []*frameRing
}

func (ss *shardedSink) putAll(fs []*Frame) {
	s := uint64(len(ss.shards))
	if s == 1 {
		ss.shards[0].putAll(fs)
		return
	}
	var tmp [stageRun]*Frame
	for i, ring := range ss.shards {
		k := 0
		for _, f := range fs {
			if f.Seq%s == uint64(i) {
				tmp[k] = f
				k++
			}
		}
		if k > 0 {
			ring.putAll(tmp[:k])
		}
	}
}

func (ss *shardedSink) close() {
	for _, ring := range ss.shards {
		ring.close()
	}
}

// sequencer folds delivery stats for its shard's frames and forwards
// them to the merged ring; wg tracks the last sequencer out, which
// closes the ring.
func (r *Run) sequencer(src, merged *frameRing, wg *sync.WaitGroup) {
	defer wg.Done()
	run := make([]*Frame, stageRun)
	for {
		n := src.getSome(run)
		if n == 0 {
			return
		}
		for _, f := range run[:n] {
			r.finish(f)
		}
		merged.putAll(run[:n])
		for i := range run[:n] {
			run[i] = nil
		}
	}
}

// finish folds one frame's delivery stats: submit-to-sink latency into
// the pipeline's Total histogram. Runs on the frame's shard sequencer,
// so shards fold stats in parallel. Frames injected past Submit carry no submit timestamp and
// keep Latency 0.
func (r *Run) finish(f *Frame) {
	if !f.submitted.IsZero() {
		f.Latency = time.Since(f.submitted)
		r.p.Total.Observe(f.Latency)
	}
}

// seqWindow buffers out-of-order frames indexed by Seq: a power-of-two
// circular window that grows to the in-flight high-water mark and then
// reuses its slots forever — unlike the map it replaces, steady-state
// insert/release touches one slot and allocates nothing.
type seqWindow struct {
	buf  []*Frame
	base uint64 // seq stored at slot pos
	pos  int    // slot holding seq base
	held int
}

func newSeqWindow() *seqWindow { return &seqWindow{buf: make([]*Frame, 16)} }

// put stores the frame at its Seq (>= base; seqs are unique, so a slot
// is never written twice).
func (w *seqWindow) put(seq uint64, f *Frame) {
	for seq-w.base >= uint64(len(w.buf)) {
		w.grow()
	}
	w.buf[(w.pos+int(seq-w.base))%len(w.buf)] = f
	w.held++
}

func (w *seqWindow) grow() {
	nb := make([]*Frame, 2*len(w.buf))
	for i := 0; i < len(w.buf); i++ {
		nb[i] = w.buf[(w.pos+i)%len(w.buf)]
	}
	w.buf = nb
	w.pos = 0
}

// take removes and returns the frame at seq base, or nil if it has not
// arrived; on success the window advances.
func (w *seqWindow) take() *Frame {
	f := w.buf[w.pos]
	if f == nil {
		return nil
	}
	w.buf[w.pos] = nil
	w.pos = (w.pos + 1) % len(w.buf)
	w.base++
	w.held--
	return f
}

// drain returns every still-held frame in Seq order (the leftover path:
// frames whose predecessors never arrived).
func (w *seqWindow) drain() []*Frame {
	if w.held == 0 {
		return nil
	}
	out := make([]*Frame, 0, w.held)
	for i := 0; i < len(w.buf) && len(out) < cap(out); i++ {
		if f := w.buf[(w.pos+i)%len(w.buf)]; f != nil {
			out = append(out, f)
		}
	}
	return out
}

// selector releases frames in dense Seq order on r.out. With fold set
// (single-shard runs, where no sequencers exist) it folds delivery stats
// itself. Frames held at close (their predecessors were never submitted
// — only possible for frames injected out of band) are delivered in Seq
// order carrying the out-of-band error, exactly as the pre-shard engine
// marked every frame still pending at close.
func (r *Run) selector(merged *frameRing, fold bool) {
	defer close(r.out)
	defer close(r.done)
	w := newSeqWindow()
	run := make([]*Frame, stageRun)
	for {
		n := merged.getSome(run)
		if n == 0 {
			break
		}
		for _, f := range run[:n] {
			if fold {
				r.finish(f)
			}
			if f.Seq < w.base {
				// Duplicate of an already-released seq (injected frames
				// only): deliver rather than wedge the window.
				r.emit(f, true)
				continue
			}
			w.put(f.Seq, f)
			for {
				g := w.take()
				if g == nil {
					break
				}
				r.emit(g, false)
			}
		}
		for i := range run[:n] {
			run[i] = nil
		}
	}
	for _, g := range w.drain() {
		r.emit(g, true)
	}
}

// emit counts the frame (and its codewords — a failed batched frame
// charges its full width, not 1) and delivers it. oob marks out-of-band
// frames, preserving any stage error already on the frame.
func (r *Run) emit(f *Frame, oob bool) {
	if oob && f.Err == nil {
		f.Err = fmt.Errorf("pipeline: frame %d delivered out of band", f.Seq)
		f.FailedAt = "reorder"
	}
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
