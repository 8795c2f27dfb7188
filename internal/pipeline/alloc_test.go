package pipeline

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/gf"
	"repro/internal/rs"
)

// buildLinkStages assembles the per-worker instances of a full
// encode -> corrupt -> decode chain, as startStage would for worker 0.
func buildLinkStages(t testing.TB) (enc, cor, dec Stage, payload []byte) {
	t.Helper()
	c := rs.Must(gf.MustDefault(8), 255, 223)
	e, err := NewRSEncode(c)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRSDecode(c)
	if err != nil {
		t.Fatal(err)
	}
	bsc, err := channel.NewBSC(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCorrupt(bsc, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	payload = make([]byte, c.K)
	rng := rand.New(rand.NewSource(5))
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	return e.ForWorker(0), co.ForWorker(0), d.ForWorker(0), payload
}

// TestLinkStagesZeroAlloc is the tentpole's pipeline acceptance check:
// once a worker's stage instances are warm, pushing a frame through
// encode -> corrupt -> decode allocates nothing — payload buffers cycle
// through the pool and all codec scratch lives on the worker instances.
func TestLinkStagesZeroAlloc(t *testing.T) {
	enc, cor, dec, payload := buildLinkStages(t)
	f := new(Frame) // reused: the frame itself is pooled by callers in practice
	run := func() {
		*f = Frame{Data: payload}
		if err := enc.Process(f); err != nil {
			t.Fatal(err)
		}
		if err := cor.Process(f); err != nil {
			t.Fatal(err)
		}
		if err := dec.Process(f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data, payload) {
			t.Fatal("roundtrip mismatch")
		}
		f.Recycle()
	}
	run() // warm pool and scratch
	if raceEnabled {
		run()
		t.Skip("alloc counting is unreliable under -race (pool randomization)")
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("steady-state link allocates %.1f times per frame, want 0", avg)
	}
}

// TestFrameLinkStagesZeroAlloc covers the interleaved pair the same way.
func TestFrameLinkStagesZeroAlloc(t *testing.T) {
	c := rs.Must(gf.MustDefault(8), 255, 223)
	iv, err := rs.NewInterleaved(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRSFrameEncode(iv)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRSFrameDecode(iv)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := e.ForWorker(0), d.ForWorker(0)
	payload := make([]byte, iv.FrameK())
	rng := rand.New(rand.NewSource(6))
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	f := new(Frame)
	run := func() {
		*f = Frame{Data: payload}
		if err := enc.Process(f); err != nil {
			t.Fatal(err)
		}
		// Burst hitting consecutive frame symbols: spread across codewords
		// by the interleaver, well within capability.
		for i := 100; i < 100+3*iv.Depth; i++ {
			f.Data[i] ^= 0x5a
		}
		if err := dec.Process(f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Data, payload) {
			t.Fatal("roundtrip mismatch")
		}
		f.Recycle()
	}
	run()
	if raceEnabled {
		run()
		t.Skip("alloc counting is unreliable under -race (pool randomization)")
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("steady-state frame link allocates %.1f times per frame, want 0", avg)
	}
}

// TestSubmitDeliverZeroAlloc walks the whole engine — Submit, stage
// channels, stage workers, in-order delivery — and requires the
// steady state to allocate nothing per frame. Regression: Submit used to
// build a fresh &Frame{} per call (192 B/frame) instead of drawing from
// framePool; the 0.5 threshold makes any reintroduced 1-alloc-per-frame
// path fail, while tolerating a stray GC emptying a pool mid-run.
func TestSubmitDeliverZeroAlloc(t *testing.T) {
	c := rs.Must(gf.MustDefault(8), 255, 223)
	e, err := NewRSEncode(c)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRSDecode(c)
	if err != nil {
		t.Fatal(err)
	}
	p := Must(Config{Workers: 1, Queue: 4}, e, d)
	r := p.Start()
	payload := make([]byte, 4*c.K)
	rng := rand.New(rand.NewSource(7))
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	delivered := make(chan struct{})
	go func() {
		for f := range r.Out() {
			ok := f.Err == nil
			f.Free()
			if ok {
				delivered <- struct{}{}
			}
		}
		close(delivered)
	}()
	run := func() {
		r.Submit(payload)
		if _, ok := <-delivered; !ok {
			t.Fatal("frame failed in pipeline")
		}
	}
	for i := 0; i < 8; i++ {
		run() // warm frame pool, payload pool and codec scratch
	}
	if raceEnabled {
		r.Close()
		t.Skip("alloc counting is unreliable under -race (pool randomization)")
	}
	avg := testing.AllocsPerRun(200, run)
	r.Close()
	if avg >= 0.5 {
		t.Fatalf("steady-state submit->deliver allocates %.2f times per frame, want 0", avg)
	}
}

// TestRecycleSafety pins the pool ownership contract: Recycle is a no-op
// without a pooled buffer, idempotent with one, and a recycled buffer is
// handed back out by the pool.
func TestRecycleSafety(t *testing.T) {
	f := &Frame{Data: []byte{1, 2, 3}}
	f.Recycle() // no pooled buffer: must not touch Data
	if f.Data == nil {
		t.Fatal("Recycle cleared caller-owned Data")
	}
	pb := getBuf(16)
	f.setPooled(pb)
	if len(f.Data) != 16 {
		t.Fatalf("Data len = %d, want 16", len(f.Data))
	}
	f.Recycle()
	if f.Data != nil || f.pooled != nil {
		t.Fatal("Recycle left pooled state behind")
	}
	f.Recycle() // idempotent
}

// BenchmarkLinkStages measures the warm single-worker chain; allocs/op
// is the headline number (must be 0).
func BenchmarkLinkStages(b *testing.B) {
	enc, cor, dec, payload := buildLinkStages(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	f := new(Frame)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*f = Frame{Data: payload}
		if err := enc.Process(f); err != nil {
			b.Fatal(err)
		}
		if err := cor.Process(f); err != nil {
			b.Fatal(err)
		}
		if err := dec.Process(f); err != nil {
			b.Fatal(err)
		}
		f.Recycle()
	}
}
