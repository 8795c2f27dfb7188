package main

// The traced run's layer probes. Each replays the workload's generated
// inputs through one layer's public functions and records a span around
// every call; the per-layer metrics are medians of those spans (self
// time where a span has children).

import (
	"bytes"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"runtime"
	"time"

	"repro/internal/aes"
	"repro/internal/ecc"
	"repro/internal/gf"
	"repro/internal/gfbig"
	"repro/internal/pipeline"
	"repro/internal/rs"
)

func toElems(b []byte) []gf.Elem {
	e := make([]gf.Elem, len(b))
	for i, x := range b {
		e[i] = gf.Elem(x)
	}
	return e
}

// probeKernels times rs.Code.EncodeTo/DecodeTo and aes.GCM.Seal/Open
// on the workload's codec requests, one span per request (all its
// codewords), for about d.
func probeKernels(tr *tracer, in *inputs, reqs []request, d time.Duration) error {
	c := in.code
	blk, err := aes.NewCipher(in.aesKey)
	if err != nil {
		return err
	}
	gcm := blk.NewGCM()
	type rsReq struct {
		kind  opKind
		words [][]gf.Elem
		want  []byte
	}
	var prepared []rsReq
	for _, r := range reqs {
		switch r.kind {
		case opEncode:
			p := rsReq{kind: opEncode, want: r.want}
			for j := 0; j < len(r.payload); j += c.K {
				p.words = append(p.words, toElems(r.payload[j:j+c.K]))
			}
			prepared = append(prepared, p)
		case opDecode:
			p := rsReq{kind: opDecode, want: r.want}
			for j := 0; j < len(r.payload); j += c.N {
				p.words = append(p.words, toElems(r.payload[j:j+c.N]))
			}
			prepared = append(prepared, p)
		}
	}
	cw := make([]gf.Elem, c.N)
	buf := c.NewDecodeBuf()
	var spans []span
	deadline := time.Now().Add(d)
	for round := uint64(0); time.Now().Before(deadline) && len(spans) < maxProbeSpans; round++ {
		for i, p := range prepared {
			req := round*uint64(len(reqs)) + uint64(i)
			var out []byte
			t0 := time.Now()
			for _, w := range p.words {
				if p.kind == opEncode {
					if _, err := c.EncodeTo(cw, w); err != nil {
						return err
					}
					if round == 0 {
						out = appendElems(out, cw)
					}
				} else {
					res, err := c.DecodeTo(buf, w)
					if err != nil {
						return err
					}
					if round == 0 {
						out = appendElems(out, res.Message)
					}
				}
			}
			t1 := time.Now()
			if round == 0 && !bytes.Equal(out, p.want) {
				return fmt.Errorf("kernel probe: %v differs from the reference", p.kind)
			}
			name := "rs.encode"
			if p.kind == opDecode {
				name = "rs.decode"
			}
			spans = append(spans, tr.span(name, 0, req, t0, t1))
		}
		for i, r := range reqs {
			req := round*uint64(len(reqs)) + uint64(i)
			switch r.kind {
			case opSeal:
				t0 := time.Now()
				out, err := gcm.Seal(r.params, r.payload, nil)
				t1 := time.Now()
				if err != nil || !bytes.Equal(out, r.want) {
					return fmt.Errorf("kernel probe: seal differs from the reference (%v)", err)
				}
				spans = append(spans, tr.span("aes.seal", 0, req, t0, t1))
			case opOpen:
				t0 := time.Now()
				out, err := gcm.Open(r.params, r.payload, nil)
				t1 := time.Now()
				if err != nil || !bytes.Equal(out, r.want) {
					return fmt.Errorf("kernel probe: open differs from the reference (%v)", err)
				}
				spans = append(spans, tr.span("aes.open", 0, req, t0, t1))
			}
		}
	}
	tr.add(spans)
	return nil
}

// appendElems appends GF(2^8) symbols as bytes.
func appendElems(dst []byte, e []gf.Elem) []byte {
	for _, x := range e {
		dst = append(dst, byte(x))
	}
	return dst
}

// maxProbeSpans caps the spans one layer probe records, so the span
// file stays a few tens of MB.
const maxProbeSpans = 40000

// gfbigBatch is how many MulTo calls one gfbig.mul span covers: a
// single multiply is shorter than the clock's useful resolution.
const gfbigBatch = 1000

// probeECC times the ecc.Engine ops on the workload's ECC requests and
// the gfbig field arithmetic under them, for about d. It also counts
// the allocations of one verify.
func probeECC(tr *tracer, in *inputs, reqs []request, rng *mrand.Rand, d time.Duration) (verifyAllocs float64, err error) {
	eng, err := ecc.NewEngine(in.curve, in.d)
	if err != nil {
		return 0, err
	}
	f := in.curve.F
	s := f.NewScratch()
	elem := func() gfbig.Elem {
		b := make([]byte, (f.M()+7)/8)
		rng.Read(b)
		if r := f.M() % 8; r != 0 {
			b[0] &= byte(1)<<r - 1
		}
		e := f.Zero()
		if err := f.SetBytesInto(e, b); err != nil {
			panic(err) // masked to m bits above
		}
		return e
	}
	a, b, dst := elem(), elem(), f.Zero()
	var spans []span
	out := make([]byte, 0, 256)
	pb := eng.PointBytes()
	deadline := time.Now().Add(d)
	for round := uint64(0); time.Now().Before(deadline); round++ {
		t0 := time.Now()
		for i := 0; i < gfbigBatch; i++ {
			f.MulTo(dst, a, b, s)
		}
		spans = append(spans, tr.span("gfbig.mul", 0, round, t0, time.Now()))
		t0 = time.Now()
		f.InvTo(dst, a, s)
		spans = append(spans, tr.span("gfbig.inv", 0, round, t0, time.Now()))
		for i, r := range reqs {
			req := round*uint64(len(reqs)) + uint64(i)
			var name string
			t0 := time.Now()
			switch r.kind {
			case opSign:
				name = "ecc.sign"
				out, err = eng.SignAppend(out[:0], r.payload)
				if err == nil && !bytes.Equal(out, r.want) {
					err = fmt.Errorf("signature differs from the reference")
				}
			case opVerify:
				name = "ecc.verify"
				ob := eng.OrderBytes()
				err = eng.VerifyWire(r.payload[:pb], r.payload[pb:pb+2*ob], r.payload[pb+2*ob:])
				if r.reject == (err != nil) {
					err = nil
				} else {
					err = fmt.Errorf("verify verdict %v, tampered %v", err, r.reject)
				}
			case opDerive:
				name = "ecc.derive"
				out, err = eng.Derive(out[:0], r.payload)
				if err == nil && !bytes.Equal(out, r.want) {
					err = fmt.Errorf("shared secret differs from the reference")
				}
			case opSession:
				name = "ecc.session"
				out, err = eng.SecureSession(rand.Reader, out[:0], r.payload[:pb], r.challenge)
			}
			t1 := time.Now()
			if err != nil {
				return 0, fmt.Errorf("ecc probe: %s: %w", name, err)
			}
			spans = append(spans, tr.span(name, 0, req, t0, t1))
		}
	}
	tr.add(spans)

	// Allocations of the verify path, outside any span bookkeeping.
	var v *request
	for i := range reqs {
		if reqs[i].kind == opVerify && !reqs[i].reject {
			v = &reqs[i]
			break
		}
	}
	const n = 8
	ob := eng.OrderBytes()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		eng.VerifyWire(v.payload[:pb], v.payload[pb:pb+2*ob], v.payload[pb+2*ob:])
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n, nil
}

// timedStage wraps a pipeline stage with a span per Process call, the
// child of the frame span whose id rides in Frame.Tag.
type timedStage struct {
	inner pipeline.Stage
	tr    *tracer
	spans chan<- span
}

func (s *timedStage) Name() string { return s.inner.Name() }

func (s *timedStage) ForWorker(w int) pipeline.Stage {
	inner := s.inner
	if wl, ok := inner.(pipeline.WorkerLocal); ok {
		inner = wl.ForWorker(w)
	}
	return &timedStage{inner: inner, tr: s.tr, spans: s.spans}
}

func (s *timedStage) Process(f *pipeline.Frame) error {
	t0 := time.Now()
	err := s.inner.Process(f)
	fr := f.Tag.(*frameRec)
	s.spans <- s.tr.span("pipeline.stage", fr.id, f.Seq, t0, time.Now())
	return err
}

// frameRec is the per-frame context the pipeline probe hangs on Tag.
type frameRec struct {
	id    uint64
	start time.Time
	want  []byte
}

// probePipeline runs the workload's RS encode and decode stages through
// pipeline.Run, closed loop at window frames in flight, for about d.
// Each frame's span runs from submit to Out; its stage calls are its
// children, so the frame's self time is the pipeline's own cost.
func probePipeline(tr *tracer, code *rs.Code, batch, window int, reqs []request, d time.Duration) error {
	enc, err := pipeline.NewRSEncode(code)
	if err != nil {
		return err
	}
	dec, err := pipeline.NewRSDecode(code)
	if err != nil {
		return err
	}
	stageSpans := make(chan span, 4096) // drained concurrently below
	pl, err := pipeline.New(pipeline.Config{Batch: batch},
		&timedStage{inner: enc, tr: tr, spans: stageSpans},
		&timedStage{inner: dec, tr: tr, spans: stageSpans})
	if err != nil {
		return err
	}
	var msgs [][]byte
	for _, r := range reqs {
		if r.kind == opEncode {
			msgs = append(msgs, r.payload)
		}
	}
	collected := make(chan []span)
	go func() {
		var ss []span
		for s := range stageSpans {
			ss = append(ss, s)
		}
		collected <- ss
	}()

	run := pl.Start()
	sem := make(chan struct{}, window)
	submitErr := make(chan error, 1)
	go func() {
		defer run.Close()
		deadline := time.Now().Add(d)
		for i := 0; i < maxProbeSpans/2 && time.Now().Before(deadline); i++ {
			sem <- struct{}{}
			m := msgs[i%len(msgs)]
			fr := &frameRec{id: tr.newID(), start: time.Now(), want: m}
			if _, err := run.SubmitChecked(m, 0, fr); err != nil {
				submitErr <- err
				return
			}
		}
		submitErr <- nil
	}()
	var frames []span
	var bad error
	for f := range run.Out() {
		end := time.Now()
		<-sem
		fr := f.Tag.(*frameRec)
		if f.Err != nil || !bytes.Equal(f.Data, fr.want) {
			bad = fmt.Errorf("pipeline probe: frame %d does not round-trip (%v)", f.Seq, f.Err)
		}
		frames = append(frames, span{Name: "pipeline.frame", ID: fr.id, Req: f.Seq,
			Start: fr.start.Sub(tr.epoch).Nanoseconds(), End: end.Sub(tr.epoch).Nanoseconds()})
		f.Free()
	}
	run.Wait()
	close(stageSpans)
	tr.add(frames)
	tr.add(<-collected)
	if err := <-submitErr; err != nil {
		return err
	}
	return bad
}
