package server

import (
	crand "crypto/rand"
	"fmt"
	"time"

	"repro/internal/aes"
	"repro/internal/ecc"
	"repro/internal/pipeline"
)

// dispatchStage is the one stage every server worker runs: it routes
// each frame to the codec op of the request in hand. Multiplexing every
// op through one stage (instead of one pool per op) keeps a single
// worker pool hot regardless of the op mix.
//
// Each worker holds its own instance (ForWorker), with private RS
// scratch (the underlying RS stages are WorkerLocal), its own clone of
// the ECC engine and the op it is serving; the GCM instance is
// immutable after construction and shared, as are the eccService
// counters (atomics).
type dispatchStage struct {
	enc, dec pipeline.Stage
	gcm      *aes.GCM
	aad      []byte
	ecc      *eccService // nil when the ECC ops are disabled
	eccEng   *ecc.Engine // this worker's engine clone
	op       Op          // the op of the request this worker is serving
}

// Name implements pipeline.Stage.
func (d *dispatchStage) Name() string { return "codec-dispatch" }

// ForWorker returns worker w's private instance.
func (d *dispatchStage) ForWorker(w int) *dispatchStage {
	cp := *d
	if wl, ok := d.enc.(pipeline.WorkerLocal); ok {
		cp.enc = wl.ForWorker(w)
	}
	if wl, ok := d.dec.(pipeline.WorkerLocal); ok {
		cp.dec = wl.ForWorker(w)
	}
	if d.ecc != nil {
		cp.eccEng = d.ecc.eng.Clone()
	}
	return &cp
}

// Process implements pipeline.Stage, running d.op on f. Seal/open
// frames carry nonce‖body (the nonce is client-chosen so the peer can
// reconstruct it; the server is a codec, not a key manager — nonce
// uniqueness is the client's contract, as with any GCM API).
func (d *dispatchStage) Process(f *pipeline.Frame) error {
	switch d.op {
	case OpRSEncode:
		return d.enc.Process(f)
	case OpRSDecode:
		return d.dec.Process(f)
	case OpSeal:
		out, err := d.gcm.Seal(f.Data[:NonceSize], f.Data[NonceSize:], d.aad)
		if err != nil {
			return err
		}
		f.Data = out
		return nil
	case OpOpen:
		out, err := d.gcm.Open(f.Data[:NonceSize], f.Data[NonceSize:], d.aad)
		if err != nil {
			return err
		}
		f.Data = out
		return nil
	case OpECDHDerive, OpECDSASign, OpECDSAVerify, OpSecureSession:
		if d.eccEng == nil {
			return fmt.Errorf("server: ecc op %v with ecc disabled", d.op)
		}
		return d.processECC(f)
	default:
		return fmt.Errorf("server: unroutable op %d", uint8(d.op))
	}
}

// processECC runs one ECC frame on this worker's engine clone. The
// derive/sign paths append into f.Data[:0]: the engine fully consumes
// its input (point parse, digest absorption) before the first output
// byte is written, so reusing the frame's pooled buffer is safe and
// keeps the steady-state request allocation-free at the engine layer.
func (d *dispatchStage) processECC(f *pipeline.Frame) error {
	svc, e := d.ecc, d.eccEng
	switch d.op {
	case OpECDHDerive:
		start := time.Now()
		out, err := e.Derive(f.Data[:0], f.Data)
		if err != nil {
			svc.failures.Add(1)
			return err
		}
		svc.deriveLat.Observe(time.Since(start))
		svc.derives.Add(1)
		f.Data = out
		return nil
	case OpECDSASign:
		start := time.Now()
		out, err := e.SignAppend(f.Data[:0], f.Data)
		if err != nil {
			svc.failures.Add(1)
			return err
		}
		svc.signLat.Observe(time.Since(start))
		svc.signs.Add(1)
		f.Data = out
		return nil
	case OpECDSAVerify:
		pb, ob := e.PointBytes(), e.OrderBytes()
		pub := f.Data[:pb]
		sig := f.Data[pb : pb+2*ob]
		digest := f.Data[pb+2*ob:]
		if err := e.VerifyWire(pub, sig, digest); err != nil {
			svc.failures.Add(1)
			return err
		}
		svc.verifies.Add(1)
		f.Data = f.Data[:0] // the OK status is the verdict
		return nil
	default: // OpSecureSession
		pb := e.PointBytes()
		out, err := e.SecureSession(crand.Reader, f.Data[:0], f.Data[:pb], f.Data[pb:])
		if err != nil {
			svc.failures.Add(1)
			return err
		}
		svc.sessions.Add(1)
		f.Data = out
		return nil
	}
}
