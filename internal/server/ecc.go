package server

// The binary-field ECC service: ecdh-derive, ecdsa-sign, ecdsa-verify
// and the secure-session handshake, served by the same worker pool as
// the RS and AES-GCM ops (one window slot per request, same exact
// ledger). Each worker clones the ecc.Engine, so
// the steady-state derive/sign paths run allocation-free on top of the
// gfbig scratch layer.
//
// The service's private scalar is derived deterministically from the
// configured key material, so every backend in a fleet started with the
// same key holds the same scalar. Combined with deterministic RFC 6979
// signing this is what makes ecdsa-sign idempotent for gfproxy: a retry
// on a different backend returns the bit-identical signature.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"sync/atomic"

	"repro/internal/ecc"
	"repro/internal/perf"
)

// DefaultCurve is the curve served when Config.Curve is empty — K-233,
// the curve the paper's processor hand-codes.
const DefaultCurve = "K-233"

// CurveOff is the Config.Curve value that disables the ECC ops.
const CurveOff = "off"

// MaxSessionChallenge bounds the client challenge in a secure-session
// request; the sealed response echoes it, so the bound also caps the
// handshake response size.
const MaxSessionChallenge = 256

// eccService is the server's ECC state: the engine prototype every
// worker clones, plus the op counters and latency histograms
// surfaced through /statsz and /metrics.
type eccService struct {
	eng          *ecc.Engine
	curveName    string
	maxChallenge int

	derives  atomic.Int64
	signs    atomic.Int64
	verifies atomic.Int64
	sessions atomic.Int64
	failures atomic.Int64

	deriveLat perf.Hist
	signLat   perf.Hist
}

// scalarDomain separates the deterministic scalar derivation from every
// other use of the configured key material.
const scalarDomain = "GFP1 ecc scalar v1"

// detReader streams SHA-256(domain || curve || seed || counter) blocks:
// a deterministic byte source for RandomScalar, so a fleet configured
// with the same key material converges on the same private scalar.
type detReader struct {
	prefix []byte
	ctr    uint64
	buf    []byte
}

func (r *detReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			h := sha256.New()
			h.Write(r.prefix)
			var c [8]byte
			binary.BigEndian.PutUint64(c[:], r.ctr)
			h.Write(c[:])
			r.buf = h.Sum(nil)
			r.ctr++
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// deriveECCScalar deterministically maps key material to a private
// scalar in [1, order-1] for the given curve.
func deriveECCScalar(c *ecc.Curve, seed []byte) (*big.Int, error) {
	prefix := make([]byte, 0, len(scalarDomain)+len(c.Name)+len(seed))
	prefix = append(prefix, scalarDomain...)
	prefix = append(prefix, c.Name...)
	prefix = append(prefix, seed...)
	return c.RandomScalar(&detReader{prefix: prefix})
}

// newECCService builds the service for cfg, or returns (nil, nil) when
// the ECC ops are disabled.
func newECCService(cfg Config) (*eccService, error) {
	name := cfg.Curve
	if name == CurveOff {
		return nil, nil
	}
	if name == "" {
		name = DefaultCurve
	}
	curve, err := ecc.CurveByName(name)
	if err != nil {
		return nil, err
	}
	seed := cfg.ECCKey
	if len(seed) == 0 {
		seed = cfg.Key
	}
	d, err := deriveECCScalar(curve, seed)
	if err != nil {
		return nil, fmt.Errorf("server: ecc scalar derivation: %w", err)
	}
	eng, err := ecc.NewEngine(curve, d)
	if err != nil {
		return nil, fmt.Errorf("server: ecc engine: %w", err)
	}
	return &eccService{eng: eng, curveName: curve.Name, maxChallenge: MaxSessionChallenge}, nil
}

// ECCInfo is the discovery section of ConfigInfo: everything a client
// needs to size requests for the ECC ops without guessing.
type ECCInfo struct {
	Curve          string `json:"curve"`
	FieldBytes     int    `json:"field_bytes"`
	OrderBytes     int    `json:"order_bytes"`
	PointBytes     int    `json:"point_bytes"`     // 1 + 2*FieldBytes (SEC 1 uncompressed)
	SignatureBytes int    `json:"signature_bytes"` // 2*OrderBytes (r || s)
	MaxDigest      int    `json:"max_digest"`
	MaxChallenge   int    `json:"max_challenge"`
	PublicKey      string `json:"public_key"` // hex SEC 1 uncompressed point
	MulStrategy    string `json:"mul_strategy"`
}

// info snapshots the discovery section.
func (svc *eccService) info() *ECCInfo {
	e := svc.eng
	return &ECCInfo{
		Curve:          svc.curveName,
		FieldBytes:     e.FieldBytes(),
		OrderBytes:     e.OrderBytes(),
		PointBytes:     e.PointBytes(),
		SignatureBytes: e.SignatureBytes(),
		MaxDigest:      ecc.MaxDigestBytes,
		MaxChallenge:   svc.maxChallenge,
		PublicKey:      hex.EncodeToString(e.PublicBytes()),
		MulStrategy:    e.Curve().F.MulStrategy().String(),
	}
}

// validateECC length-checks one ECC request against the engine's wire
// widths, returning a rejection message ("" accepts). Semantic checks
// (on-curve, verification) stay in the dispatch stage; handle() only
// guards framing so a malformed request never occupies a worker.
func (svc *eccService) validateECC(op Op, payloadLen int) string {
	pb, ob := svc.eng.PointBytes(), svc.eng.OrderBytes()
	switch op {
	case OpECDHDerive:
		if payloadLen != pb {
			return fmt.Sprintf("ecdh-derive payload %dB, want %dB uncompressed point", payloadLen, pb)
		}
	case OpECDSASign:
		if payloadLen == 0 || payloadLen > ecc.MaxDigestBytes {
			return fmt.Sprintf("ecdsa-sign payload %dB, want 1..%dB digest", payloadLen, ecc.MaxDigestBytes)
		}
	case OpECDSAVerify:
		base := pb + 2*ob
		if payloadLen <= base || payloadLen > base+ecc.MaxDigestBytes {
			return fmt.Sprintf("ecdsa-verify payload %dB, want point(%d)+sig(%d)+digest(1..%d)",
				payloadLen, pb, 2*ob, ecc.MaxDigestBytes)
		}
	case OpSecureSession:
		if payloadLen < pb || payloadLen > pb+svc.maxChallenge {
			return fmt.Sprintf("secure-session payload %dB, want point(%d)+challenge(0..%d)",
				payloadLen, pb, svc.maxChallenge)
		}
	}
	return ""
}
