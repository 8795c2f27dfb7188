package server

// Datapath self-verification: a serving process proves its math before
// reporting healthy. Every GF kernel tier (product table, carry-less
// multiply fold) is differentially checked against the scalar
// reference for both fields
// the server actually computes in — the RS field and the AES field —
// via gf.VerifyKernels, and the AES-GCM fast paths (round-table AES,
// constant-time GHASH) are checked against their references via
// aes.SelfTest. The check runs once, lazily, the
// first time health is probed (gfproxy's health gate therefore admits a
// backend into the ring only after its datapath has verified), and can
// be re-run on demand through the /selftest admin endpoint.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/aes"
	"repro/internal/gf"
	"repro/internal/gfbig"
)

// selftestVectors is how many pseudo-random vectors per op each field is
// checked with. At GF(2^8) one run is a few hundred microseconds.
const selftestVectors = 8

// aesSelfTestField names the AES-GCM entry of SelfTestResult.Fields.
const aesSelfTestField = "AES-128/192/256 + GHASH (aes)"

// SelfTestResult reports one differential verification run.
type SelfTestResult struct {
	OK        bool     `json:"ok"`
	Fields    []string `json:"fields"`  // fields checked, e.g. "GF(2^8) poly=0x11d"
	Tiers     []string `json:"tiers"`   // verified kernel tiers per field, comma-joined
	Vectors   int      `json:"vectors"` // vectors per op per tier per field
	ElapsedNs int64    `json:"elapsed_ns"`
	Error     string   `json:"error,omitempty"` // first disagreement, when !OK
}

// selftest is the cached startup verification state.
type selftest struct {
	once sync.Once
	res  SelfTestResult
}

// SelfTest runs the differential kernel verification for the server's
// serving fields and returns the result. It is safe for concurrent use
// and deliberately un-cached: the /selftest endpoint re-checks the live
// tables on every call.
func (s *Server) SelfTest() SelfTestResult {
	return runSelfTest(s.iv.Code.F, s.eccField(), time.Now().UnixNano())
}

// startupSelfTest returns the once-per-process verification run that
// gates Healthy. The seed is fixed so a failing deployment reproduces
// byte-for-byte.
func (s *Server) startupSelfTest() SelfTestResult {
	s.st.once.Do(func() {
		s.st.res = runSelfTest(s.iv.Code.F, s.eccField(), 1)
	})
	return s.st.res
}

// eccField returns the big binary field the ECC ops compute in, nil
// when the ECC service is disabled.
func (s *Server) eccField() *gfbig.Field {
	if s.ecc == nil {
		return nil
	}
	return s.ecc.eng.Curve().F
}

func runSelfTest(rsField *gf.Field, eccField *gfbig.Field, seed int64) SelfTestResult {
	fields := []*gf.Field{rsField}
	// The AES-GCM ops compute in the AES field; check it too unless the
	// RS field already is it.
	aesF := gf.AES()
	if rsField.Poly() != aesF.Poly() || rsField.M() != aesF.M() {
		fields = append(fields, aesF)
	}
	res := SelfTestResult{OK: true, Vectors: selftestVectors}
	start := time.Now()
	for _, f := range fields {
		res.Fields = append(res.Fields, fmt.Sprintf("%v poly=%#x", f, f.Poly()))
		res.Tiers = append(res.Tiers, strings.Join(f.Kernels().AvailableTiers(), ","))
		if res.OK {
			if err := gf.VerifyKernels(f, selftestVectors, seed); err != nil {
				res.OK = false
				res.Error = err.Error()
			}
		}
	}
	// The AES-GCM ops serve from the round-table cipher and the
	// constant-time GHASH product; check both against their references.
	res.Fields = append(res.Fields, aesSelfTestField)
	res.Tiers = append(res.Tiers, "round-table,ghash-ctmul64")
	if res.OK {
		if err := aes.SelfTest(selftestVectors, seed); err != nil {
			res.OK = false
			res.Error = err.Error()
		}
	}
	// The ECC ops compute in a big binary field with its own
	// full-product strategies (gfbig); verify Karatsuba against the
	// schoolbook reference so /healthz gates on the ECC datapath too.
	if eccField != nil {
		res.Fields = append(res.Fields, eccField.String()+" (gfbig)")
		res.Tiers = append(res.Tiers, strings.Join(gfbig.StrategyNames(), ","))
		if res.OK {
			if err := eccField.VerifyMulStrategies(selftestVectors, seed); err != nil {
				res.OK = false
				res.Error = err.Error()
			}
		}
	}
	res.ElapsedNs = time.Since(start).Nanoseconds()
	return res
}
