package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/ecc"
	"repro/internal/gf"
	"repro/internal/rs"
	"repro/internal/server"
)

// opKind indexes the eight service ops the benchmark drives.
type opKind uint8

const (
	opEncode opKind = iota
	opDecode
	opSeal
	opOpen
	opSign
	opVerify
	opDerive
	opSession
	numOps
)

var opWire = [numOps]server.Op{
	server.OpRSEncode, server.OpRSDecode, server.OpSeal, server.OpOpen,
	server.OpECDSASign, server.OpECDSAVerify, server.OpECDHDerive, server.OpSecureSession,
}

func (k opKind) isECC() bool    { return k >= opSign }
func (k opKind) String() string { return opWire[k].String() }

// request is one generated request with the answer the local reference
// expects for it.
type request struct {
	kind    opKind
	params  []byte
	payload []byte
	// want is the expected response payload. Verify answers with its
	// status alone; a session response is fresh each time and is opened
	// after the run with the client key instead.
	want   []byte
	reject bool // tampered verify: the answer must be a codec-failed status
	user   int  // codec payload bytes credited to goodput when the answer is right
	// session only: the client key that must open the response and the
	// challenge it must recover.
	key       *ecc.PrivateKey
	challenge []byte
}

// stream is what one client connection sends: a request cycle and the
// number of requests it keeps in flight (closed loop).
type stream struct {
	window int
	reqs   []request
}

// streamKind names a request mix.
type streamKind int

const (
	smallCodec streamKind = iota // 239-byte rs-encode/rs-decode/seal/open
	bulkCodec                    // 16-codeword RS and 16 KiB seal/open
	eccOps                       // sign, verify (1 in 8 tampered), derive, session; traced probes only
)

// streamSpec is one connection of a workload phase.
type streamSpec struct {
	kind   streamKind
	window int
}

// workload is one traffic mix: the fleet it starts and the streams
// its connections send, one connection per stream.
type workload struct {
	name     string
	backends int
	proxied  bool
	n, k     int
	batch    int
	streams  []streamSpec
}

// The workloads; README.md says why each exists and which layer metric
// should move which end-to-end metric on it.
var workloads = []*workload{
	{
		name: "codec-fleet", backends: 2, proxied: true, n: 255, k: 239, batch: 1,
		streams: []streamSpec{{smallCodec, 8}, {smallCodec, 8}},
	},
	{
		name: "codec-bulk", backends: 1, n: 255, k: 223, batch: bulkWidth,
		streams: []streamSpec{{bulkCodec, 2}, {bulkCodec, 2}},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want codec-fleet or codec-bulk)", name)
}

const (
	bulkWidth    = 16       // codewords per bulk RS request
	bulkAEADSize = 16 << 10 // bulk seal/open plaintext
	codecItems   = 64       // distinct small-codec items per stream
	bulkItems    = 16       // distinct bulk items per stream
	eccItems     = 32       // distinct inputs per ECC op per stream
	eccClients   = 8        // client key pairs per ECC stream
	tamperEvery  = 8        // one verify in this many is tampered
)

// inputs is everything generated from the seed: the service's keys and
// the per-stream request cycles with their expected answers.
type inputs struct {
	aesKey, eccKey []byte
	curve          *ecc.Curve
	d              *big.Int  // the service's private scalar (reference only)
	pub            ecc.Point // the service's public point
	code           *rs.Code
	gcm            cipher.AEAD
}

// newInputs draws the service keys from rng and derives the local
// reference state for them.
func newInputs(w *workload, rng *rand.Rand) (*inputs, error) {
	in := &inputs{aesKey: make([]byte, 16), eccKey: make([]byte, 32)}
	rng.Read(in.aesKey)
	rng.Read(in.eccKey)
	var err error
	if in.curve, err = ecc.CurveByName(server.DefaultCurve); err != nil {
		return nil, err
	}
	if in.d, err = serverScalar(in.curve, in.eccKey); err != nil {
		return nil, err
	}
	in.pub = in.curve.ScalarBaseMult(in.d)
	if in.code, err = rs.New(gf.MustDefault(8), w.n, w.k); err != nil {
		return nil, err
	}
	blk, err := aes.NewCipher(in.aesKey)
	if err != nil {
		return nil, err
	}
	if in.gcm, err = cipher.NewGCM(blk); err != nil {
		return nil, err
	}
	return in, nil
}

// serverConfig is the backend configuration every server of w runs.
func (in *inputs) serverConfig(w *workload) server.Config {
	return server.Config{N: w.n, K: w.k, Batch: w.batch, Key: in.aesKey, ECCKey: in.eccKey}
}

// build generates one stream's request cycle from rng; items scales the
// pool (setup probes need only one of each op).
func (in *inputs) build(spec streamSpec, rng *rand.Rand, items int) (*stream, error) {
	s := &stream{window: spec.window}
	var err error
	switch spec.kind {
	case smallCodec:
		err = in.codecItems(s, rng, items, 1, 0, in.code.K)
	case bulkCodec:
		err = in.codecItems(s, rng, items, bulkWidth, in.code.T-2, bulkAEADSize)
	case eccOps:
		err = in.eccItems(s, rng, items)
	}
	return s, err
}

// codecItems appends encode, decode, seal and open requests for n items:
// width codewords per RS request with minErr..t seeded symbol errors in
// each codeword of the decode, and aeadLen-byte seal/open.
func (in *inputs) codecItems(s *stream, rng *rand.Rand, n, width, minErr, aeadLen int) error {
	c := in.code
	for i := 0; i < n; i++ {
		msg := make([]byte, width*c.K)
		rng.Read(msg)
		cw := make([]byte, 0, width*c.N)
		for j := 0; j < width; j++ {
			enc, err := c.EncodeBytes(msg[j*c.K : (j+1)*c.K])
			if err != nil {
				return err
			}
			cw = append(cw, enc...)
		}
		recv := append([]byte(nil), cw...)
		for j := 0; j < width; j++ {
			word := recv[j*c.N : (j+1)*c.N]
			errs := minErr + rng.Intn(c.T-minErr+1)
			for _, pos := range rng.Perm(c.N)[:errs] {
				word[pos] ^= byte(1 + rng.Intn(255))
			}
		}
		nonce := make([]byte, server.NonceSize)
		rng.Read(nonce)
		pt := make([]byte, aeadLen)
		rng.Read(pt)
		sealed := in.gcm.Seal(nil, nonce, pt, nil)
		s.reqs = append(s.reqs,
			request{kind: opEncode, payload: msg, want: cw, user: len(msg)},
			request{kind: opDecode, payload: recv, want: msg, user: len(msg)},
			request{kind: opSeal, params: nonce, payload: pt, want: sealed, user: len(pt)},
			request{kind: opOpen, params: nonce, payload: sealed, want: pt, user: len(pt)},
		)
	}
	return nil
}

// eccItems appends n rounds of sign, verify, derive and session. Every
// tamperEvery-th verify carries a signature with one bit flipped.
func (in *inputs) eccItems(s *stream, rng *rand.Rand, n int) error {
	c := in.curve
	keys := make([]*ecc.PrivateKey, min(eccClients, n))
	for i := range keys {
		k, err := ecc.GenerateKey(c, rng)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	for i := 0; i < n; i++ {
		key := keys[i%len(keys)]
		pub := c.MarshalUncompressed(key.Pub)

		digest := make([]byte, 32)
		rng.Read(digest)
		s.reqs = append(s.reqs, request{kind: opSign, payload: digest,
			want: signRFC6979(c, in.d, digest)})

		vd := make([]byte, 32)
		rng.Read(vd)
		sig := signRFC6979(c, key.D, vd)
		tampered := i%tamperEvery == tamperEvery-1
		if tampered {
			sig[len(sig)-1-rng.Intn(len(sig)/2)] ^= byte(1 << rng.Intn(8))
		}
		vp := append(append(append([]byte(nil), pub...), sig...), vd...)
		s.reqs = append(s.reqs, request{kind: opVerify, payload: vp, reject: tampered})

		shared, err := key.SharedSecret(in.pub)
		if err != nil {
			return err
		}
		s.reqs = append(s.reqs, request{kind: opDerive, payload: pub, want: shared})

		ch := make([]byte, 32)
		rng.Read(ch)
		sp := append(append([]byte(nil), pub...), ch...)
		s.reqs = append(s.reqs, request{kind: opSession, payload: sp, key: key, challenge: ch})
	}
	return nil
}
