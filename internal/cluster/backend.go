package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// BackendSpec names one backend: the GFP1 address the proxy forwards
// to, plus (optionally) the admin HTTP address whose /healthz the
// health checker probes and whose /statsz the fleet aggregator scrapes.
type BackendSpec struct {
	Addr  string // GFP1 TCP address (required)
	Admin string // admin HTTP address ("" = passive health only, no aggregation)
}

// ParseBackendSpec parses "addr" or "addr@adminAddr".
func ParseBackendSpec(s string) (BackendSpec, error) {
	addr, admin, found := strings.Cut(s, "@")
	spec := BackendSpec{Addr: strings.TrimSpace(addr)}
	if found {
		spec.Admin = strings.TrimSpace(admin)
		if spec.Admin == "" {
			return spec, fmt.Errorf("cluster: backend spec %q has an empty admin address", s)
		}
	}
	if spec.Addr == "" {
		return spec, fmt.Errorf("cluster: backend spec %q has an empty address", s)
	}
	return spec, nil
}

// Backend states.
const (
	stateHealthy int32 = iota
	stateEjected
)

// backend is one fleet member: its spec, health state and the one
// persistent GFP1 connection every forward to it shares. All methods
// are safe for concurrent use.
type backend struct {
	spec BackendSpec
	idx  int

	state atomic.Int32

	// Health bookkeeping (guarded by hmu): consecutive probe/dial
	// failures and successes, fed by both the active checker and passive
	// transport errors.
	hmu           sync.Mutex
	consecFails   int
	consecOKs     int
	lastHealthErr string

	// The shared connection: concurrent forwards pipeline on it and the
	// client matches responses by request id. nil until the first
	// forward dials it, and again after a transport failure or ejection.
	cmu      sync.Mutex
	cl       *server.Client
	dialWait time.Duration

	// Counters surfaced per backend on the proxy's admin plane.
	forwards  atomic.Int64 // requests forwarded (attempts, including retries)
	failures  atomic.Int64 // transport-level forward failures
	ejections atomic.Int64 // healthy -> ejected transitions
	readmits  atomic.Int64 // ejected -> healthy transitions
}

func newBackend(idx int, spec BackendSpec, dialWait time.Duration) *backend {
	return &backend{spec: spec, idx: idx, dialWait: dialWait}
}

func (b *backend) healthy() bool { return b.state.Load() == stateHealthy }

// stateName renders the backend state for admin surfaces.
func (b *backend) stateName() string {
	if b.healthy() {
		return "healthy"
	}
	return "ejected"
}

// client returns the shared connection, dialing one if there is none.
// The dial runs outside cmu: it retries a refused backend for up to
// dialWait, and concurrent forwards must not queue behind it. The first
// dial to finish is installed; a slower one is closed.
func (b *backend) client() (*server.Client, error) {
	b.cmu.Lock()
	cl := b.cl
	b.cmu.Unlock()
	if cl != nil {
		return cl, nil
	}
	cl, err := server.Dial(b.spec.Addr, b.dialWait)
	if err != nil {
		return nil, err
	}
	b.cmu.Lock()
	defer b.cmu.Unlock()
	if b.cl != nil {
		cl.Close()
		return b.cl, nil
	}
	b.cl = cl
	return cl, nil
}

// drop closes cl after a transport failure and detaches it if it is
// still the shared connection, so the next forward dials fresh.
func (b *backend) drop(cl *server.Client) {
	b.cmu.Lock()
	if b.cl == cl {
		b.cl = nil
	}
	b.cmu.Unlock()
	cl.Close()
}

// retire detaches the shared connection, so the next forward dials
// fresh, and closes it once grace has passed. Ejection retires with the
// forward timeout as grace: every call already on the connection is
// bounded by it, so a request in flight when the probes ejected the
// backend still completes.
func (b *backend) retire(grace time.Duration) {
	b.cmu.Lock()
	cl := b.cl
	b.cl = nil
	b.cmu.Unlock()
	if cl != nil {
		time.AfterFunc(grace, func() { cl.Close() })
	}
}
