package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// fleet is one workload's system under test, running in this process
// on loopback listeners: the gfserved backends and, for a proxied
// workload, the gfproxy in front of them.
type fleet struct {
	servers  []*server.Server
	addrs    []string // backend GFP1 addresses
	proxy    *cluster.Proxy
	entry    string // the address workload clients dial
	wg       sync.WaitGroup
	serveMu  sync.Mutex
	serveErr error
}

// startFleet builds and starts the servers for cfg (and a proxy when
// proxied), returning once every listener is accepting.
func startFleet(cfg server.Config, backends int, proxied bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < backends; i++ {
		s, err := server.New(cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("server.New: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, s)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.serve(func() error { return s.Serve(ln) })
	}
	f.entry = f.addrs[0]
	if proxied {
		if err := f.startProxy(); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// startProxy puts a gfproxy in front of the fleet's backends. Requests
// are routed per request, not per connection: with per-connection
// routing the two client connections land on one backend or on both
// depending on their ephemeral ports, which would make the workload
// bimodal from run to run.
func (f *fleet) startProxy() error {
	specs := make([]cluster.BackendSpec, len(f.addrs))
	for i, a := range f.addrs {
		specs[i] = cluster.BackendSpec{Addr: a}
	}
	p, err := cluster.New(cluster.Config{Backends: specs, RouteByRequest: true})
	if err != nil {
		return fmt.Errorf("cluster.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Shutdown(context.Background())
		return err
	}
	f.proxy = p
	f.entry = ln.Addr().String()
	f.serve(func() error { return p.Serve(ln) })
	return nil
}

func (f *fleet) serve(fn func() error) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := fn(); err != nil {
			f.serveMu.Lock()
			f.serveErr = errors.Join(f.serveErr, err)
			f.serveMu.Unlock()
		}
	}()
}

// close drains the proxy, then the backends, and waits for every Serve
// loop to return.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if f.proxy != nil {
		err = f.proxy.Shutdown(ctx)
	}
	for _, s := range f.servers {
		err = errors.Join(err, s.Shutdown(ctx))
	}
	f.wg.Wait()
	f.serveMu.Lock()
	defer f.serveMu.Unlock()
	return errors.Join(err, f.serveErr)
}

// ledger is the counters read from outside the servers and the proxy
// once a phase has drained.
type ledger struct {
	gap           int64 // |requests - responses - rejects - dropped|, summed; must be 0
	rejects       int64
	dropped       int64
	stageFrames   int64
	stageErrors   int64
	corrected     int64
	connsAccepted int64 // backend connections accepted, summed
	// proxy only
	forwarded       int64
	retries         int64
	backendFailures int64
}

// readLedger reads every backend's stats over the wire (Client.Stats on
// the given stats connections) and the proxy's Statsz. A response is
// accounted just after it is written, so a snapshot taken right after
// the last answer arrived can trail it: the read repeats until the
// ledgers balance or a second has passed, and what is left is the gap.
func (f *fleet) readLedger(stats []*server.Client) (ledger, error) {
	var l ledger
	deadline := time.Now().Add(time.Second)
	for {
		l = ledger{}
		for _, c := range stats {
			snap, err := c.Stats()
			if err != nil {
				return l, fmt.Errorf("stats: %w", err)
			}
			s := snap.Server
			// The stats request itself is counted and still in flight.
			l.gap += abs(s.Requests - 1 - s.Responses - s.Rejects - s.Dropped)
			l.rejects += s.Rejects
			l.dropped += s.Dropped
			l.connsAccepted += s.ConnsAccepted
			for _, st := range snap.Stages {
				l.stageFrames += st.Frames
				l.stageErrors += st.Errors
				l.corrected += st.Corrected
			}
		}
		if f.proxy != nil {
			p := f.proxy.Statsz().Proxy
			l.gap += abs(p.Requests - p.Responses - p.Rejects - p.Dropped)
			l.forwarded = p.Requests
			l.retries = p.Retries
			l.backendFailures = p.BackendFailures
		}
		if l.gap == 0 || time.Now().After(deadline) {
			return l, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// sub returns the counts accrued between two reads (the gap is the
// later read's own).
func (l ledger) sub(before ledger) ledger {
	return ledger{
		gap:             l.gap,
		rejects:         l.rejects - before.rejects,
		dropped:         l.dropped - before.dropped,
		stageFrames:     l.stageFrames - before.stageFrames,
		stageErrors:     l.stageErrors - before.stageErrors,
		corrected:       l.corrected - before.corrected,
		connsAccepted:   l.connsAccepted - before.connsAccepted,
		forwarded:       l.forwarded - before.forwarded,
		retries:         l.retries - before.retries,
		backendFailures: l.backendFailures - before.backendFailures,
	}
}
