package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// fakeAdmin is an httptest admin plane for a fake backend: /healthz
// answers 200 until down is set, then 503. With it the health checker
// probes over HTTP and never dials the backend's GFP1 port.
func fakeAdmin(t *testing.T, down *atomic.Bool) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(srv.Close)
	return srv.Listener.Addr().String()
}

// TestProxyOneBackendConnection: concurrent forwards to a backend share
// one multiplexed connection; the proxy never dials a second one.
func TestProxyOneBackendConnection(t *testing.T) {
	const callers, perCaller = 16, 128 // 2048 requests
	tb := startBackend(t, server.Config{Workers: 2})
	p, addr := startProxy(t, fastHealth(Config{Backends: []BackendSpec{tb.spec()}}))

	msg := make([]byte, 239)
	// One request first: forwards that all find no connection each dial
	// one (only the first is kept), and the churn under test comes after.
	if _, err := dialProxy(t, addr).RSEncode(msg); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		c := dialProxy(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perCaller; j++ {
				if _, err := c.RSEncode(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := tb.srv.Snapshot().Server.ConnsAccepted; n != 1 {
		t.Errorf("backend accepted %d connections for %d forwards, want 1", n, 1+callers*perCaller)
	}
	checkLedger(t, p)
}

// TestProxyForwardTimeout: a backend that never answers a seal costs
// that seal a forward timeout — StatusUnavailable, not retried — and
// nothing else: later requests succeed over the same connection.
func TestProxyForwardTimeout(t *testing.T) {
	fake := startFake(t, func(m *server.Message) (*server.Message, bool) {
		if m.Op == server.OpSeal {
			return nil, true // withhold the answer
		}
		return &server.Message{Op: m.Op, Payload: m.Payload}, true
	})
	var down atomic.Bool
	const timeout = 200 * time.Millisecond
	p, addr := startProxy(t, fastHealth(Config{
		Backends:       []BackendSpec{{Addr: fake.addr(), Admin: fakeAdmin(t, &down)}},
		ForwardTimeout: timeout,
	}))
	c := dialProxy(t, addr)
	msg := make([]byte, 239)
	if _, err := c.RSEncode(msg); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err := c.Seal(make([]byte, server.NonceSize), []byte("withheld"))
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusUnavailable || !strings.Contains(se.Msg, "forward timeout") {
		t.Fatalf("withheld seal: %v, want StatusUnavailable with a forward timeout", err)
	}
	if el := time.Since(start); el < timeout || el > 5*time.Second {
		t.Errorf("withheld seal answered after %v, want about the %v forward timeout", el, timeout)
	}
	if n := p.ctr.retries.Load(); n != 0 {
		t.Errorf("%d retries recorded for a timed-out seal", n)
	}

	for i := 0; i < 32; i++ {
		if _, err := c.RSEncode(msg); err != nil {
			t.Fatalf("rs-encode %d after the timeout: %v", i, err)
		}
	}
	if n := fake.conns.Load(); n != 1 {
		t.Errorf("backend accepted %d connections, want 1: the timeout must not drop the connection", n)
	}
	checkLedger(t, p)
}

// TestProxyEjectKeepsInFlight: ejecting a backend retires its
// connection without cutting it, so a seal in flight when the probes
// eject the backend still completes; readmission dials fresh.
func TestProxyEjectKeepsInFlight(t *testing.T) {
	entered := make(chan struct{}, 1)
	ejected := make(chan struct{})
	fake := startFake(t, func(m *server.Message) (*server.Message, bool) {
		if m.Op == server.OpSeal {
			entered <- struct{}{}
			select {
			case <-ejected:
			case <-time.After(5 * time.Second):
			}
		}
		return &server.Message{Op: m.Op, Payload: []byte("done")}, true
	})
	var down atomic.Bool
	p, addr := startProxy(t, fastHealth(Config{
		Backends: []BackendSpec{{Addr: fake.addr(), Admin: fakeAdmin(t, &down)}},
	}))
	c := dialProxy(t, addr)

	sealed := make(chan error, 1)
	go func() {
		_, err := c.Seal(make([]byte, server.NonceSize), []byte("in flight"))
		sealed <- err
	}()
	<-entered
	down.Store(true)
	waitFor(t, 5*time.Second, "ejection of the backend", func() bool { return !p.backends[0].healthy() })
	close(ejected)
	if err := <-sealed; err != nil {
		t.Fatalf("seal in flight across the ejection: %v", err)
	}

	down.Store(false)
	waitFor(t, 5*time.Second, "readmission of the backend", func() bool { return p.backends[0].healthy() })
	if _, err := c.RSEncode(make([]byte, 239)); err != nil {
		t.Fatal(err)
	}
	if n := fake.conns.Load(); n != 2 {
		t.Errorf("backend accepted %d connections, want 2: readmission must dial fresh", n)
	}
	checkLedger(t, p)
}
