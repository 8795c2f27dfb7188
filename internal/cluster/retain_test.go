package cluster

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/server"
)

// TestProxyForwardRetainsNoTimer: a completed forward must leave nothing
// live behind. The per-attempt ForwardTimeout timer is the one to watch:
// under go1.22 timer semantics an unstopped timer stays reachable until
// it fires (30s by default), which would pin a few hundred bytes per
// request. After thousands of proxied requests and a forced GC the
// retained heap per request must stay under maxRetained.
func TestProxyForwardRetainsNoTimer(t *testing.T) {
	const (
		requests    = 6000
		conns       = 4
		maxRetained = 64 // bytes per request
	)
	echo := startFake(t, func(m *server.Message) (*server.Message, bool) {
		return &server.Message{Op: m.Op, Payload: m.Payload}, true
	})
	_, addr := startProxy(t, Config{Backends: []BackendSpec{{Addr: echo.addr()}}})
	clients := make([]*server.Client, conns)
	for i := range clients {
		clients[i] = dialProxy(t, addr)
	}
	msg := make([]byte, 239)
	drive := func(n int) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *server.Client) {
				defer wg.Done()
				for i := 0; i < n/conns; i++ {
					if _, err := c.RSEncode(msg); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	drive(400) // warm buffers and the backend connection
	before := heap()
	drive(requests)
	after := heap()
	if t.Failed() {
		return
	}
	per := 0.0
	if after > before {
		per = float64(after-before) / requests
	}
	t.Logf("retained %.1f B per proxied request (heap %d -> %d)", per, before, after)
	if per > maxRetained {
		t.Errorf("retained %.1f B per proxied request after GC, want <= %d", per, maxRetained)
	}
}
