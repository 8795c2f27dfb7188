package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecc"
	"repro/internal/server"
)

// sample is one answered request: its op, the stream that sent it, its
// round-trip latency, when (from the start of its phase) the answer
// arrived, and the verified codec payload bytes it carried.
type sample struct {
	kind   opKind
	stream uint8
	us     float64
	end    time.Duration
	user   int
}

// sessionReply is a secure-session answer kept for checking after the
// timed window, where opening it with the client key costs nothing.
type sessionReply struct {
	req  *request
	resp []byte
	sample
}

// tally is what one phase, or one slot of it, observed.
type tally struct {
	samples   []sample // requests answered correctly
	attempted int
	failed    int
	sessions  []sessionReply
	why       []string // first few failure descriptions
}

func (t *tally) fail(why string) {
	t.failed++
	if len(t.why) < 5 {
		t.why = append(t.why, why)
	}
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.sessions = append(t.sessions, o.sessions...)
	for _, w := range o.why {
		if len(t.why) < 5 {
			t.why = append(t.why, w)
		}
	}
}

// check compares one answer with the local reference. Sessions are
// accepted here and opened later by checkSessions.
func check(r *request, resp *server.Message, err error) string {
	if r.reject {
		var se *server.StatusError
		if errors.As(err, &se) && se.Status == server.StatusCodecFailed {
			return ""
		}
		return fmt.Sprintf("%v: tampered signature not rejected (err %v)", r.kind, err)
	}
	if err != nil {
		return fmt.Sprintf("%v: %v", r.kind, err)
	}
	switch r.kind {
	case opVerify:
		if len(resp.Payload) != 0 {
			return "ecdsa-verify: non-empty answer"
		}
	case opSession:
	default:
		if !bytes.Equal(resp.Payload, r.want) {
			return fmt.Sprintf("%v: answer differs from the local reference", r.kind)
		}
	}
	return ""
}

// checkSessions opens every session answer with its client key and
// ecc.OpenSessionResponse after the timed window, on two goroutines,
// and counts each as a correct sample or a failure.
func checkSessions(t *tally) {
	bad := make([]bool, len(t.sessions))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(t.sessions); i += 2 {
				s := t.sessions[i]
				pub := s.req.payload[:len(s.req.payload)-len(s.req.challenge)]
				_, ch, err := ecc.OpenSessionResponse(s.req.key, pub, s.resp)
				bad[i] = err != nil || !bytes.Equal(ch, s.req.challenge)
			}
		}(g)
	}
	wg.Wait()
	for i, s := range t.sessions {
		if bad[i] {
			t.fail("secure-session: response does not open with the client key")
		} else {
			t.samples = append(t.samples, s.sample)
		}
	}
	t.sessions = nil
}

var clientSpan [numOps]string

func init() {
	for k := opKind(0); k < numOps; k++ {
		clientSpan[k] = "client." + k.String()
	}
}

// phaseResult is one closed-loop phase: what it observed and how long
// it ran, from the first request sent to the last answer received.
type phaseResult struct {
	tally
	elapsed time.Duration
}

// runPhase drives streams[i] on clients[i] for d: each stream keeps
// window requests in flight, one goroutine per slot, each sending its
// next request as soon as its previous one is answered. Slots stop
// sending once d has passed, and the phase ends when all are answered.
// With tr non-nil every request is wrapped in a span.
func runPhase(clients []*server.Client, streams []*stream, d time.Duration, tr *tracer) phaseResult {
	return drive(clients, streams, d, math.MaxUint64, tr)
}

// runRequests drives the streams as runPhase does until each has sent
// n requests: a fixed amount of work, whatever the rate.
func runRequests(clients []*server.Client, streams []*stream, n uint64) phaseResult {
	return drive(clients, streams, 24*time.Hour, n, nil)
}

func drive(clients []*server.Client, streams []*stream, d time.Duration, limit uint64, tr *tracer) phaseResult {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var total tally
	var wg sync.WaitGroup
	for i, st := range streams {
		c := clients[i]
		var next atomic.Uint64
		var root uint64
		if tr != nil {
			root = tr.newID()
		}
		for w := 0; w < st.window; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var t tally
				var spans []span
				for time.Now().Before(deadline) {
					seq := next.Add(1) - 1
					if seq >= limit {
						break
					}
					r := &st.reqs[seq%uint64(len(st.reqs))]
					t0 := time.Now()
					resp, err := c.Call(opWire[r.kind], r.params, r.payload)
					t1 := time.Now()
					if tr != nil {
						spans = append(spans, tr.span(clientSpan[r.kind], root, seq, t0, t1))
					}
					t.attempted++
					if why := check(r, resp, err); why != "" {
						t.fail(why)
						continue
					}
					x := sample{r.kind, uint8(i), float64(t1.Sub(t0).Nanoseconds()) / 1e3, t1.Sub(start), r.user}
					if r.kind == opSession {
						t.sessions = append(t.sessions, sessionReply{r, resp.Payload, x})
						continue
					}
					t.samples = append(t.samples, x)
				}
				if tr != nil {
					tr.add(spans)
				}
				mu.Lock()
				total.merge(&t)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return phaseResult{tally: total, elapsed: time.Since(start)}
}

// dialAll opens one client connection per stream to addr.
func dialAll(addr string, n int) ([]*server.Client, error) {
	var cs []*server.Client
	for i := 0; i < n; i++ {
		c, err := server.Dial(addr, time.Second)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*server.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// hopProbe sends each request of reqs in turn on a, then on b, for d,
// and returns what each side observed.
func hopProbe(a, b *server.Client, reqs []request, d time.Duration) (ta, tb tally) {
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		r := &reqs[i%len(reqs)]
		for _, side := range []struct {
			c *server.Client
			t *tally
		}{{a, &ta}, {b, &tb}} {
			t0 := time.Now()
			resp, err := side.c.Call(opWire[r.kind], r.params, r.payload)
			t1 := time.Now()
			side.t.attempted++
			if why := check(r, resp, err); why != "" {
				side.t.fail(why)
				continue
			}
			side.t.samples = append(side.t.samples, sample{r.kind, 0, float64(t1.Sub(t0).Nanoseconds()) / 1e3, t1.Sub(start), r.user})
		}
	}
	return ta, tb
}
