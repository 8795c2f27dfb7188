package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// TestDoTimeout: a call the peer never answers returns ErrTimeout
// within a bounded time while a concurrent call on the same Client
// succeeds; the peer's late reply to the abandoned id is discarded and
// the client stays usable.
func TestDoTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan struct{})     // the peer has read the request it withholds
	late := make(chan struct{})     // closed to release the late reply
	lateSent := make(chan struct{}) // the late reply is on the wire
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var wmu sync.Mutex
		reply := func(m *Message, payload []byte) {
			wmu.Lock()
			defer wmu.Unlock()
			WriteResponse(nc, &Message{Op: m.Op, ID: m.ID, Payload: payload})
		}
		br := bufio.NewReader(nc)
		for {
			m, err := ReadRequest(br, DefaultMaxPayload)
			if err != nil {
				return
			}
			if string(m.Payload) != "hold" {
				reply(m, m.Payload)
				continue
			}
			close(held)
			go func() {
				<-late
				reply(m, []byte("late"))
				close(lateSent)
			}()
		}
	}()
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const d = 200 * time.Millisecond
	start := time.Now()
	timedOut := make(chan error, 1)
	go func() {
		_, err := c.DoTimeout(&Message{Op: OpRSEncode, Payload: []byte("hold")}, d)
		timedOut <- err
	}()
	<-held
	m, err := c.DoTimeout(&Message{Op: OpRSEncode, Payload: []byte("beside")}, 5*time.Second)
	if err != nil || string(m.Payload) != "beside" {
		t.Fatalf("concurrent call beside the withheld one: %v", err)
	}
	select {
	case err := <-timedOut:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("withheld call: %v, want ErrTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("withheld call still blocked 5s past its %v bound", d)
	}
	if el := time.Since(start); el < d {
		t.Errorf("withheld call timed out after %v, before its %v bound", el, d)
	}

	close(late)
	<-lateSent
	// Every reply below follows the late one on the wire, so the read
	// loop has discarded it by the time the first of them arrives.
	for i := 0; i < 3; i++ {
		m, err := c.Do(&Message{Op: OpRSEncode, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatalf("call %d after the timeout: %v", i, err)
		}
		if len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("call %d got payload %q: a reply was matched to the wrong call", i, m.Payload)
		}
	}
	c.mu.Lock()
	pending, cerr := len(c.pending), c.err
	c.mu.Unlock()
	if pending != 0 || cerr != nil {
		t.Errorf("after the late reply: %d pending calls, client error %v; want 0, nil", pending, cerr)
	}
}
