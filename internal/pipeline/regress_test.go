package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
)

// The Hist bucket-boundary and quantile regressions moved to
// internal/perf/hist_test.go with the type.

// TestReorderThroughSubmit drives the in-order delivery through the
// public path only. Every 5th frame carries a width-4 payload that the
// first stage fails, so it skips the second stage and reaches delivery
// early; the second stage stalls on every 4th Seq, so frames also
// finish it out of order. Delivery must still be dense Seq order, each
// failed frame must keep its own Err and FailedAt, and the sink must
// charge a failed width-4 frame 4 codewords.
func TestReorderThroughSubmit(t *testing.T) {
	const frames = 60
	errBatch := errors.New("batched frame rejected")
	for _, queue := range []int{1, 4} {
		t.Run(fmt.Sprintf("queue=%d", queue), func(t *testing.T) {
			reject := Func{Label: "reject", F: func(f *Frame) error {
				f.Width = len(f.Data)
				if f.Width == 4 {
					return errBatch
				}
				return nil
			}}
			var mu sync.Mutex
			var finished []uint64
			stall := Func{Label: "stall", F: func(f *Frame) error {
				if f.Seq%4 == 0 {
					time.Sleep(2 * time.Millisecond)
				}
				mu.Lock()
				finished = append(finished, f.Seq)
				mu.Unlock()
				return nil
			}}
			p := Must(Config{Workers: 4, Queue: queue}, reject, stall)
			payloads := make([][]byte, frames)
			for i := range payloads {
				payloads[i] = []byte{byte(i)}
				if i%5 == 0 {
					payloads[i] = []byte{byte(i), 1, 2, 3}
				}
			}
			got, err := p.Start().Drain(payloads)
			if !errors.Is(err, errBatch) {
				t.Fatalf("Drain error = %v, want the rejected batch", err)
			}
			if len(got) != frames {
				t.Fatalf("delivered %d frames, want %d", len(got), frames)
			}
			var failed int64
			for i, f := range got {
				if f.Seq != uint64(i) {
					t.Fatalf("delivery %d carries seq %d, want dense Seq order", i, f.Seq)
				}
				if f.Data[0] != byte(i) {
					t.Fatalf("frame %d carries payload %d", i, f.Data[0])
				}
				if i%5 != 0 {
					if f.Err != nil {
						t.Fatalf("frame %d failed: %v", i, f.Err)
					}
					continue
				}
				failed++
				if !errors.Is(f.Err, errBatch) || f.FailedAt != "reject" {
					t.Errorf("frame %d: Err %v FailedAt %q, want the reject stage's error", i, f.Err, f.FailedAt)
				}
				if f.Width != 4 {
					t.Errorf("frame %d: Width %d, want 4", i, f.Width)
				}
			}
			if sort.SliceIsSorted(finished, func(i, j int) bool { return finished[i] < finished[j] }) {
				t.Errorf("stall stage finished frames in Seq order %v; the test needs them out of order", finished)
			}
			if n := p.Stats()[1].Frames.Load(); n != frames-failed {
				t.Errorf("stall stage processed %d frames, want %d (failed frames skip it)", n, frames-failed)
			}
			sk := &p.Sink
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"Frames", sk.Frames.Load(), frames},
				{"Codewords", sk.Codewords.Load(), frames - failed + 4*failed},
				{"Failed", sk.Failed.Load(), failed},
				{"FailedCodewords", sk.FailedCodewords.Load(), 4 * failed},
			} {
				if c.got != c.want {
					t.Errorf("Sink.%s = %d, want %d", c.name, c.got, c.want)
				}
			}
			if n := p.Total.Count(); n != frames {
				t.Errorf("Total has %d samples, want %d", n, frames)
			}
		})
	}
}

// TestSubmitTaggedEpoch: the epoch tag must ride the frame through the
// pipeline unchanged, and plain Submit means epoch 0.
func TestSubmitTaggedEpoch(t *testing.T) {
	pl := Must(Config{Workers: 2, Queue: 4}, Func{Label: "id", F: func(f *Frame) error { return nil }})
	r := pl.Start()
	go func() {
		r.SubmitTagged([]byte{0}, 7)
		r.Submit([]byte{1})
		r.SubmitTagged([]byte{2}, 9)
		r.Close()
	}()
	var epochs []int
	for f := range r.Out() {
		epochs = append(epochs, f.Epoch)
	}
	if len(epochs) != 3 || epochs[0] != 7 || epochs[1] != 0 || epochs[2] != 9 {
		t.Fatalf("epochs %v, want [7 0 9]", epochs)
	}
}

// TestCorruptTVWorkerIndependence: schedule-driven corruption is keyed
// on Frame.Seq, so the corrupted bytes must be identical for any worker
// count — unlike Corrupt, whose streams are per worker.
func TestCorruptTVWorkerIndependence(t *testing.T) {
	tv, err := channel.NewTimeVarying([]channel.Episode{
		{Frames: 16, StartEbN0: 2, EndEbN0: 2},
		{Frames: 16, StartEbN0: 2, EndEbN0: 0, Burst: true},
	}, 99)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := func(workers int) [][]byte {
		stage, err := NewCorruptTV(tv, 8)
		if err != nil {
			t.Fatal(err)
		}
		pl := Must(Config{Workers: workers, Queue: 32}, stage)
		r := pl.Start()
		payloads := randPayloads(t, 32, 64, 5)
		frames, err := r.Drain(payloads)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(frames))
		for i, f := range frames {
			out[i] = f.Data
		}
		return out
	}
	a := corrupted(1)
	b := corrupted(4)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d corrupted differently with 1 vs 4 workers", i)
		}
	}
}
