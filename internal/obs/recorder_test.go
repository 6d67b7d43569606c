package obs

import (
	"sync"
	"testing"
)

// A Recorder shared by concurrently emitting goroutines must not lose or tear
// events. Each backend serializes its own stream, but two engines running in
// parallel do not serialize against each other — this is the case the mutex
// exists for, and the one -race checks here.
func TestRecorderConcurrentEmit(t *testing.T) {
	var rec Recorder
	fn := rec.Func()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fn(Event{Kind: KindMinibatch, VW: g, Minibatch: i + 1})
			}
		}(g)
	}
	wg.Wait()
	if rec.Len() != goroutines*perG {
		t.Fatalf("recorded %d events, want %d", rec.Len(), goroutines*perG)
	}
	// Per-goroutine (per-VW) order must survive interleaving: each VW's
	// minibatch numbers arrive strictly increasing.
	last := map[int]int{}
	for _, e := range rec.Events() {
		if e.Minibatch <= last[e.VW] {
			t.Fatalf("vw %d minibatch %d arrived after %d", e.VW, e.Minibatch, last[e.VW])
		}
		last[e.VW] = e.Minibatch
	}
}

// Events must return a copy: appending after the snapshot is taken must not
// mutate what the caller already holds.
func TestRecorderEventsIsASnapshot(t *testing.T) {
	var rec Recorder
	fn := rec.Func()
	fn(Event{Kind: KindPull, Clock: 1})
	snap := rec.Events()
	fn(Event{Kind: KindPull, Clock: 2})
	if len(snap) != 1 || snap[0].Clock != 1 {
		t.Errorf("snapshot mutated: %+v", snap)
	}
	if rec.Len() != 2 {
		t.Errorf("Len = %d, want 2", rec.Len())
	}
}
