package obs

import "sync"

// Recorder accumulates every observed event in arrival order. Unlike a plain
// slice-appending closure it is safe to share across goroutines, so one
// recorder can tail several concurrent runs (each backend serializes its own
// emissions, but two engines running in parallel do not serialize against
// each other).
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Func returns the recording observer. The zero Recorder is ready to use.
func (r *Recorder) Func() Func {
	return func(e Event) {
		r.mu.Lock()
		r.events = append(r.events, e)
		r.mu.Unlock()
	}
}

// Events returns a copy of the recorded events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len reports how many events have been recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}
