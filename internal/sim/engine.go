// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order (a
// monotonically increasing sequence number breaks ties), which makes every
// simulation run fully reproducible.
//
// The queue is an index-based 4-ary min-heap over a pooled event arena:
// scheduling an event reuses a free arena slot instead of allocating, the
// heap orders int32 slot ids instead of pointers, and no interface boxing
// happens anywhere on the hot path. Steady-state simulations therefore run
// allocation-free inside the engine; the only allocations are the arena's
// one-time growth to the peak number of concurrently pending events. Callers
// Register an EventFunc once and schedule it by id (AtID/AfterID), threading
// two integers and a float through the arena instead of capturing them in a
// closure, so the arena is pointer-free and the garbage collector never
// scans queue traffic. A scheduled event always fires: there is no
// cancellation, so every heap entry is live.
//
// All durations and timestamps are in seconds of virtual time. The engine is
// not safe for concurrent use; simulations are single-goroutine by design so
// that results are deterministic.
package sim

import (
	"context"
	"fmt"
)

// Time is an instant in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration float64

// EventFunc is a pooled event callback. The two integers and the float are
// caller-chosen payload (typically a minibatch number, a stage index, and a
// duration or start time), carried through the event arena so that
// scheduling needs no per-event closure. Handlers are installed once with
// Register and scheduled by id (AtID/AfterID), which keeps the event arena
// free of per-event function pointers — the garbage collector never scans
// queue traffic.
type EventFunc func(a, b int32, x float64)

// slot is one arena entry: the event's Register'd handler id ef and the
// handler's payload. It holds no pointers; the event's time lives in its heap
// entry.
type slot struct {
	x    float64
	a, b int32
	ef   int32
}

// heapEnt is one heap entry with the ordering key (at, seq) inlined, so
// sift-up and sift-down compare without touching the arena — the heap stays
// cache-resident even when the arena does not.
type heapEnt struct {
	at  Time
	seq uint64
	id  int32
}

// Engine is a discrete-event simulator.
//
// The zero value is not usable; construct with New.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	maxStep uint64 // safety bound; 0 means unlimited

	slots []slot      // event arena; heap entries index into it
	free  []int32     // free arena slots
	heap  []heapEnt   // 4-ary min-heap of queued events
	funcs []EventFunc // Register'd handlers, indexed by slot.ef
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetStepLimit bounds the total number of events the engine will fire;
// Run returns an error if the limit is hit. Zero disables the limit.
func (e *Engine) SetStepLimit(n uint64) { e.maxStep = n }

// Reset returns the engine to the zero-clock empty state while keeping the
// arena and heap capacity, so a warm engine re-simulates without re-growing
// any internal storage. Pending events are dropped, and so are Register'd
// handlers (re-register after Reset). The step limit is retained.
func (e *Engine) Reset() {
	for _, ent := range e.heap {
		e.free = append(e.free, ent.id)
	}
	e.heap = e.heap[:0]
	e.now, e.seq, e.fired = 0, 0, 0
	e.funcs = e.funcs[:0]
}

// alloc takes a slot from the free list, growing the arena when empty.
//
//hetlint:hotpath
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// less orders heap entries by (time, sequence).
func less(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts an entry, sifting up through the 4-ary heap.
//
//hetlint:hotpath
func (e *Engine) heapPush(ent heapEnt) {
	e.heap = append(e.heap, ent)
	c := len(e.heap) - 1
	for c > 0 {
		p := (c - 1) / 4
		if !less(e.heap[c], e.heap[p]) {
			break
		}
		e.heap[c], e.heap[p] = e.heap[p], e.heap[c]
		c = p
	}
}

// heapPop removes and returns the minimum entry, sifting the displaced last
// element down through the 4-ary heap with the hole method.
//
//hetlint:hotpath
func (e *Engine) heapPop() heapEnt {
	top := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if less(e.heap[c], e.heap[min]) {
					min = c
				}
			}
			if !less(e.heap[min], last) {
				break
			}
			e.heap[i] = e.heap[min]
			i = min
		}
		e.heap[i] = last
	}
	return top
}

// Register installs a pooled event handler and returns its id for AtID and
// AfterID. Handlers are engine-lifetime (until Reset); scheduling against an
// unregistered id panics at fire time. Register once at setup — ids are
// dense from 0, in registration order.
func (e *Engine) Register(fn EventFunc) int32 {
	e.funcs = append(e.funcs, fn)
	return int32(len(e.funcs) - 1)
}

// AtID schedules the Register'd handler id to fire as fn(a, b, x) at
// absolute time t without allocating: the payload rides in the event arena
// instead of a closure. Scheduling in the past panics: it is always a bug in
// the simulation, never a recoverable condition.
func (e *Engine) AtID(t Time, id, a, b int32, x float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	slotID := e.alloc()
	e.slots[slotID] = slot{x: x, a: a, b: b, ef: id}
	e.heapPush(heapEnt{at: t, seq: e.seq, id: slotID})
}

// AfterID schedules the Register'd handler id to fire as fn(a, b, x) d
// seconds from now without allocating. Negative d panics.
func (e *Engine) AfterID(d Duration, id, a, b int32, x float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: event scheduled with negative delay %v", d))
	}
	e.AtID(e.now+Time(d), id, a, b, x)
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports false when no events remain.
//
//hetlint:hotpath
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ent := e.heapPop()
	if ent.at < e.now {
		panic("sim: clock went backwards")
	}
	e.now = ent.at
	e.fired++
	// Free before firing so the callback can schedule into the slot; the
	// callback state is copied out first.
	s := e.slots[ent.id]
	e.free = append(e.free, ent.id)
	e.funcs[s.ef](s.a, s.b, s.x)
	return true
}

// Run fires events until the queue drains. It returns an error if the
// configured step limit is exceeded, which usually indicates a livelock in
// the modeled system.
func (e *Engine) Run() error {
	return e.RunContext(context.Background())
}

// ctxCheckInterval is how many fired events elapse between context polls in
// RunContext. Polling a Done channel costs a select per check; amortizing it
// over a batch of events keeps the hot loop tight while still bounding
// cancellation latency to a fraction of a millisecond of real time.
const ctxCheckInterval = 256

// RunContext fires events until the queue drains or ctx is cancelled,
// whichever comes first. On cancellation it stops between events (an event
// callback is never interrupted mid-flight) and returns ctx.Err(), so a
// caller can distinguish context.Canceled / context.DeadlineExceeded from
// simulation failures. The step-limit error behaves as in Run.
func (e *Engine) RunContext(ctx context.Context) error {
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	for e.Step() {
		if e.maxStep > 0 && e.fired > e.maxStep {
			return fmt.Errorf("sim: step limit %d exceeded at t=%v", e.maxStep, e.now)
		}
		if done != nil && e.fired%ctxCheckInterval == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
	}
	return nil
}
