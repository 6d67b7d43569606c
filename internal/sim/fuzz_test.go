package sim

import (
	"sort"
	"testing"
)

// oracleEvent mirrors one scheduled event in the model queue: absolute time,
// scheduling order, and whether it has fired.
type oracleEvent struct {
	at    Time
	order int
	fired bool
}

// oracle is a sort-based reference implementation of the event queue: a flat
// list scanned for the (time, order) minimum on every step. Quadratic and
// boring on purpose.
type oracle struct {
	events []oracleEvent
	now    Time
	order  []int // firing order, by event index
}

func (o *oracle) add(at Time) int {
	o.events = append(o.events, oracleEvent{at: at, order: len(o.events)})
	return len(o.events) - 1
}

// step fires the pending event with the least (time, order) key, if any.
func (o *oracle) step() bool {
	best := -1
	for i := range o.events {
		ev := &o.events[i]
		if ev.fired {
			continue
		}
		if best < 0 || ev.at < o.events[best].at ||
			(ev.at == o.events[best].at && ev.order < o.events[best].order) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	o.events[best].fired = true
	o.now = o.events[best].at
	o.order = append(o.order, best)
	return true
}

// FuzzEventQueue drives random interleavings of schedule (relative AfterID
// and absolute AtID) and step against the sort-based oracle, asserting the
// identical (time, seq) total order, that Step reports an empty queue exactly
// when the oracle does, and that the engine is drained once Run returns.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 2, 3, 0})
	f.Add([]byte{1, 5, 1, 5, 1, 5, 2, 1, 2, 0, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 3, 1, 0, 7, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		var o oracle
		var got []int
		fireID := e.Register(func(a, _ int32, _ float64) { got = append(got, int(a)) })

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%3, data[i+1]
			switch op {
			case 0: // schedule, relative time
				id := o.add(e.Now() + Time(arg))
				e.AfterID(Duration(arg), fireID, int32(id), 0, 0)
			case 1: // schedule, absolute time
				at := e.Now() + Time(arg)
				id := o.add(at)
				e.AtID(at, fireID, int32(id), 0, 0)
			case 2: // step
				want := o.step()
				if gotStep := e.Step(); gotStep != want {
					t.Fatalf("op %d: Step() = %v, oracle %v", i, gotStep, want)
				}
			}
		}

		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for o.step() {
		}
		if e.Step() {
			t.Fatal("Step() = true after Run drained the queue")
		}
		if len(got) != len(o.order) {
			t.Fatalf("fired %d events, oracle fired %d", len(got), len(o.order))
		}
		for i := range got {
			if got[i] != o.order[i] {
				t.Fatalf("firing order diverged at %d: got ev %d, oracle ev %d", i, got[i], o.order[i])
			}
		}
		if e.Now() != o.now {
			t.Fatalf("final clock = %v, oracle %v", e.Now(), o.now)
		}
		// The firing order must match the sort-based total order over every
		// scheduled event.
		want := make([]int, len(o.events))
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			ea, eb := o.events[want[a]], o.events[want[b]]
			if ea.at != eb.at {
				return ea.at < eb.at
			}
			return ea.order < eb.order
		})
		if len(got) != len(want) {
			t.Fatalf("fired %d events, scheduled %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("total order diverged at %d: got ev %d, want ev %d", i, got[i], want[i])
			}
		}
	})
}
