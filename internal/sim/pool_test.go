package sim

import "testing"

// Reset must restore a warm engine to a state indistinguishable from a fresh
// one: same firing order, same clock, no leftover events, and the arena's
// capacity reused rather than regrown.
func TestEngineReset(t *testing.T) {
	run := func(e *Engine) []int {
		var got []int
		// Registered fresh each run: Reset drops handler registrations.
		fire := e.Register(func(a, _ int32, _ float64) { got = append(got, int(a)) })
		e.AtID(3, fire, 3, 0, 0)
		e.AtID(1, fire, 1, 0, 0)
		e.AtID(2, fire, 2, 0, 0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	e := New()
	first := run(e)
	// Leave events pending, then reset mid-flight.
	leftover := e.Register(func(_, _ int32, _ float64) { t.Error("leftover event fired after Reset") })
	for i := 0; i < 4; i++ {
		e.AtID(e.Now()+1, leftover, 0, 0, 0)
	}
	arena := len(e.slots)
	e.Reset()
	if e.Now() != 0 || e.Fired() != 0 || e.Step() {
		t.Fatalf("after Reset: now=%v fired=%d, want 0, 0 and nothing queued", e.Now(), e.Fired())
	}
	second := run(e)
	if len(first) != len(second) {
		t.Fatalf("warm run fired %d events, cold %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("warm run diverged at %d: %d vs %d", i, second[i], first[i])
		}
	}
	if e.Now() != 3 {
		t.Fatalf("warm run clock = %v, want 3", e.Now())
	}
	if len(e.slots) != arena {
		t.Fatalf("warm run grew the arena from %d to %d slots", arena, len(e.slots))
	}
}

// The pooled scheduling path must not allocate once the arena has grown to
// the simulation's peak pending count, and the pooled Resource path must not
// allocate per job.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := New()
	fire := e.Register(func(_, _ int32, _ float64) {})
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.AfterID(Duration(i%7), fire, int32(i), 0, 0)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state engine allocations = %v per run, want 0", allocs)
	}

	r := NewResource(e, "dev")
	count := 0
	var id int32
	id = r.Register(func(a, _ int32, _ float64) {
		count++
		if a > 0 {
			r.SubmitID(1, id, a-1, 0)
		}
	})
	allocs = testing.AllocsPerRun(100, func() {
		r.SubmitID(1, id, 16, 0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state resource allocations = %v per run, want 0", allocs)
	}
	if count == 0 {
		t.Fatal("resource jobs never completed")
	}
}

// SubmitID must deliver the job's hold duration to the registered completion
// handler and keep FIFO accounting: completion times, served count, and busy
// time.
func TestResourceSubmitID(t *testing.T) {
	e := New()
	r := NewResource(e, "gpu")
	type rec struct {
		a   int32
		x   float64
		end Time
	}
	var got []rec
	id := r.Register(func(a, _ int32, x float64) { got = append(got, rec{a: a, x: x, end: e.Now()}) })
	r.SubmitID(2, id, 0, 0)
	r.SubmitID(3, id, 1, 0)
	r.SubmitID(1, id, 2, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{0, 2, 2}, {1, 3, 5}, {2, 1, 6}}
	if len(got) != len(want) {
		t.Fatalf("completions = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if r.Served() != 3 || r.BusyTime() != 6 {
		t.Fatalf("served=%d busy=%v, want 3, 6", r.Served(), r.BusyTime())
	}
	if r.Utilization() != 1 {
		t.Fatalf("utilization = %v, want 1", r.Utilization())
	}
}
