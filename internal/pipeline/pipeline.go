// Package pipeline executes Pipelined Model Parallelism within one virtual
// worker on the discrete-event simulator. The execution discipline is
// pluggable (Config.Schedule, see internal/sched); the default is the
// paper's own, following Section 4:
//
//   - up to Nm minibatches are in flight concurrently; a new minibatch is
//     injected as soon as one completes (and any external gate admits it);
//   - forward passes of a stage execute in minibatch order, as do backward
//     passes (conditions 1 and 2), with FIFO scheduling among ready tasks
//     (condition 3) — the natural consequence of FIFO device queues fed by
//     in-order upstream completions;
//   - on the last partition, the forward and backward passes of a minibatch
//     run as a single fused task;
//   - activations flow downstream and local gradients upstream; receiving a
//     transfer serializes with computation on the receiving GPU, matching
//     the paper's partition cost model (Section 7 defines a partition's
//     execution time as computation plus the time to *receive* activations
//     and gradients, and Section 9 notes that PipeDream-style
//     communication/computation overlap would be a further improvement —
//     i.e. HetPipe does not overlap them).
//
// Five further schedules relax those choices, and three runners execute all
// six: a FIFO runner ("hetpipe-fifo", and "hetpipe-overlap", which keeps the
// discipline but overlaps receives with computation — the Section 9
// improvement), a gpipe runner (fill-drain waves with a sync barrier between
// fill and drain), and a chunked 1F1B runner over the plan's k*V virtual
// stages ("1f1b", the strict one-forward-one-backward steady state holding at
// most stage-depth activations; "2bw", PipeDream-2BW, whose divergence from
// 1f1b is the memory model, not the task graph; and "interleaved",
// Megatron-LM's virtual-stage 1F1B with overlapped transfers). Whether a
// receive occupies the receiving GPU comes from Schedule.OverlapRecv. Every
// schedule honors the same InjectGate/OnComplete contract, so WSP couples
// them all.
//
// The package reports steady-state throughput, per-GPU utilization, and an
// optional execution trace (Figure 1).
package pipeline

import (
	"fmt"

	"hetpipe/internal/hw"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

// Config parameterizes one virtual worker's pipeline run.
type Config struct {
	// Plan is the stage assignment from the partitioner.
	Plan *partition.Plan
	// Cluster classifies links between stage GPUs.
	Cluster *hw.Cluster
	// Perf supplies transfer times.
	Perf *profile.Perf
	// Schedule selects the execution discipline; nil means sched.Default()
	// (hetpipe-fifo, the paper's Section 4 behavior).
	Schedule sched.Schedule
	// Minibatches is the total number of minibatches to process.
	Minibatches int
	// Warmup minibatches are excluded from the throughput measurement.
	Warmup int
	// Trace, when non-nil, records the execution schedule.
	Trace *trace.Trace
	// TaskTime, when non-nil, adjusts the duration of every scheduled stage
	// task (and overlap-schedule transfer) of minibatch p on stage s: it
	// receives the schedule's base duration in seconds and returns the one to
	// use. Fault injection (internal/fault) threads straggler slowdowns and
	// crash downtime through this hook; nil means identity, and every
	// schedule produces bit-identical timings with a nil or identity hook.
	TaskTime func(p, s int, base float64) float64
	// InjectGate, when non-nil, is consulted before injecting minibatch p
	// (1-based). Returning false defers the injection until Poke is called;
	// WSP uses this to enforce the clock-distance bound D.
	InjectGate func(p int) bool
	// OnComplete, when non-nil, fires when minibatch p finishes its backward
	// pass on the first stage (the minibatch's completion point).
	OnComplete func(p int, at sim.Time)
}

// Result summarizes a pipeline run.
type Result struct {
	// Throughput is samples/second measured after warmup.
	Throughput float64
	// Elapsed is the simulated time at the last completion.
	Elapsed sim.Time
	// GPUUtil is per-stage device utilization over the whole run.
	GPUUtil []float64
	// MaxGPUUtil is the maximum entry of GPUUtil — the Figure 3 metric.
	MaxGPUUtil float64
	// Completions holds each minibatch's completion time, in order.
	Completions []sim.Time
}

// runner is the schedule-specific injection-and-task-graph strategy behind a
// Pipeline. poke drives the injection loop (initial fill, gate retries, and
// refills after completions); the shared bookkeeping lives on Pipeline.
type runner interface {
	poke()
}

// Pipeline is the live simulation object for one virtual worker.
type Pipeline struct {
	cfg   Config
	eng   *sim.Engine
	k     int
	nm    int // in-flight cap: Schedule.InFlightCap(k*V, Plan.Nm)
	batch int

	gpus []*sim.Resource // compute engine per stage

	injected  int // minibatches injected so far
	completed int // minibatches fully done
	inflight  int
	waiting   bool // an injection is blocked on the gate
	finished  []sim.Time

	run runner
}

// New builds the pipeline on the engine. Start must be called to begin.
func New(eng *sim.Engine, cfg Config) (*Pipeline, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("pipeline: nil plan")
	}
	if cfg.Minibatches < 1 {
		return nil, fmt.Errorf("pipeline: need at least one minibatch")
	}
	if cfg.Warmup >= cfg.Minibatches {
		return nil, fmt.Errorf("pipeline: warmup %d >= total %d", cfg.Warmup, cfg.Minibatches)
	}
	cfg.Schedule = sched.Or(cfg.Schedule)
	k := len(cfg.Plan.Stages)
	if cfg.Plan.InterleaveDegree() > 1 && !cfg.Schedule.SupportsInterleave() {
		return nil, fmt.Errorf("pipeline: schedule %q cannot run an interleaved plan (V=%d)",
			cfg.Schedule.Name(), cfg.Plan.InterleaveDegree())
	}
	pl := &Pipeline{
		cfg:   cfg,
		eng:   eng,
		k:     k,
		nm:    cfg.Schedule.InFlightCap(k*cfg.Plan.InterleaveDegree(), cfg.Plan.Nm),
		batch: cfg.Plan.Batch,
	}
	pl.gpus = make([]*sim.Resource, 0, k)
	pl.finished = make([]sim.Time, 0, cfg.Minibatches)
	for s := 0; s < k; s++ {
		pl.gpus = append(pl.gpus, sim.NewResource(eng, fmt.Sprintf("gpu%d", s)))
	}
	overlap := cfg.Schedule.OverlapRecv()
	switch cfg.Schedule.Name() {
	case sched.NameFIFO, sched.NameOverlap:
		pl.run = newFifoRunner(pl, overlap)
	case sched.NameGPipe:
		pl.run = newGPipeRunner(pl)
	case sched.NameOneF1B, sched.NameTwoBW, sched.NameInterleaved:
		pl.run = newChunkRunner(pl, overlap)
	default:
		return nil, fmt.Errorf("pipeline: no executor for schedule %q", cfg.Schedule.Name())
	}
	return pl, nil
}

// Schedule reports the resolved execution discipline.
func (pl *Pipeline) Schedule() sched.Schedule { return pl.cfg.Schedule }

// Start injects the initial window of minibatches.
func (pl *Pipeline) Start() { pl.Poke() }

// Poke retries a gated injection; WSP calls it when global state advances.
func (pl *Pipeline) Poke() { pl.run.poke() }

// Waiting reports whether an injection is currently blocked on the gate.
func (pl *Pipeline) Waiting() bool { return pl.waiting }

// Completed reports how many minibatches have fully finished.
func (pl *Pipeline) Completed() int { return pl.completed }

// InFlight reports how many minibatches are currently in the pipeline.
func (pl *Pipeline) InFlight() int { return pl.inflight }

// inject runs the shared gated-injection loop: while the in-flight window
// has room and minibatches remain, consult the gate, account the waiting
// flag, and hand each admitted minibatch to start. Every runner except
// gpipe (whose wave barrier changes the loop condition) drives its poke
// through this, so gate semantics cannot silently diverge per schedule.
func (pl *Pipeline) inject(start func(p int)) {
	for pl.inflight < pl.nm && pl.injected < pl.cfg.Minibatches {
		p := pl.injected + 1 // 1-based minibatch number
		if pl.cfg.InjectGate != nil && !pl.cfg.InjectGate(p) {
			pl.waiting = true
			return
		}
		pl.waiting = false
		pl.injected++
		pl.inflight++
		start(p)
	}
}

// complete marks minibatch p done: its backward pass reached stage 0 and the
// virtual worker applied the local update (Section 4's wlocal += up).
//
//hetlint:hotpath
func (pl *Pipeline) complete(p int) {
	pl.completed++
	pl.inflight--
	pl.finished = append(pl.finished, pl.eng.Now())
	if pl.cfg.OnComplete != nil {
		pl.cfg.OnComplete(p, pl.eng.Now())
	}
	pl.Poke()
}

// time resolves the actual duration of a stage task through the TaskTime
// hook; with no hook installed the base duration passes through unchanged.
func (pl *Pipeline) time(p, s int, base float64) float64 {
	if pl.cfg.TaskTime == nil {
		return base
	}
	return pl.cfg.TaskTime(p, s, base)
}

// dur is time as a sim.Duration, for Submit and After sites.
func (pl *Pipeline) dur(p, s int, base float64) sim.Duration {
	return sim.Duration(pl.time(p, s, base))
}

// register binds a completion handler on every stage device. Handlers are
// registered in the same order on every resource, so the returned id is
// valid for all of them.
func (pl *Pipeline) register(fn sim.EventFunc) int32 {
	var id int32
	for _, g := range pl.gpus {
		id = g.Register(fn)
	}
	return id
}

// traceAdd records a span when tracing is enabled.
func (pl *Pipeline) traceAdd(stage, p int, kind trace.SpanKind, start, end sim.Time) {
	if pl.cfg.Trace != nil {
		pl.cfg.Trace.Add(stage, p, kind, start, end)
	}
}

// Result summarizes the run; call after the engine has drained.
func (pl *Pipeline) Result() (*Result, error) {
	if pl.completed != pl.cfg.Minibatches {
		return nil, fmt.Errorf("pipeline: %d of %d minibatches completed (deadlock or gate starvation)",
			pl.completed, pl.cfg.Minibatches)
	}
	r := &Result{Completions: pl.finished, Elapsed: pl.finished[len(pl.finished)-1]}
	for s, g := range pl.gpus {
		u := float64(g.BusyTime()) / float64(r.Elapsed)
		r.GPUUtil = append(r.GPUUtil, u)
		if u > r.MaxGPUUtil {
			r.MaxGPUUtil = u
		}
		_ = s
	}
	// Steady-state throughput: samples completed after warmup over the time
	// from the warmup-th completion to the last.
	w := pl.cfg.Warmup
	if w == 0 {
		r.Throughput = float64(pl.cfg.Minibatches*pl.batch) / float64(r.Elapsed)
		return r, nil
	}
	span := float64(r.Completions[len(r.Completions)-1] - r.Completions[w-1])
	if span <= 0 {
		return nil, fmt.Errorf("pipeline: degenerate measurement window")
	}
	r.Throughput = float64((pl.cfg.Minibatches-w)*pl.batch) / span
	return r, nil
}

// Run is the one-shot convenience: build, start, drain, summarize.
func Run(cfg Config) (*Result, error) {
	return RunOn(sim.New(), cfg)
}

// RunOn is Run on a caller-provided engine, which is Reset first: a warm
// engine keeps its grown event arena and heap across runs, so sweeps that
// re-simulate thousands of configurations pay the allocation cost once.
// Results are identical to Run on a fresh engine.
func RunOn(eng *sim.Engine, cfg Config) (*Result, error) {
	eng.Reset()
	eng.SetStepLimit(uint64(cfg.Minibatches)*1000 + 100000)
	pl, err := New(eng, cfg)
	if err != nil {
		return nil, err
	}
	pl.Start()
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return pl.Result()
}
