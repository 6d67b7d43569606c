package train

import (
	"fmt"
	"math"
	"math/rand"

	"hetpipe/internal/metrics"
	"hetpipe/internal/tensor"
	"hetpipe/internal/wsp"
)

// WSPConfig parameterizes a co-simulated HetPipe training run: N pipelined
// virtual workers training one Task under the WSP protocol, with per-worker
// timing taken from the cluster simulator.
type WSPConfig struct {
	Task Task
	// Workers is the number of virtual workers, N.
	Workers int
	// SLocal is the local staleness threshold (Nm-1).
	SLocal int
	// D is the clock distance bound.
	D int
	// LR is the SGD step size.
	LR float64
	// Periods[w] is worker w's steady-state seconds per minibatch.
	Periods []float64
	// FillLatency[w] is the injection-to-completion latency of worker w's
	// pipeline; zero entries default to the period.
	FillLatency []float64
	// PushTime[w] / PullTime[w] are the per-wave parameter-sync transfer
	// times between worker w and the parameter servers.
	PushTime, PullTime []float64
	// Jitter is the relative per-minibatch duration noise (e.g. 0.08).
	Jitter float64
	// Seed drives all randomness.
	Seed int64
	// MaxMinibatches bounds each worker's minibatch count.
	MaxMinibatches int
	// EvalEvery evaluates accuracy every that many global completions.
	EvalEvery int
	// TargetAccuracy stops the run early once reached (0 disables).
	TargetAccuracy float64
	// TargetLoss stops the run early once the training loss drops to it
	// (0 disables). Loss is the sharper convergence criterion for tasks
	// whose accuracy saturates early.
	TargetLoss float64
}

func (c *WSPConfig) validate() error {
	switch {
	case c.Task == nil:
		return fmt.Errorf("train: nil task")
	case c.Workers < 1:
		return fmt.Errorf("train: need at least one worker")
	case c.SLocal < 0 || c.D < 0:
		return fmt.Errorf("train: negative staleness parameters")
	case c.LR <= 0:
		return fmt.Errorf("train: learning rate must be positive")
	case len(c.Periods) != c.Workers:
		return fmt.Errorf("train: %d periods for %d workers", len(c.Periods), c.Workers)
	case c.MaxMinibatches < 1:
		return fmt.Errorf("train: zero minibatch budget")
	case c.EvalEvery < 1:
		return fmt.Errorf("train: EvalEvery must be >= 1")
	case c.Jitter < 0 || c.Jitter >= 1:
		return fmt.Errorf("train: jitter must be in [0,1)")
	}
	for w, p := range c.Periods {
		if p <= 0 {
			return fmt.Errorf("train: worker %d period %g", w, p)
		}
	}
	return nil
}

// RunStats summarizes a co-simulated training run.
type RunStats struct {
	// Accuracy is held-out accuracy versus simulated seconds.
	Accuracy metrics.Series
	// Loss is training loss versus simulated seconds.
	Loss metrics.Series
	// TimeToTarget is the earliest simulated time TargetAccuracy was met.
	TimeToTarget  float64
	ReachedTarget bool
	// Minibatches is the total processed across workers.
	Minibatches int
	// Elapsed is the simulated time at the end of the run.
	Elapsed float64
	// Waiting is total gate-waiting time summed over workers; Idle is the
	// portion during which a worker's pipeline had fully drained — the
	// Section 8.4 decomposition.
	Waiting, Idle float64
	// Pushes counts wave pushes (communication rounds to the PS); Pulls
	// counts lazy pulls — both shrink as D grows.
	Pushes, Pulls int
	// FinalAccuracy and FinalLoss are the last evaluated values.
	FinalAccuracy float64
	FinalLoss     float64
	// FinalWeights is the parameter-server global weight vector at the end
	// of the run (w0 plus every pushed wave update) — the value the live
	// sharded-PS runtime (internal/cluster) must reproduce.
	FinalWeights tensor.Vector
	// MaxClockDistance is the largest observed clock skew between workers.
	MaxClockDistance int
}

func newRunStats() *RunStats {
	return &RunStats{Accuracy: metrics.Series{Name: "accuracy"}, Loss: metrics.Series{Name: "loss"}}
}

// evaluate appends the accuracy and loss of weights w at simulated time t and
// reports whether this is the first evaluation to meet a target (a zero
// target is disabled).
func (s *RunStats) evaluate(task Task, w tensor.Vector, t, targetAcc, targetLoss float64) bool {
	acc := task.Accuracy(w)
	loss := task.Loss(w)
	s.Accuracy.Append(t, acc)
	s.Loss.Append(t, loss)
	s.FinalAccuracy = acc
	s.FinalLoss = loss
	hitAcc := targetAcc > 0 && acc >= targetAcc
	hitLoss := targetLoss > 0 && loss <= targetLoss
	if (hitAcc || hitLoss) && !s.ReachedTarget {
		s.ReachedTarget = true
		s.TimeToTarget = t
		return true
	}
	return false
}

// finish ends a run at simulated time now with a final evaluation, unless one
// already ran at exactly this time, which would duplicate the curve's last
// point.
func (s *RunStats) finish(task Task, w tensor.Vector, now, targetAcc, targetLoss float64) {
	s.Elapsed = now
	if last, ok := s.Accuracy.Last(); !ok || last.T != now {
		s.evaluate(task, w, now, targetAcc, targetLoss)
	}
}

// snapshot is an in-flight minibatch's timing: its scheduled completion.
type snapshot struct {
	mb       int
	complete float64
}

// pendingMB is an injected-but-not-retired minibatch's numeric state: the
// weights it was injected with. The numeric pipeline retires minibatches at
// a fixed logical lag of Nm (retiring r when r+Nm-1 is injected), so the
// weights minibatch m trains with reflect local updates through exactly
// m-Nm — the paper's slocal staleness window — independent of timing.
type pendingMB struct {
	mb      int
	weights tensor.Vector
}

// wspWorker is one virtual worker's live state.
type wspWorker struct {
	id      int
	wlocal  tensor.Vector
	waveAcc tensor.Vector
	grad    tensor.Vector
	// inflight tracks timing (completion events); pending tracks numerics
	// (the logical depth-Nm weight window). They pop at different moments:
	// inflight at completion events, pending at the fixed logical lag.
	inflight []snapshot
	pending  []pendingMB
	// waveDeltas[v] is this worker's aggregated update of wave v, recorded
	// at the numeric retirement of the wave's last minibatch. It feeds the
	// global-weight fold at the wave-end completion event, the clock-c
	// prefix snapshots pulls read, and the own-update add-back after pulls.
	waveDeltas []tensor.Vector
	// lastPulled is the snapshot clock the worker last incorporated; pulls
	// are lazy — they happen only when the D-bound demands (which is why
	// larger D reduces synchronization traffic, Section 8.4). Only the
	// clock the gate actually required (and the worker has provably seen)
	// is credited, never the coordinator's instantaneous clock, which can
	// run ahead of what has arrived at simulated time now.
	lastPulled int
	// nextInject is the next 1-based minibatch to inject.
	nextInject int
	// lastScheduled is the completion time of the most recently scheduled
	// minibatch (sequencing successive completions one period apart).
	lastScheduled float64
	lastComplete  float64
	slotFreeAt    float64
	rng           *rand.Rand
	done          bool
	// free recycles retired pendingMB weight vectors, so the steady-state
	// inject/retire loop stops allocating one dim-sized copy per minibatch.
	free []tensor.Vector
}

// getWeights returns a recycled (or fresh) vector holding a copy of src.
func (w *wspWorker) getWeights(src tensor.Vector) tensor.Vector {
	if n := len(w.free); n > 0 {
		v := w.free[n-1]
		w.free = w.free[:n-1]
		copy(v, src)
		return v
	}
	return src.Clone()
}

// RunWSP executes the co-simulated HetPipe run.
//
// Timing and numerics are deliberately decoupled: the discrete-event side
// decides WHEN injections, completions, pushes, and gate waits happen, while
// the numeric dataflow (which updates each minibatch's weights reflect) is a
// pure function of the protocol parameters — snapshots at a fixed logical
// lag of Nm, pulls that read the clock-versioned global prefix. Periods,
// jitter, and transfer times therefore shape the time axis but never the
// trajectory, and the live sharded-PS runtime (internal/cluster) reproduces
// the exact same numbers, which the conformance harness asserts.
func RunWSP(cfg WSPConfig) (*RunStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	params := wsp.Params{SLocal: cfg.SLocal, D: cfg.D, Workers: cfg.Workers}
	coord, err := wsp.NewCoordinator(params)
	if err != nil {
		return nil, err
	}
	nm := params.WaveSize()

	fill := make([]float64, cfg.Workers)
	push := make([]float64, cfg.Workers)
	pull := make([]float64, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		fill[w] = cfg.Periods[w]
		if w < len(cfg.FillLatency) && cfg.FillLatency[w] > 0 {
			fill[w] = cfg.FillLatency[w]
		}
		if w < len(cfg.PushTime) {
			push[w] = cfg.PushTime[w]
		}
		if w < len(cfg.PullTime) {
			pull[w] = cfg.PullTime[w]
		}
	}

	wglobal := cfg.Task.InitWeights()
	dim := len(wglobal)
	workers := make([]*wspWorker, cfg.Workers)
	for w := range workers {
		workers[w] = &wspWorker{
			id:         w,
			wlocal:     wglobal.Clone(),
			waveAcc:    tensor.NewVector(dim),
			grad:       tensor.NewVector(dim),
			nextInject: 1,
			rng:        rand.New(rand.NewSource(cfg.Seed + int64(w)*7919)),
		}
	}

	// prefix[c] is the clock-c snapshot of the global weights: w0 plus every
	// worker's wave-v update with v < c — what ps.Server.PullAt serves in
	// the live runtime. Built lazily; a pull at clock c is only reachable
	// once every worker's wave c-1 delta has been recorded.
	prefix := []tensor.Vector{wglobal.Clone()}
	snapshotAt := func(c int) tensor.Vector {
		for len(prefix) <= c {
			wave := len(prefix) - 1
			next := prefix[wave].Clone()
			for _, w := range workers {
				next.AddInPlace(w.waveDeltas[wave])
			}
			prefix = append(prefix, next)
		}
		return prefix[c]
	}

	// pushVisible[c] is when the global clock reached c (the last push of
	// wave c-1 arrived at the servers); index 0 is time zero. pushArrive[w]
	// holds the arrival times of worker w's pushes, in wave order.
	pushVisible := []float64{0}
	pushArrive := make([][]float64, cfg.Workers)

	stats := newRunStats()
	completionsSinceEval := 0
	now := 0.0

	// retire folds the oldest pending minibatch's gradient into the local
	// weights; at a wave end it also seals the wave's aggregated delta (the
	// push CONTENT — the push TIME is the wave-end completion event).
	retire := func(w *wspWorker) {
		p := w.pending[0]
		w.pending = w.pending[1:]
		cfg.Task.Grad(p.weights, MinibatchIndex(w.id, p.mb, cfg.Workers), w.grad)
		w.free = append(w.free, p.weights)
		// Local update: wlocal += u, u = -lr * grad (Section 4).
		w.wlocal.AXPY(-cfg.LR, w.grad)
		w.waveAcc.AXPY(-cfg.LR, w.grad)
		if params.IsWaveEnd(p.mb) {
			w.waveDeltas = append(w.waveDeltas, w.waveAcc.Clone())
			w.waveAcc.Zero()
		}
	}

	// gateReady reports when worker w's next injection may happen, or
	// (0, false) when the required global clock has not been reached yet.
	// When the worker must actually pull, the transfer starts once the
	// clock is visible AND the worker is free to issue it; both inputs are
	// re-read on every query because slotFreeAt advances as in-flight
	// minibatches complete — a latched value could let the pull "finish"
	// before the worker was free to start it.
	gateReady := func(w *wspWorker) (float64, bool) {
		req := params.RequiredGlobalClock(w.nextInject)
		if req == 0 {
			return 0, true
		}
		if req >= len(pushVisible) {
			return 0, false
		}
		ready := pushVisible[req]
		if w.lastPulled < req {
			ready = math.Max(ready, w.slotFreeAt) + pull[w.id]
		}
		return ready, true
	}

	// nextEvent computes worker w's earliest actionable event:
	// kind 0 = none, 1 = completion, 2 = injection.
	nextEvent := func(w *wspWorker) (kind int, at float64) {
		if len(w.inflight) > 0 {
			kind, at = 1, w.inflight[0].complete
		}
		if !w.done && len(w.inflight) < nm && w.nextInject <= cfg.MaxMinibatches {
			if ready, ok := gateReady(w); ok {
				inj := math.Max(w.slotFreeAt, ready)
				if kind == 0 || inj < at {
					kind, at = 2, inj
				}
			}
		}
		return kind, at
	}

	for {
		// Pick the globally earliest event.
		best, bestAt, bestKind := -1, math.Inf(1), 0
		for _, w := range workers {
			if kind, at := nextEvent(w); kind != 0 && at < bestAt {
				best, bestAt, bestKind = w.id, at, kind
			}
		}
		if best < 0 {
			// All workers drained their budgets, or the remaining workers
			// are gated on pushes that will never come because their peers
			// finished — the natural end of a fixed-budget run.
			break
		}
		w := workers[best]
		if bestAt < now {
			bestAt = now
		}
		now = bestAt

		if bestKind == 2 {
			// Injection of minibatch w.nextInject.
			mb := w.nextInject
			ready, _ := gateReady(w)
			natural := w.slotFreeAt
			if ready > natural {
				stats.Waiting += ready - natural
				if len(w.inflight) == 0 && ready > w.lastScheduled {
					drainFrom := math.Max(natural, w.lastScheduled)
					stats.Idle += ready - drainFrom
				}
			}
			// Lazy pull: a gated wave-end minibatch that needs updates the
			// worker has not incorporated yet triggers a pull of the global
			// weights. The worker is credited only with the clock the gate
			// required — what it has provably seen — and receives that
			// clock's snapshot, with its own not-yet-globally-visible wave
			// updates and the open wave's accumulator re-applied on top.
			// With D=0 this happens every wave; with larger D, every wave
			// past the first D+1.
			if req := params.RequiredGlobalClock(mb); req > 0 && w.lastPulled < req {
				copy(w.wlocal, snapshotAt(req))
				for v := req; v < len(w.waveDeltas); v++ {
					w.wlocal.AddInPlace(w.waveDeltas[v])
				}
				w.wlocal.AddInPlace(w.waveAcc)
				w.lastPulled = req
				stats.Pulls++
			}
			coord.Start(w.id, mb)
			period := cfg.Periods[w.id]
			if cfg.Jitter > 0 {
				period *= 1 + cfg.Jitter*(2*w.rng.Float64()-1)
			}
			complete := math.Max(now+fill[w.id], w.lastScheduled+period)
			w.lastScheduled = complete
			w.inflight = append(w.inflight, snapshot{mb: mb, complete: complete})
			w.pending = append(w.pending, pendingMB{mb: mb, weights: w.getWeights(w.wlocal)})
			w.nextInject++
			if w.nextInject > cfg.MaxMinibatches {
				w.done = true
			}
			// Injecting mb retires minibatch mb-Nm+1: the fixed logical lag
			// that pins each snapshot's staleness to exactly slocal.
			if mb-nm+1 >= 1 {
				retire(w)
			}
			continue
		}

		// Completion of the oldest in-flight minibatch.
		snap := w.inflight[0]
		w.inflight = w.inflight[1:]
		w.slotFreeAt = now
		w.lastComplete = now
		stats.Minibatches++
		completionsSinceEval++

		// Once the worker has no more injections, completions drive the
		// remaining retirements (the live runtime's end-of-run drain).
		if w.done {
			for len(w.pending) > 0 && w.pending[0].mb <= snap.mb {
				retire(w)
			}
		}

		if params.IsWaveEnd(snap.mb) {
			// Push the wave's aggregated update (wglobal += u~). Its content
			// was sealed at the wave-end's numeric retirement, which always
			// precedes this completion event.
			wave := params.Wave(snap.mb)
			if wave >= len(w.waveDeltas) {
				panic(fmt.Sprintf("train: worker %d pushing wave %d before its delta is sealed", w.id, wave))
			}
			wglobal.AddInPlace(w.waveDeltas[wave])
			coord.Push(w.id)
			stats.Pushes++
			pushArrive[w.id] = append(pushArrive[w.id], now+push[w.id])
			// When the global clock advances, wave c becomes visible once
			// every worker's push of wave c-1 has arrived.
			for c := len(pushVisible); c <= coord.GlobalClock(); c++ {
				arrive := 0.0
				for _, arr := range pushArrive {
					if t := arr[c-1]; t > arrive {
						arrive = t
					}
				}
				pushVisible = append(pushVisible, arrive)
			}
		}

		if completionsSinceEval >= cfg.EvalEvery {
			completionsSinceEval = 0
			if stats.evaluate(cfg.Task, wglobal, now, cfg.TargetAccuracy, cfg.TargetLoss) {
				break
			}
		}
	}

	stats.finish(cfg.Task, wglobal, now, cfg.TargetAccuracy, cfg.TargetLoss)
	// FinalWeights carries the same pushed-update set as wglobal, but folded
	// in (wave, worker) order — the order the parameter servers' snapshots
	// use — so the value is bit-stable across timing configurations and
	// directly comparable with the live runtime's.
	final := prefix[0].Clone()
	maxPushed := 0
	for _, w := range workers {
		if c := coord.Clock(w.id); c > maxPushed {
			maxPushed = c
		}
	}
	for v := 0; v < maxPushed; v++ {
		for _, w := range workers {
			if v < coord.Clock(w.id) {
				final.AddInPlace(w.waveDeltas[v])
			}
		}
	}
	stats.FinalWeights = final
	stats.MaxClockDistance = coord.MaxClockDistance()
	return stats, nil
}

// MinibatchIndex maps (worker, local minibatch number) to a disjoint global
// minibatch stream per worker — data parallelism splits the dataset. The
// live runtime (internal/cluster) uses the same mapping so both backends
// consume identical gradients.
func MinibatchIndex(worker, mb, workers int) int {
	return (mb-1)*workers + worker
}
