package main

import (
	"context"
	"fmt"
	"time"

	"hetpipe"
	"hetpipe/internal/core"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// The sim-train deployments: VGG-19 on the paper cluster, ED allocation with
// local parameter placement, D=4 — the paper's best configuration — under
// every pipeline schedule, each simulated for a fixed minibatch budget.
const (
	simModel      = "vgg19"
	simD          = 4
	simBatch      = 32
	simMBPerVW    = 2000
	simInterleave = 2 // the interleave degree of the "interleaved" schedule
)

func interleaveFor(schedule string) int {
	if schedule == sched.NameInterleaved {
		return simInterleave
	}
	return 1
}

// simTrain simulates each schedule's deployment once per operation.
type simTrain struct {
	deps []*hetpipe.Deployment
	// cores mirrors deps at the core layer for the traced probe, which
	// needs a caller-owned engine to count events.
	cores []*core.Deployment
}

func setupSimTrain(seed int64, traced bool) (runner, error) {
	s := &simTrain{}
	for _, name := range sched.Names() {
		dep, err := hetpipe.New(
			hetpipe.WithModel(simModel),
			hetpipe.WithPolicy("ED"),
			hetpipe.WithLocalPlacement(true),
			hetpipe.WithD(simD),
			hetpipe.WithBatch(simBatch),
			hetpipe.WithSchedule(name),
			hetpipe.WithInterleave(interleaveFor(name)),
			hetpipe.WithMinibatchesPerVW(simMBPerVW),
		)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		s.deps = append(s.deps, dep)
		if traced {
			cd, err := coreDeployment(simModel, "ED", name, interleaveFor(name), simD, core.PlacementLocal)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			s.cores = append(s.cores, cd)
		}
	}
	return s, nil
}

// coreDeployment resolves a deployment on the paper cluster through the
// core layer, the way hetpipe.New does.
func coreDeployment(modelName, policy, schedule string, interleave, d int, placement core.PlacementKind) (*core.Deployment, error) {
	m, err := model.ByName(modelName)
	if err != nil {
		return nil, err
	}
	sc, err := sched.ByName(schedule)
	if err != nil {
		return nil, err
	}
	cl := hw.Paper()
	sys, err := core.NewSystemSched(cl, m, profile.Default(), simBatch, sc)
	if err != nil {
		return nil, err
	}
	sys.Interleave = interleave
	pol, err := hw.PolicyByName(policy)
	if err != nil {
		return nil, err
	}
	alloc, err := hw.Allocate(cl, pol)
	if err != nil {
		return nil, err
	}
	return sys.Deploy(alloc, 0, d, placement)
}

func (s *simTrain) op(ctx context.Context, tr *tracer) (opResult, error) {
	d := newDigester()
	var res opResult
	var meanTime float64
	for _, dep := range s.deps {
		id := tr.begin("hetpipe.Simulate", -1)
		r, err := dep.Simulate(ctx)
		tr.end(id)
		if err != nil {
			return opResult{}, fmt.Errorf("%s: %w", dep.Schedule(), err)
		}
		if r.MaxClockDistance > dep.D()+1 {
			return opResult{}, fmt.Errorf("%s: clock distance %d exceeds D+1=%d", dep.Schedule(), r.MaxClockDistance, dep.D()+1)
		}
		if r.Throughput <= 0 || r.Pushes <= 0 {
			return opResult{}, fmt.Errorf("%s: throughput %v with %d pushes", dep.Schedule(), r.Throughput, r.Pushes)
		}
		d.add(dep.Schedule(), r.Throughput, r.PerVW, r.Nm, r.SGlobal, r.Waiting, r.Idle, r.Pushes, r.Pulls, r.MaxClockDistance)
		vws := len(r.PerVW)
		res.items += simMBPerVW * vws
		// Modelled seconds to train the budget at the steady-state rate.
		meanTime += float64(simMBPerVW*vws*dep.Batch()) / r.Throughput / float64(len(s.deps))
		if dep.Schedule() == sched.NameFIFO {
			res.modelRate = r.Throughput
		}
	}
	res.modelTime = meanTime
	d.add(res.modelRate, res.modelTime)
	res.digest = d.sum()
	res.info = fmt.Sprintf("schedules=%d fifo_samples_per_s=%.6g mean_budget_time=%.6g s", len(s.deps), res.modelRate, res.modelTime)
	return res, nil
}

// probe runs each schedule's WSP co-simulation on a caller-owned engine,
// which counts the events fired, and checks it against the public
// Simulate; then it runs virtual worker 0's pipeline alone on the engine.
func (s *simTrain) probe(ctx context.Context, tr *tracer) (map[string]float64, error) {
	if len(s.cores) != len(s.deps) {
		return nil, fmt.Errorf("probe needs a traced set-up")
	}
	out := map[string]float64{}
	eng := sim.New()
	var cosim time.Duration
	var waiting, idle float64
	for i, cd := range s.cores {
		name := s.deps[i].Schedule()
		want, err := s.deps[i].Simulate(ctx)
		if err != nil {
			return nil, err
		}
		id := tr.begin("core.SimulateWSPFaultsOn", -1)
		mr, err := cd.SimulateWSPFaultsOn(ctx, eng, simMBPerVW, 4*cd.Nm, nil, nil, 0)
		took := tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if mr.Aggregate != want.Throughput || mr.Pushes != want.Pushes || mr.Waiting != want.Waiting {
			return nil, fmt.Errorf("%s: core co-simulation (%v samples/s) disagrees with Simulate (%v)", name, mr.Aggregate, want.Throughput)
		}
		events := float64(eng.Fired())
		cosim += took
		waiting += mr.Waiting
		idle += mr.Idle
		out["core.cosim_ns_per_event."+name] = float64(took.Nanoseconds()) / events
		out["sim.events_per_cosim."+name] = events

		vp := cd.VWs[0]
		id = tr.begin("pipeline.RunOn", -1)
		_, err = pipeline.RunOn(eng, pipeline.Config{
			Plan: vp.Plan, Cluster: cd.Sys.Cluster, Perf: cd.Sys.Perf, Schedule: cd.Sys.Schedule,
			Minibatches: simMBPerVW, Warmup: 4 * cd.Nm,
		})
		took = tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: solo pipeline: %w", name, err)
		}
		out["pipeline.solo_ns_per_event."+name] = float64(took.Nanoseconds()) / float64(eng.Fired())
	}
	out["core.cosim_busy_s"] = cosim.Seconds()
	out["wsp.waiting_s"] = waiting
	out["wsp.idle_s"] = idle
	return out, nil
}
