package main

import (
	"context"
	"fmt"
	"time"

	"hetpipe/internal/core"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sweep"
)

// nmCap is the Nm search cap core.System.Deploy passes to ChooseNm when the
// deployment's Nm is automatic.
const nmCap = 8

// planGrid runs sweep.Run over the default grid with one sweep worker. The
// grid does not depend on the seed: the sweep is deterministic.
type planGrid struct {
	grid sweep.Grid
}

func setupPlanGrid(seed int64, traced bool) (runner, error) {
	p := &planGrid{grid: sweep.DefaultGrid()}
	// One warm-up sweep: the code paths and heap a user's first sweep pays
	// for belong to set-up, not to the measured operations.
	if _, err := p.op(context.Background(), nil); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return p, nil
}

// sweepOnce runs the grid; a traced run records one span per scenario,
// from the previous OnResult arrival to this one (one sweep worker, so
// arrivals are serial).
func (p *planGrid) sweepOnce(ctx context.Context, tr *tracer) (*sweep.Set, []float64, error) {
	root := tr.begin("sweep.Run", -1)
	var lats []float64
	last := time.Now()
	set, err := sweep.Run(ctx, p.grid, sweep.Options{Workers: 1, OnResult: func(r sweep.Result) {
		now := time.Now()
		lats = append(lats, now.Sub(last).Seconds())
		tr.record("sweep.scenario", root, last, now)
		last = now
	}})
	tr.end(root)
	return set, lats, err
}

func (p *planGrid) op(ctx context.Context, tr *tracer) (opResult, error) {
	set, _, err := p.sweepOnce(ctx, tr)
	if err != nil {
		return opResult{}, err
	}
	if err := checkSweep(set); err != nil {
		return opResult{}, err
	}
	d := newDigester()
	if err := sweep.WriteJSON(d.h, set); err != nil {
		return opResult{}, fmt.Errorf("encoding sweep: %w", err)
	}
	var tput, bottleneck float64
	plans := 0
	for _, r := range set.Results {
		tput += r.Throughput
		for _, pl := range r.Plans {
			bottleneck += pl.BottleneckSec
			plans++
		}
	}
	n := float64(len(set.Results))
	res := opResult{
		items:     len(set.Results),
		modelRate: tput / n,
		modelTime: bottleneck / float64(plans),
	}
	d.add(res.modelRate, res.modelTime)
	res.digest = d.sum()
	res.info = fmt.Sprintf("scenarios=%d mean_throughput=%.6g samples/s mean_bottleneck=%.6g s", len(set.Results), res.modelRate, res.modelTime)
	return res, nil
}

// checkSweep asserts that every scenario succeeded and that no WSP scenario
// let its virtual workers drift more than D+1 clocks apart.
func checkSweep(set *sweep.Set) error {
	if len(set.Results) == 0 {
		return fmt.Errorf("sweep produced no scenarios")
	}
	if n := set.Failures(); n > 0 {
		return fmt.Errorf("%d scenario(s) failed", n)
	}
	for _, r := range set.Results {
		if r.Scenario.SyncMode == sweep.SyncWSP && r.MaxClockDistance > r.Scenario.D+1 {
			return fmt.Errorf("%s: clock distance %d exceeds D+1=%d", r.Scenario.ID(), r.MaxClockDistance, r.Scenario.D+1)
		}
		if r.Throughput <= 0 {
			return fmt.Errorf("%s: throughput %v", r.Scenario.ID(), r.Throughput)
		}
	}
	return nil
}

// probe runs one traced sweep, then replays each grid family's planning
// through the planner's public calls — MaxNm, ChooseNm, Partition at the
// chosen Nm, and Deploy — and checks that it reaches the Nm the sweep chose.
func (p *planGrid) probe(ctx context.Context, tr *tracer) (map[string]float64, error) {
	set, lats, err := p.sweepOnce(ctx, tr)
	if err != nil {
		return nil, err
	}
	if err := checkSweep(set); err != nil {
		return nil, err
	}
	var partNs, maxNmNs, chooseNs, deployNs time.Duration
	var partCalls, maxNmCalls, chooseCalls int
	root := tr.begin("planner.replay", -1)
	done := map[string]bool{}
	for _, r := range set.Results {
		sc := r.Scenario
		family := familyKey(sc)
		if sc.SyncMode != sweep.SyncWSP || sc.Nm != 0 || done[family] {
			continue
		}
		done[family] = true
		sys, alloc, err := resolveSystem(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", family, err)
		}
		pt := &partition.Partitioner{Perf: sys.Perf, Sched: sys.Schedule, Interleave: sys.Interleave}
		for _, vw := range alloc.VWs {
			id := tr.begin("partition.MaxNm", root)
			pt.MaxNm(sys.Cluster, sys.Model, vw, sys.Batch, nmCap)
			maxNmNs += tr.end(id)
			maxNmCalls++
		}
		id := tr.begin("core.ChooseNm", root)
		nm, err := sys.ChooseNm(alloc, nmCap)
		chooseNs += tr.end(id)
		chooseCalls++
		if err != nil {
			return nil, fmt.Errorf("%s: ChooseNm: %w", family, err)
		}
		for _, o := range set.Results {
			if o.Scenario.SyncMode == sweep.SyncWSP && familyKey(o.Scenario) == family && o.Nm != nm {
				return nil, fmt.Errorf("%s: layer calls reach Nm=%d, the sweep chose Nm=%d", o.Scenario.ID(), nm, o.Nm)
			}
		}
		for _, vw := range alloc.VWs {
			id := tr.begin("partition.Partition", root)
			_, err := pt.Partition(sys.Cluster, sys.Model, vw, nm, sys.Batch)
			partNs += tr.end(id)
			partCalls++
			if err != nil {
				return nil, fmt.Errorf("%s: Partition at Nm=%d: %w", family, nm, err)
			}
		}
		placement := core.PlacementDefault
		if sc.Placement == sweep.PlacementLocal {
			placement = core.PlacementLocal
		}
		id = tr.begin("core.Deploy", root)
		_, err = sys.Deploy(alloc, nm, 0, placement)
		deployNs += tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: Deploy: %w", family, err)
		}
	}
	tr.end(root)
	if chooseCalls == 0 {
		return nil, fmt.Errorf("grid has no automatic-Nm WSP family to replay")
	}
	return map[string]float64{
		"partition.partition_us_per_call": partNs.Seconds() * 1e6 / float64(partCalls),
		"partition.max_nm_us_per_call":    maxNmNs.Seconds() * 1e6 / float64(maxNmCalls),
		"core.choose_nm_busy_s":           chooseNs.Seconds(),
		"core.choose_nm_calls":            float64(chooseCalls),
		"core.deploy_busy_s":              deployNs.Seconds(),
		"sweep.scenario_p50_ms":           1e3 * percentile(lats, 0.50),
		"sweep.scenario_p90_ms":           1e3 * percentile(lats, 0.90),
	}, nil
}

// familyKey identifies the scenarios that share one resolved deployment in
// a sweep: everything but D.
func familyKey(sc sweep.Scenario) string {
	return fmt.Sprintf("%s/%s/%s/%s/%s/v%d/nm%d/b%d", sc.Model, sc.Cluster, sc.Policy, sc.Placement, sc.Schedule, sc.Interleave, sc.Nm, sc.Batch)
}

// resolveSystem builds a scenario's profiled System and GPU allocation the
// way the sweep does.
func resolveSystem(sc sweep.Scenario) (*core.System, *hw.Allocation, error) {
	m, err := model.ByName(sc.Model)
	if err != nil {
		return nil, nil, err
	}
	cluster, err := hw.ClusterByName(sc.Cluster)
	if err != nil {
		return nil, nil, err
	}
	schedule, err := sched.ByName(sc.Schedule)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystemSched(cluster, m, profile.Default(), sc.Batch, schedule)
	if err != nil {
		return nil, nil, err
	}
	sys.Interleave = sc.Interleave
	pol, err := hw.PolicyByName(sc.Policy)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := hw.Allocate(cluster, pol)
	if err != nil {
		return nil, nil, err
	}
	return sys, alloc, nil
}
