package main

import (
	"context"
	"fmt"
	"time"

	"hetpipe/internal/core"
	"hetpipe/internal/data"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/train"
)

// The converge workload is the Figure 6 HetPipe D=4 run — VGG-19 timings on
// four VRGQ virtual workers with local parameter placement — training a
// 12-class, 48-dimensional logistic regression until the training loss
// reaches 0.50, followed by the Horovod baseline on the same task. The seed
// draws the task data and the per-minibatch timing jitter; seed 42 is the
// Figure 6 experiment's own.
const (
	convTargetLoss = 0.50
	convLR         = 0.01
	convJitter     = 0.08
	convMaxMB      = 12000
	convEvalEvery  = 128
)

type converge struct {
	task train.Task
	wsp  train.WSPConfig
	bsp  train.BSPConfig
}

func setupConverge(seed int64, traced bool) (runner, error) {
	ds, err := data.SyntheticClassification(42, 12000, 48, 12, 0.34)
	if err != nil {
		return nil, err
	}
	trainSet, evalSet, err := ds.Split(0.8)
	if err != nil {
		return nil, err
	}
	task, err := train.NewLogReg(trainSet, evalSet, simBatch)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(hw.Paper(), model.VGG19(), profile.Default(), simBatch)
	if err != nil {
		return nil, err
	}
	alloc, err := hw.AllocateByTypes(sys.Cluster, []string{"VRGQ", "VRGQ", "VRGQ", "VRGQ"})
	if err != nil {
		return nil, err
	}
	dep, err := sys.Deploy(alloc, 0, simD, core.PlacementLocal)
	if err != nil {
		return nil, err
	}
	c := &converge{task: task, wsp: train.WSPConfig{
		Workers: len(dep.VWs), SLocal: dep.SLocal(), D: simD,
		LR: convLR, Jitter: convJitter, Seed: seed,
		MaxMinibatches: convMaxMB, EvalEvery: convEvalEvery, TargetLoss: convTargetLoss,
	}}
	n := len(dep.VWs)
	for w, vp := range dep.VWs {
		// A persistent +-4% speed offset per worker, as in Figure 6.
		skew := 1 + 0.08*(float64(w)/float64(n-1)-0.5)
		c.wsp.Periods = append(c.wsp.Periods, vp.Period*skew)
		c.wsp.FillLatency = append(c.wsp.FillLatency, vp.FillLatency)
		c.wsp.PushTime = append(c.wsp.PushTime, dep.PushTime[w])
		c.wsp.PullTime = append(c.wsp.PullTime, dep.PullTime[w])
	}
	periods, allReduce, err := sys.HorovodPeriods(nil)
	if err != nil {
		return nil, err
	}
	// Horovod averages one gradient per GPU each step, so its learning rate
	// scales with the worker count.
	c.bsp = train.BSPConfig{
		Periods: periods, AllReduceTime: allReduce,
		LR: convLR * float64(len(periods)), Jitter: convJitter, Seed: seed,
		MaxIterations: convMaxMB, EvalEvery: convEvalEvery / 8, TargetLoss: convTargetLoss,
	}
	return c, nil
}

// convRun is one HetPipe run and its Horovod baseline, with the time each
// trainer took.
type convRun struct {
	hp, hv   *train.RunStats
	wsp, bsp time.Duration
}

// runs trains HetPipe and then Horovod on task and checks both reach the
// target loss.
func (c *converge) runs(tr *tracer, task train.Task) (convRun, error) {
	var r convRun
	var err error
	wcfg, bcfg := c.wsp, c.bsp
	wcfg.Task, bcfg.Task = task, task
	id := tr.begin("train.RunWSP", -1)
	start := time.Now()
	r.hp, err = train.RunWSP(wcfg)
	r.wsp = time.Since(start)
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("RunWSP: %w", err)
	}
	id = tr.begin("train.RunBSP", -1)
	start = time.Now()
	r.hv, err = train.RunBSP(bcfg)
	r.bsp = time.Since(start)
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("RunBSP: %w", err)
	}
	if !r.hp.ReachedTarget || !r.hv.ReachedTarget {
		return r, fmt.Errorf("target loss %g not reached (HetPipe %v at loss %.4g, Horovod %v at loss %.4g)",
			convTargetLoss, r.hp.ReachedTarget, r.hp.FinalLoss, r.hv.ReachedTarget, r.hv.FinalLoss)
	}
	return r, nil
}

func (c *converge) op(ctx context.Context, tr *tracer) (opResult, error) {
	task := countedIf(c.task, tr)
	r, err := c.runs(tr, task)
	if err != nil {
		return opResult{}, err
	}
	hp, hv := r.hp, r.hv
	res := opResult{
		items:     hp.Minibatches + hv.Minibatches,
		modelRate: float64(hp.Minibatches*simBatch) / hp.Elapsed,
		modelTime: hp.TimeToTarget,
	}
	d := newDigester()
	for _, st := range []*train.RunStats{hp, hv} {
		d.add([]float64(st.FinalWeights), st.TimeToTarget, st.Minibatches, st.Elapsed, st.Waiting, st.Idle, st.Pushes, st.Pulls, st.FinalLoss)
	}
	d.add(res.modelRate, res.modelTime)
	res.digest = d.sum()
	res.info = fmt.Sprintf("hetpipe_time_to_target=%.6g s horovod_time_to_target=%.6g s speedup_vs_horovod=%.4f hetpipe_samples_per_s=%.6g",
		hp.TimeToTarget, hv.TimeToTarget, hv.TimeToTarget/hp.TimeToTarget, res.modelRate)
	return res, nil
}

// probe runs both trainings once with the task's numerics counted, so the
// trainers' own timing-model work shows as the remainder.
func (c *converge) probe(ctx context.Context, tr *tracer) (map[string]float64, error) {
	ct := &countingTask{Task: c.task}
	r, err := c.runs(tr, ct)
	if err != nil {
		return nil, err
	}
	total := (r.wsp + r.bsp).Seconds()
	grad := time.Duration(ct.gradNs.Load()).Seconds()
	eval := time.Duration(ct.evalNs.Load()).Seconds()
	return map[string]float64{
		"train.wsp_busy_s":    r.wsp.Seconds(),
		"train.bsp_busy_s":    r.bsp.Seconds(),
		"train.grad_calls":    float64(ct.gradCalls.Load()),
		"train.grad_busy_s":   grad,
		"train.eval_calls":    float64(ct.evalCalls.Load()),
		"train.eval_busy_s":   eval,
		"train.eval_share":    eval / total,
		"train.timing_self_s": total - grad - eval,
	}, nil
}
