package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hetpipe"
	"hetpipe/internal/cluster"
	"hetpipe/internal/ps"
	"hetpipe/internal/tensor"
	"hetpipe/internal/train"
	"hetpipe/internal/wsp"
)

// The live-tcp workload trains the default logistic-regression task on the
// live sharded-PS runtime: two virtual workers (two goroutines, two loopback
// TCP connections) against one shard server, with the staleness parameters
// of the paper's ED-local VGG-19 deployment at D=4.
const (
	liveWorkers = 2
	liveServers = 1
	liveMBPerVW = 1500
	liveLR      = 0.2
	liveJitter  = 0.08
	// psProbeWaves is how many push+pull waves the ps probe times, after
	// psProbeWarmup untimed ones.
	psProbeWaves  = 2000
	psProbeWarmup = 100
)

type liveTCP struct {
	task train.Task
	cfg  cluster.Config
	ref  *train.RunStats
	want cluster.SideCounts
	// mutate, when set, alters a run's stats before they are checked; the
	// self-test uses it to corrupt an output.
	mutate func(*cluster.Stats)
}

func setupLiveTCP(seed int64, traced bool) (runner, error) {
	dep, err := hetpipe.New(
		hetpipe.WithModel(simModel),
		hetpipe.WithPolicy("ED"),
		hetpipe.WithLocalPlacement(true),
		hetpipe.WithD(simD),
	)
	if err != nil {
		return nil, err
	}
	task, err := train.DefaultTask(seed)
	if err != nil {
		return nil, err
	}
	l := &liveTCP{task: task, cfg: cluster.Config{
		Task: task, Workers: liveWorkers, Servers: liveServers,
		SLocal: dep.SLocal(), D: dep.D(), LR: liveLR,
		MaxMinibatches: liveMBPerVW, TCP: true,
	}}
	// The simulator twin: the same protocol and numerics under modelled
	// timing, whose final weights the live run must reproduce bit for bit.
	periods := make([]float64, liveWorkers)
	for w := range periods {
		periods[w] = 0.1 * (1 + 0.7*float64(w))
	}
	l.ref, err = train.RunWSP(train.WSPConfig{
		Task: task, Workers: liveWorkers, SLocal: l.cfg.SLocal, D: l.cfg.D, LR: liveLR,
		Periods: periods, Jitter: liveJitter, Seed: seed,
		MaxMinibatches: liveMBPerVW, EvalEvery: liveMBPerVW * liveWorkers,
	})
	if err != nil {
		return nil, fmt.Errorf("simulator reference: %w", err)
	}
	p := wsp.Params{SLocal: l.cfg.SLocal, D: l.cfg.D, Workers: liveWorkers}
	l.want = cluster.SideCounts{
		Minibatches: liveWorkers * liveMBPerVW,
		Pushes:      liveWorkers * p.CompleteWaves(liveMBPerVW),
		Pulls:       liveWorkers * p.GatedPulls(liveMBPerVW),
	}
	return l, nil
}

// runOnce runs the live cluster once and checks its outputs.
func (l *liveTCP) runOnce(ctx context.Context, tr *tracer, task train.Task) (*cluster.Stats, error) {
	cfg := l.cfg
	cfg.Task = task
	id := tr.begin("cluster.Run", -1)
	st, err := cluster.Run(ctx, cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if l.mutate != nil {
		l.mutate(st)
	}
	return st, l.check(st)
}

func (l *liveTCP) check(st *cluster.Stats) error {
	got := cluster.SideCounts{Minibatches: st.Minibatches, Pushes: st.Pushes, Pulls: st.Pulls}
	if got != l.want {
		return fmt.Errorf("counts %+v, want the WSP closed forms %+v", got, l.want)
	}
	if st.MaxClockDistance > l.cfg.D+1 {
		return fmt.Errorf("clock distance %d exceeds D+1=%d", st.MaxClockDistance, l.cfg.D+1)
	}
	if st.ShardMalformed != 0 {
		return fmt.Errorf("%d malformed shard requests", st.ShardMalformed)
	}
	if len(st.FinalWeights) != len(l.ref.FinalWeights) {
		return fmt.Errorf("final weights have %d entries, the reference %d", len(st.FinalWeights), len(l.ref.FinalWeights))
	}
	for i, w := range st.FinalWeights {
		if math.Float64bits(w) != math.Float64bits(l.ref.FinalWeights[i]) {
			return fmt.Errorf("final weight %d is %v, the simulator reference %v", i, w, l.ref.FinalWeights[i])
		}
	}
	return nil
}

func (l *liveTCP) op(ctx context.Context, tr *tracer) (opResult, error) {
	task := countedIf(l.task, tr)
	st, err := l.runOnce(ctx, tr, task)
	if err != nil {
		return opResult{}, err
	}
	res := opResult{
		items:     st.Minibatches,
		modelRate: float64(l.ref.Minibatches) / l.ref.Elapsed,
		modelTime: l.ref.Elapsed,
	}
	d := newDigester()
	d.add([]float64(st.FinalWeights), st.Minibatches, st.Pushes, st.Pulls, st.GlobalClock, res.modelRate, res.modelTime)
	res.digest = d.sum()
	res.info = fmt.Sprintf("minibatches=%d pushes=%d pulls=%d twin_virtual_s=%.6g twin_loss=%.6g", st.Minibatches, st.Pushes, st.Pulls, l.ref.Elapsed, l.ref.FinalLoss)
	return res, nil
}

// probe runs one traced live run, then times single pushes and pulls over
// one loopback ps.Client at the live run's key shapes.
func (l *liveTCP) probe(ctx context.Context, tr *tracer) (map[string]float64, error) {
	ct := &countingTask{Task: l.task}
	start := time.Now()
	st, err := l.runOnce(ctx, tr, ct)
	busy := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	grad := time.Duration(ct.gradNs.Load()).Seconds()
	out := map[string]float64{
		"cluster.busy_s":          busy,
		"cluster.minibatches":     float64(st.Minibatches),
		"cluster.pushes":          float64(st.Pushes),
		"cluster.pulls":           float64(st.Pulls),
		"cluster.shard_pushes":    float64(st.ShardPushes),
		"cluster.shard_pulls":     float64(st.ShardPulls),
		"cluster.shard_malformed": float64(st.ShardMalformed),
		"cluster.shard_ops_per_logical": float64(st.ShardPushes+st.ShardPulls) /
			float64(liveServers*(st.Pushes+st.Pulls)),
		"cluster.grad_busy_s": grad,
		// Worker-seconds outside the task's gradients: the worker loop,
		// the PS client, and waiting.
		"cluster.self_s": float64(liveWorkers)*busy - grad,
	}
	id := tr.begin("ps.probe", -1)
	pv, err := psProbe(l.task.Dim(), liveServers*4)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for k, v := range pv {
		out[k] = v
	}
	return out, nil
}

// countingListener counts the bytes every accepted connection moves.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

// psProbe serves one shard server on loopback and times one worker's
// wave: a PushOrdered of the aggregated update, then the PullAtInto of the
// snapshot at the clock the push produced. The parameter vector of dim
// entries is split into chunks keys, as the live runtime splits it.
func psProbe(dim, chunks int) (map[string]float64, error) {
	srv, err := ps.NewServer(1)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	size := (dim + chunks - 1) / chunks
	var keys []string
	var vecs, dst []tensor.Vector
	for lo := 0; lo < dim; lo += size {
		n := min(size, dim-lo)
		key := fmt.Sprintf("chunk%04d", len(keys))
		if err := srv.Register(key, make([]float64, n)); err != nil {
			return nil, err
		}
		keys = append(keys, key)
		v := tensor.NewVector(n)
		for i := range v {
			v[i] = 1e-3 * float64(i+1)
		}
		vecs = append(vecs, v)
		dst = append(dst, tensor.NewVector(n))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var bytes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = ps.Serve(countingListener{Listener: ln, bytes: &bytes}, srv) // returns once ln closes
	}()
	defer wg.Wait()
	defer ln.Close()
	client, err := ps.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer client.Close()

	var push, pull []float64
	errs := 0
	var measured int64
	for wave := 0; wave < psProbeWarmup+psProbeWaves; wave++ {
		if wave == psProbeWarmup {
			measured = bytes.Load()
		}
		t0 := time.Now()
		clock, err := client.PushOrdered(0, keys, vecs)
		t1 := time.Now()
		if err != nil {
			errs++
			continue
		}
		err = client.PullAtInto(dst, keys, clock)
		t2 := time.Now()
		if err != nil {
			errs++
			continue
		}
		if wave >= psProbeWarmup {
			push = append(push, t1.Sub(t0).Seconds())
			pull = append(pull, t2.Sub(t1).Seconds())
		}
	}
	return map[string]float64{
		"ps.push_p50_us":    1e6 * percentile(push, 0.50),
		"ps.push_p90_us":    1e6 * percentile(push, 0.90),
		"ps.pullat_p50_us":  1e6 * percentile(pull, 0.50),
		"ps.pullat_p90_us":  1e6 * percentile(pull, 0.90),
		"ps.bytes_per_wave": float64(bytes.Load()-measured) / psProbeWaves,
		"ps.errors":         float64(errs),
	}, nil
}
