// Command perfbench is hetpipe's end-to-end benchmark. It drives the
// repository's packages from outside, one closed-loop operation at a time,
// on five workloads:
//
//	plan-grid  the default 24-scenario sweep grid (planner-bound)
//	sim-train  long WSP co-simulations of six schedules (event-engine-bound)
//	sim-serve  Poisson serving curves on the NP deployment (event-engine-bound)
//	live-tcp   live WSP training over loopback TCP (cluster, ps, wire codec)
//	converge   the Figure 6 HetPipe D=4 run and its Horovod baseline (train)
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// An untraced run (--trace 0) sets the workload up several times, then
// issues operations for --seconds and prints the end-to-end metrics. A traced run
// (--trace 1) alternates untraced and traced operations of the workload to
// measure the tracing overhead, then runs one traced layer probe of every
// workload and prints the per-layer metrics; --spans writes the recorded
// spans as JSON. Every operation's outputs are checked; a failed check makes
// the run report correct=false and exit with status 1. The last line of
// standard output is always the JSON result.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"hetpipe/internal/sched"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, on every workload. Their
// per-workload meaning is tabled in README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"ok_op_ratio", "ratio"},
	{"work_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"model_rate", "1/virtual_s"},
	{"model_time_s", "virtual_s"},
}

// layerMetrics are printed by every traced run, on every workload.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metricDef {
	defs := []metricDef{
		{"sweep.scenario_p50_ms", "ms"},
		{"sweep.scenario_p90_ms", "ms"},
		{"partition.partition_us_per_call", "us"},
		{"partition.max_nm_us_per_call", "us"},
		{"core.choose_nm_busy_s", "s"},
		{"core.choose_nm_calls", "count"},
		{"core.deploy_busy_s", "s"},
		{"core.cosim_busy_s", "s"},
	}
	for _, s := range sched.Names() {
		defs = append(defs,
			metricDef{"core.cosim_ns_per_event." + s, "ns"},
			metricDef{"sim.events_per_cosim." + s, "count"},
			metricDef{"pipeline.solo_ns_per_event." + s, "ns"})
	}
	return append(defs,
		metricDef{"wsp.waiting_s", "virtual_s"},
		metricDef{"wsp.idle_s", "virtual_s"},
		metricDef{"serve.busy_s", "s"},
		metricDef{"serve.ns_per_request", "ns"},
		metricDef{"serve.events", "count"},
		metricDef{"serve.batches", "count"},
		metricDef{"serve.mean_fill", "req/batch"},
		metricDef{"train.wsp_busy_s", "s"},
		metricDef{"train.bsp_busy_s", "s"},
		metricDef{"train.grad_calls", "count"},
		metricDef{"train.grad_busy_s", "s"},
		metricDef{"train.eval_calls", "count"},
		metricDef{"train.eval_busy_s", "s"},
		metricDef{"train.eval_share", "ratio"},
		metricDef{"train.timing_self_s", "s"},
		metricDef{"cluster.busy_s", "s"},
		metricDef{"cluster.minibatches", "count"},
		metricDef{"cluster.pushes", "count"},
		metricDef{"cluster.pulls", "count"},
		metricDef{"cluster.shard_pushes", "count"},
		metricDef{"cluster.shard_pulls", "count"},
		metricDef{"cluster.shard_ops_per_logical", "ratio"},
		metricDef{"cluster.shard_malformed", "count"},
		metricDef{"cluster.grad_busy_s", "s"},
		metricDef{"cluster.self_s", "s"},
		metricDef{"ps.push_p50_us", "us"},
		metricDef{"ps.push_p90_us", "us"},
		metricDef{"ps.pullat_p50_us", "us"},
		metricDef{"ps.pullat_p90_us", "us"},
		metricDef{"ps.bytes_per_wave", "bytes"},
		metricDef{"ps.errors", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// setup builds the workload's inputs from the seed. traced setups also
	// prepare what the layer probe needs.
	setup func(seed int64, traced bool) (runner, error)
}

// runner executes a set-up workload.
type runner interface {
	// op performs one closed-loop operation and checks its outputs; a
	// failed check is returned as an error. tr is nil in untraced
	// operations.
	op(ctx context.Context, tr *tracer) (opResult, error)
	// probe runs one traced operation plus the workload's layer replays and
	// returns the per-layer metrics it measured.
	probe(ctx context.Context, tr *tracer) (map[string]float64, error)
}

// opResult is what one operation produced.
type opResult struct {
	// items counts the work units the operation completed (scenarios,
	// simulated minibatches, requests, or trained minibatches).
	items int
	// modelRate and modelTime are the operation's deterministic modelled
	// outputs (see README.md for their meaning per workload).
	modelRate, modelTime float64
	// digest hashes every modelled output; equal inputs must reproduce it.
	digest string
	// info is a one-line human-readable summary of the modelled outputs.
	info string
}

var workloads = []workload{
	{"plan-grid", setupPlanGrid},
	{"sim-train", setupSimTrain},
	{"sim-serve", setupSimServe},
	{"live-tcp", setupLiveTCP},
	{"converge", setupConverge},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one invocation's settings.
type config struct {
	seed     int64
	duration time.Duration
	spans    string
}

// An untraced run sets the workload up at least minSetups times and until
// setupBudget has passed, at most maxSetups times, and reports the median.
const (
	minSetups   = 5
	maxSetups   = 30
	setupBudget = time.Second
)

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs the benchmark, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: plan-grid, sim-train, sim-serve, live-tcp, or converge")
	seed := fs.Int64("seed", 1, "workload seed: traffic, task-data, and jitter seed")
	seconds := fs.Float64("seconds", 10, "how long to issue operations")
	traced := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
	spans := fs.String("spans", "", "write the traced run's spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	// At most two threads run Go code at once, so that runs on bigger
	// machines put the same load shape on the host.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cfg := config{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), spans: *spans}
	ctx := context.Background()
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(ctx, w, cfg, stdout)
	} else {
		res, err = runUntraced(ctx, w, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// loop issues closed-loop operations until the configured duration has
// passed (at least one), checking each result against the first one's
// digest: equal inputs must reproduce equal modelled outputs.
type loop struct {
	attempted, failed int
	first             *opResult
	ok                []opResult
	durations         []float64
	log               io.Writer
}

func (l *loop) do(ctx context.Context, r runner, tr *tracer) (time.Duration, bool) {
	tr.nextOp()
	// Every operation starts from a collected heap, so that neither its
	// time nor the peak RSS depends on the garbage earlier operations left.
	runtime.GC()
	start := time.Now()
	res, err := r.op(ctx, tr)
	d := time.Since(start)
	l.attempted++
	if err == nil && l.first != nil && res.digest != l.first.digest {
		err = fmt.Errorf("digest %s differs from the first operation's %s", short(res.digest), short(l.first.digest))
	}
	if err != nil {
		l.failed++
		fmt.Fprintf(l.log, "failed op %d: %v\n", l.attempted, err)
		return d, false
	}
	if l.first == nil {
		l.first = &res
	}
	l.ok = append(l.ok, res)
	l.durations = append(l.durations, d.Seconds())
	return d, true
}

func runUntraced(ctx context.Context, w workload, cfg config, out io.Writer) (*result, error) {
	var r runner
	var setups []float64
	for began := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(began) < setupBudget); {
		r = nil // let the previous set-up's state go before building anew
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = w.setup(cfg.seed, false); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	l := &loop{log: out}
	start := time.Now()
	for l.attempted == 0 || time.Since(start) < cfg.duration {
		l.do(ctx, r, nil)
	}
	items, busy := 0, 0.0
	for i, res := range l.ok {
		items += res.items
		busy += l.durations[i]
	}
	m := map[string]float64{
		"setup_s":      median(setups),
		"peak_rss_mib": peakRSSMiB(),
		"ok_op_ratio":  float64(l.attempted-l.failed) / float64(l.attempted),
	}
	if len(l.ok) > 0 {
		m["work_per_s"] = float64(items) / busy
		m["latency_p50_ms"] = 1e3 * percentile(l.durations, 0.50)
		m["model_rate"] = l.first.modelRate
		m["model_time_s"] = l.first.modelTime
		fmt.Fprintf(out, "model %s seed=%d %s\n", w.name, cfg.seed, l.first.info)
		fmt.Fprintf(out, "digest %s seed=%d %s\n", w.name, cfg.seed, l.first.digest)
	}
	// Every operation repeats the same deterministic work, so the spread of
	// their durations is the host's; the p90 is printed, not gated.
	fmt.Fprintf(out, "samples %s ops=%d ok=%d setups=%d op_p90_ms=%.6g\n", w.name, l.attempted, len(l.ok), len(setups), 1e3*percentile(l.durations, 0.90))
	return newResult(l.attempted, l.failed, m, e2eMetrics)
}

func runTraced(ctx context.Context, w workload, cfg config, out io.Writer) (*result, error) {
	r, err := w.setup(cfg.seed, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer()
	runtime.GC()
	// Alternate untraced and traced operations of the workload itself; the
	// ratio of their median durations is the tracing overhead.
	l := &loop{log: out}
	var plain, traced []float64
	start := time.Now()
	for l.attempted < 2 || time.Since(start) < cfg.duration {
		t := tr
		if l.attempted%2 == 0 {
			t = nil
		}
		d, ok := l.do(ctx, r, t)
		switch {
		case !ok:
		case t == nil:
			plain = append(plain, d.Seconds())
		default:
			traced = append(traced, d.Seconds())
		}
	}
	m := map[string]float64{}
	if len(plain) > 0 && len(traced) > 0 {
		m["trace.overhead_ratio"] = median(traced) / median(plain)
	}
	// One traced layer probe of every workload, so that every per-layer
	// metric is measured in every traced run.
	for _, pw := range workloads {
		pr := r
		if pw.name != w.name {
			if pr, err = pw.setup(cfg.seed, true); err != nil {
				return nil, fmt.Errorf("%s setup: %w", pw.name, err)
			}
		}
		tr.nextOp()
		l.attempted++
		vals, err := pr.probe(ctx, tr)
		if err != nil {
			l.failed++
			fmt.Fprintf(out, "failed probe %s: %v\n", pw.name, err)
			continue
		}
		for k, v := range vals {
			m[k] = v
		}
	}
	fmt.Fprintf(out, "samples %s ops=%d plain=%d traced=%d spans=%d\n", w.name, l.attempted, len(plain), len(traced), tr.count())
	if cfg.spans != "" {
		if err := tr.writeFile(cfg.spans); err != nil {
			return nil, err
		}
	}
	return newResult(l.attempted, l.failed, m, layerMetrics)
}

// newResult assembles the printed result. Every defined metric must have
// been measured; a missing one marks the run incorrect (it can only be
// missing when operations failed).
func newResult(attempted, failed int, vals map[string]float64, defs []metricDef) (*result, error) {
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	missing := 0
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing++
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("measured metric %s is not defined", name)
		}
	}
	res.Correct = failed == 0 && missing == 0
	return res, nil
}

func printResult(w io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (NaN when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// peakRSSMiB reports the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digester accumulates modelled outputs into a SHA-256 digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

// add writes values in a canonical form: floats by their exact bits.
func (d *digester) add(vals ...any) {
	for _, v := range vals {
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(d.h, "%x;", math.Float64bits(x))
		case []float64:
			for _, f := range x {
				fmt.Fprintf(d.h, "%x,", math.Float64bits(f))
			}
			io.WriteString(d.h, ";")
		default:
			fmt.Fprintf(d.h, "%v;", x)
		}
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
