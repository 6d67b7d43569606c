package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"hetpipe/internal/cluster"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric and workload
// lists in step with the benchmark's declaration.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	// live-tcp runs on request and in every traced run's probes, but is
	// not declared: its conformance check fails intermittently over TCP
	// (see README.md).
	var names, want []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if w.name != "live-tcp" {
			want = append(want, w.name)
		}
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	check := func(kind string, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics)
	check("per_layer", bf.PerLayer, layerMetrics)
}

// runBench runs the command line in process and returns the exit code, the
// standard output, and the decoded last line.
func runBench(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out, errs bytes.Buffer
	code := run(args, &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q is not a result: %v (stderr %s)", args, lines[len(lines)-1], err, errs.String())
	}
	return code, out.String(), res
}

// linesWith returns the output lines starting with prefix.
func linesWith(out, prefix string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

func assertMetrics(t *testing.T, name string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: printed %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", name, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || m.Value < 0:
			t.Errorf("%s: metric %s = %v", name, d.name, m.Value)
		}
	}
}

// TestSmoke runs one operation of every workload twice with the same seed:
// every end-to-end metric is printed with its unit, every check passes, and
// the digest of the modelled outputs and the model_* values repeat exactly.
// One traced run of each workload prints every per-layer metric.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0", "--trace", "0"}
			code, out1, res1 := runBench(t, args...)
			if code != 0 || !res1.Correct || res1.Attempted != 1 || res1.Failed != 0 {
				t.Fatalf("untraced run: exit %d, result %+v\n%s", code, res1, out1)
			}
			assertMetrics(t, w.name, res1, e2eMetrics)
			for _, d := range e2eMetrics {
				if res1.Metrics[d.name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}
			_, out2, res2 := runBench(t, args...)
			if a, b := linesWith(out1, "digest "), linesWith(out2, "digest "); a == "" || a != b {
				t.Errorf("same seed, different digests:\n%s\n%s", a, b)
			}
			for _, m := range []string{"model_rate", "model_time_s"} {
				if res1.Metrics[m] != res2.Metrics[m] {
					t.Errorf("same seed, %s %v then %v", m, res1.Metrics[m].Value, res2.Metrics[m].Value)
				}
			}

			code, out, res := runBench(t, "--workload", w.name, "--seed", "7", "--seconds", "0", "--trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("traced run: exit %d, result %+v\n%s", code, res, out)
			}
			assertMetrics(t, w.name+" traced", res, layerMetrics)
		})
	}
}

// TestCorruptedOutputFails flips one bit of one live final weight: the
// comparison against the simulator reference must report the operation as
// failed, and the command must exit nonzero with correct=false.
func TestCorruptedOutputFails(t *testing.T) {
	flip := func(st *cluster.Stats) {
		st.FinalWeights[0] = math.Float64frombits(math.Float64bits(st.FinalWeights[0]) ^ 1)
	}
	r, err := setupLiveTCP(7, false)
	if err != nil {
		t.Fatal(err)
	}
	r.(*liveTCP).mutate = flip
	l := &loop{log: io.Discard}
	if _, ok := l.do(context.Background(), r, nil); ok || l.failed != 1 {
		t.Fatalf("corrupted weight not reported: ok=%v failed=%d", ok, l.failed)
	}

	saved := workloads
	defer func() { workloads = saved }()
	workloads = []workload{{"live-tcp", func(seed int64, traced bool) (runner, error) {
		r, err := setupLiveTCP(seed, traced)
		if err == nil {
			r.(*liveTCP).mutate = flip
		}
		return r, err
	}}}
	code, out, res := runBench(t, "--workload", "live-tcp", "--seed", "7", "--seconds", "0", "--trace", "0")
	if code == 0 || res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("exit %d, result %+v, want a nonzero exit and one failed op\n%s", code, res, out)
	}
	if res.Metrics["ok_op_ratio"].Value != 0 {
		t.Errorf("ok_op_ratio = %v, want 0", res.Metrics["ok_op_ratio"].Value)
	}
}
