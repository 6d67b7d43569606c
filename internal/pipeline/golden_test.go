package pipeline

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

// updateGoldens regenerates the committed golden files instead of comparing
// against them:
//
//	go test ./internal/pipeline -run TestScheduleGoldens -update
//
// The files were captured on the pre-refactor container/heap engine; the
// pooled indexed engine must reproduce them byte for byte, so -update should
// only ever be needed when the simulated physics (not the engine mechanics)
// deliberately changes.
var updateGoldens = flag.Bool("update", false, "rewrite golden testdata files")

// scheduleGolden pins one solo pipeline run: every float is the shortest
// round-trip decimal ('g', -1), so comparison is bit-exact, and the
// completion and Gantt digests cover the full per-minibatch and per-span
// timelines without committing megabytes of spans.
type scheduleGolden struct {
	Cluster     string `json:"cluster"`
	Model       string `json:"model"`
	Schedule    string `json:"schedule"`
	Nm          int    `json:"nm"`
	Error       string `json:"error,omitempty"`
	Throughput  string `json:"throughput,omitempty"`
	Elapsed     string `json:"elapsed,omitempty"`
	MaxGPUUtil  string `json:"maxGPUUtil,omitempty"`
	Completions string `json:"completionsDigest,omitempty"`
	GanttDigest string `json:"ganttDigest,omitempty"`
}

func ftoa17(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// digestFloats folds a float sequence into an FNV-1a hex digest over the
// round-trip decimal forms, so any single-bit timing drift changes it.
func digestFloats(vals ...float64) string {
	h := fnv.New64a()
	for _, v := range vals {
		h.Write([]byte(ftoa17(v)))
		h.Write([]byte{','})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestTrace folds every span (stage, minibatch, kind, start, end) of a
// trace into a digest, in recording order — the per-stage Gantt timeline
// including transfer spans, bit-exact and order-exact.
func digestTrace(tr *trace.Trace) string {
	h := fnv.New64a()
	for _, sp := range tr.Spans {
		fmt.Fprintf(h, "%d/%d/%d/%s/%s;", sp.Stage, sp.Minibatch, sp.Kind,
			ftoa17(float64(sp.Start)), ftoa17(float64(sp.End)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenCell is one (catalog cluster, schedule) cell of the golden grid:
// the partition plan to run, or the planning error recorded in g.
type goldenCell struct {
	cl   *hw.Cluster
	s    sched.Schedule
	plan *partition.Plan
	g    scheduleGolden
}

// goldenGrid enumerates the schedule x catalog-cluster grid: every schedule
// on every catalog cluster's first feasible virtual worker, VGG-19 at the
// largest Nm up to 4 the schedule's memory model admits.
func goldenGrid(t *testing.T) []goldenCell {
	t.Helper()
	perf := profile.Default()
	m := model.VGG19()
	var out []goldenCell
	for _, ci := range hw.ClusterCatalog() {
		cl, err := hw.ClusterByName(ci.Name)
		if err != nil {
			t.Fatal(err)
		}
		var alloc *hw.Allocation
		for _, pol := range hw.Policies() {
			if a, err := hw.Allocate(cl, pol); err == nil {
				alloc = a
				break
			}
		}
		if alloc == nil {
			t.Fatalf("%s: no feasible allocation policy", ci.Name)
		}
		vw := alloc.VWs[0]
		for _, name := range sched.Names() {
			s, err := sched.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := goldenCell{cl: cl, s: s, g: scheduleGolden{Cluster: ci.Name, Model: "vgg19", Schedule: name}}
			nm := partition.NewSched(perf, s).MaxNm(cl, m, vw, 32, 4)
			if nm == 0 {
				c.g.Error = "model does not fit at any Nm"
				out = append(out, c)
				continue
			}
			c.g.Nm = nm
			c.plan, err = partition.NewSched(perf, s).Partition(cl, m, vw, nm, 32)
			if err != nil {
				c.g.Error = err.Error()
			}
			out = append(out, c)
		}
	}
	return out
}

// goldenSoloRuns runs every cell of the golden grid (24 minibatches, 4
// warmup, traced) and records its pinned figures.
func goldenSoloRuns(t *testing.T) []scheduleGolden {
	t.Helper()
	var out []scheduleGolden
	for _, c := range goldenGrid(t) {
		g := c.g
		if c.plan == nil {
			out = append(out, g)
			continue
		}
		tr := trace.New(len(c.plan.Stages))
		res, err := Run(Config{
			Plan: c.plan, Cluster: c.cl, Perf: profile.Default(), Schedule: c.s,
			Minibatches: 24, Warmup: 4, Trace: tr,
		})
		if err != nil {
			g.Error = err.Error()
			out = append(out, g)
			continue
		}
		g.Throughput = ftoa17(res.Throughput)
		g.Elapsed = ftoa17(float64(res.Elapsed))
		g.MaxGPUUtil = ftoa17(res.MaxGPUUtil)
		comps := make([]float64, len(res.Completions))
		for i, c := range res.Completions {
			comps[i] = float64(c)
		}
		g.Completions = digestFloats(comps...)
		g.GanttDigest = digestTrace(tr)
		out = append(out, g)
	}
	return out
}

// TestScheduleGoldens pins every schedule's solo simulation — throughput,
// elapsed time, utilization, the full completion timeline, and the per-stage
// Gantt spans — on every catalog cluster to the values the pre-refactor
// container/heap engine produced. The pooled indexed engine must reproduce
// all of them bit for bit; this is the test wall the hot-path overhaul is
// measured against.
func TestScheduleGoldens(t *testing.T) {
	got := goldenSoloRuns(t)
	path := filepath.Join("testdata", "schedule_goldens.json")
	if *updateGoldens {
		writeGoldenFile(t, path, got)
		return
	}
	var want []scheduleGolden
	readGoldenFile(t, path, &want)
	if len(got) != len(want) {
		t.Fatalf("golden entries = %d, want %d (regenerate with -update only for deliberate physics changes)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("golden mismatch for %s/%s/%s:\n  got  %+v\n  want %+v",
				want[i].Cluster, want[i].Model, want[i].Schedule, got[i], want[i])
		}
	}
}

func writeGoldenFile(t *testing.T, path string, v interface{}) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func readGoldenFile(t *testing.T, path string, v interface{}) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

// TestTaskTimeScalesCompletions is a metamorphic property over the golden
// grid: a TaskTime hook that multiplies every duration by a power of two
// must scale every completion time by exactly that factor. Scaling by a
// power of two is exact in floating point, so the check is bit-exact; it
// fails if any runner schedules a task or a transfer without routing its
// duration through the hook.
func TestTaskTimeScalesCompletions(t *testing.T) {
	cells := 0
	for _, c := range goldenGrid(t) {
		if c.plan == nil {
			continue
		}
		base, err := Run(Config{Plan: c.plan, Schedule: c.s, Minibatches: 24, Warmup: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{2, 0.25, 1024} {
			cells++
			scaled, err := Run(Config{
				Plan: c.plan, Schedule: c.s, Minibatches: 24, Warmup: 4,
				TaskTime: func(_, _ int, base float64) float64 { return base * f },
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range base.Completions {
				if got := scaled.Completions[i]; got != want*sim.Time(f) {
					t.Fatalf("%s/%s x%g: completion %d = %v, want %v",
						c.g.Cluster, c.g.Schedule, f, i, got, want*sim.Time(f))
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("golden grid has no runnable cell")
	}
}
