package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hetpipe/internal/tensor"
	"hetpipe/internal/train"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced operations run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation: later spans share its identifier.
func (t *tracer) nextOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: t.op, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// record adds an already-finished span.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans), Parent: parent, Op: t.op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes every recorded span as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// countingTask wraps a training task and counts the calls into its
// numerics: gradients, and evaluation (Loss plus Accuracy). It is safe for
// the concurrent Grad calls of the live runtime.
type countingTask struct {
	train.Task
	gradCalls, gradNs atomic.Int64
	evalCalls, evalNs atomic.Int64
}

func (t *countingTask) Grad(w tensor.Vector, b int, out tensor.Vector) {
	start := time.Now()
	t.Task.Grad(w, b, out)
	t.gradNs.Add(int64(time.Since(start)))
	t.gradCalls.Add(1)
}

func (t *countingTask) Loss(w tensor.Vector) float64 {
	start := time.Now()
	v := t.Task.Loss(w)
	t.evalNs.Add(int64(time.Since(start)))
	t.evalCalls.Add(1)
	return v
}

func (t *countingTask) Accuracy(w tensor.Vector) float64 {
	start := time.Now()
	v := t.Task.Accuracy(w)
	t.evalNs.Add(int64(time.Since(start)))
	t.evalCalls.Add(1)
	return v
}

// countedIf wraps task in a countingTask when the operation is traced.
func countedIf(task train.Task, tr *tracer) train.Task {
	if tr == nil {
		return task
	}
	return &countingTask{Task: task}
}
