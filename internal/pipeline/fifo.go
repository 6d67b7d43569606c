package pipeline

import (
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

// fifoRunner is the paper's Section 4 discipline, with or without the
// Section 9 receive overlap.
//
//   - "hetpipe-fifo" (overlap false) is the original executor: a stage task's
//     duration includes receiving its inputs, which serializes with
//     computation, and the last stage fuses forward and backward into one
//     task.
//   - "hetpipe-overlap" (overlap true) adds PipeDream-style
//     communication/computation overlap: a receive no longer occupies the
//     receiving GPU; the transfer runs as a pure delay (the link is modeled
//     as a dedicated DMA channel), and only the compute time is charged to
//     the stage's device. Transfers from a stage complete in minibatch order
//     and take constant time per boundary, so compute tasks still arrive at
//     each FIFO device queue in minibatch order — conditions 1–3 of
//     Section 4 hold unchanged, which is why the same Nm and gate semantics
//     apply.
//
// Task completions flow through three handlers registered once on every
// stage device, and (under overlap) transfer arrivals through two engine
// handlers, so the steady state schedules without allocating. The x payload
// of a completion is the task's exact submitted duration, and that of a
// transfer arrival its start time, from which the trace reconstructs spans
// bit-identically.
type fifoRunner struct {
	pl      *Pipeline
	overlap bool
	startFn func(p int)
	idAct   int32 // engine handler id: activation transfer arrival (overlap)
	idGrad  int32 // engine handler id: gradient transfer arrival (overlap)
	idFwd   int32
	idBwd   int32
	idFused int32
}

func newFifoRunner(pl *Pipeline, overlap bool) *fifoRunner {
	r := &fifoRunner{pl: pl, overlap: overlap}
	r.startFn = r.start
	if overlap {
		r.idAct = pl.eng.Register(r.actArrived)
		r.idGrad = pl.eng.Register(r.gradArrived)
	}
	r.idFwd = pl.register(r.forwardDone)
	r.idBwd = pl.register(r.backwardDone)
	r.idFused = pl.register(r.fusedDone)
	return r
}

func (r *fifoRunner) poke() { r.pl.inject(r.startFn) }

func (r *fifoRunner) start(p int) { r.forward(p, 0) }

// forward delivers minibatch p's activations to stage s — a pure transfer
// delay under overlap, otherwise charged to the task — and then enqueues the
// forward task.
//
//hetlint:hotpath
func (r *fifoRunner) forward(p, s int) {
	pl := r.pl
	st := &pl.cfg.Plan.Stages[s]
	if r.overlap && s > 0 && st.RecvActTime > 0 {
		pl.eng.AfterID(pl.dur(p, s, st.RecvActTime), r.idAct, int32(p), int32(s), float64(pl.eng.Now()))
		return
	}
	r.computeForward(p, s)
}

//hetlint:hotpath
func (r *fifoRunner) actArrived(a, b int32, x float64) {
	pl := r.pl
	p, s := int(a), int(b)
	pl.traceAdd(s, p, trace.Transfer, sim.Time(x), pl.eng.Now())
	r.computeForward(p, s)
}

// computeForward enqueues minibatch p's forward task on stage s (fused with
// the backward on the last partition); without overlap its duration
// includes receiving the input activations.
//
//hetlint:hotpath
func (r *fifoRunner) computeForward(p, s int) {
	pl := r.pl
	st := &pl.cfg.Plan.Stages[s]
	base := st.FwdTime
	if !r.overlap {
		base = st.RecvActTime + st.FwdTime
	}
	if s == pl.k-1 {
		pl.gpus[s].SubmitID(pl.dur(p, s, base+st.BwdTime), r.idFused, int32(p), int32(s))
		return
	}
	pl.gpus[s].SubmitID(pl.dur(p, s, base), r.idFwd, int32(p), int32(s))
}

//hetlint:hotpath
func (r *fifoRunner) forwardDone(a, b int32, x float64) {
	pl := r.pl
	p, s := int(a), int(b)
	pl.traceAdd(s, p, trace.Forward, pl.eng.Now()-sim.Time(x), pl.eng.Now())
	r.forward(p, s+1)
}

//hetlint:hotpath
func (r *fifoRunner) fusedDone(a, b int32, x float64) {
	pl := r.pl
	p, s := int(a), int(b)
	if pl.cfg.Trace != nil {
		now := pl.eng.Now()
		mid := now - sim.Time(pl.time(p, s, pl.cfg.Plan.Stages[s].BwdTime))
		pl.cfg.Trace.Add(s, p, trace.Forward, now-sim.Time(x), mid)
		pl.cfg.Trace.Add(s, p, trace.Backward, mid, now)
	}
	r.sendGrad(p, s)
}

// backward delivers minibatch p's boundary gradients to stage s (s < k-1;
// the last stage's backward is fused into its forward task) and then
// enqueues the backward task; see forward.
//
//hetlint:hotpath
func (r *fifoRunner) backward(p, s int) {
	pl := r.pl
	st := &pl.cfg.Plan.Stages[s]
	if r.overlap && st.RecvGradTime > 0 {
		pl.eng.AfterID(pl.dur(p, s, st.RecvGradTime), r.idGrad, int32(p), int32(s), float64(pl.eng.Now()))
		return
	}
	r.computeBackward(p, s)
}

//hetlint:hotpath
func (r *fifoRunner) gradArrived(a, b int32, x float64) {
	pl := r.pl
	p, s := int(a), int(b)
	pl.traceAdd(s, p, trace.Transfer, sim.Time(x), pl.eng.Now())
	r.computeBackward(p, s)
}

// computeBackward enqueues minibatch p's backward task on stage s; without
// overlap its duration includes receiving the boundary gradients.
//
//hetlint:hotpath
func (r *fifoRunner) computeBackward(p, s int) {
	pl := r.pl
	st := &pl.cfg.Plan.Stages[s]
	base := st.BwdTime
	if !r.overlap {
		base = st.RecvGradTime + st.BwdTime
	}
	pl.gpus[s].SubmitID(pl.dur(p, s, base), r.idBwd, int32(p), int32(s))
}

//hetlint:hotpath
func (r *fifoRunner) backwardDone(a, b int32, x float64) {
	pl := r.pl
	p, s := int(a), int(b)
	pl.traceAdd(s, p, trace.Backward, pl.eng.Now()-sim.Time(x), pl.eng.Now())
	r.sendGrad(p, s)
}

// sendGrad propagates minibatch p's boundary gradients from stage s to s-1,
// or completes it once they have reached stage 0.
//
//hetlint:hotpath
func (r *fifoRunner) sendGrad(p, s int) {
	if s == 0 {
		r.pl.complete(p)
		return
	}
	r.backward(p, s-1)
}
