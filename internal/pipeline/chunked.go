package pipeline

import (
	"hetpipe/internal/partition"
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

// chunkRunner executes the 1F1B-family disciplines over the plan's K = k*V
// virtual stages:
//
//   - "1f1b" (PipeDream / Narayanan et al.): strict one-forward-one-backward
//     at V = 1 with serialized receives, as in the paper's cost model. Stage
//     s admits at most k-s forwards before it must retire a backward, which
//     shrinks the activation footprint to at most stage-depth stashes
//     (sched.OneF1B.StashCount) and lets a memory-constrained virtual worker
//     admit a larger Nm than under HetPipe's FIFO.
//   - "2bw" (PipeDream-2BW): the same task graph; the discipline's
//     double-buffered weight updates change the memory model
//     (sched.TwoBW.WeightVersions == 3), not the timing, so the runner's
//     contribution is exactly 1F1B's.
//   - "interleaved" (Megatron-LM): each GPU hosts V chunks, transfers run as
//     pure delays (asynchronous point-to-point sends), and the 1F1B
//     discipline runs over the virtual depth — the fill bubble shrinks by V
//     because a GPU starts computing as soon as its first 1/V-sized chunk's
//     input arrives.
//
// Each GPU is a single-server queue multiplexing its V chunks: when it goes
// idle it first retires the deepest pending backward (deepest chunk first —
// closest to completion, fastest stash retirement), then the deepest
// admissible forward, where virtual stage vs admits at most K-vs outstanding
// forwards — the 1F1B bound that caps the stash at sched ChunkStash. At V = 1
// this is exactly the strict alternation: backward-first when both are
// ready.
//
// Task completions run through three handlers registered once per device and
// (under overlap) transfer arrivals through two engine handlers; each
// virtual stage caches its chunk and hosting GPU, and its pending lists are
// head-indexed rings (f1bStage), so the steady state schedules without
// allocating. Completion payloads carry (minibatch, virtual stage) and the
// submitted duration, from which trace spans are reconstructed on the
// hosting GPU's row.
type chunkRunner struct {
	pl *Pipeline
	k  int // GPUs (stages)
	v  int // chunks per GPU (interleave degree)
	kv int // virtual pipeline depth k*v

	// overlap selects transfer handling: pure engine delays (interleaved)
	// versus receive time folded into the task duration (1f1b, 2bw).
	overlap bool

	startFn func(p int)
	vstages []f1bStage // per virtual stage; busy is tracked per GPU instead
	busy    []bool     // per GPU

	idAct   int32 // engine handler id: activation transfer arrival (overlap)
	idGrad  int32 // engine handler id: gradient transfer arrival (overlap)
	idFwd   int32
	idBwd   int32
	idFused int32
}

// f1bStage is one virtual stage's scheduling state. ch and gpu cache the
// stage's chunk and hosting GPU; pendingF and pendingB hold minibatches
// whose inputs have arrived, in arrival (== minibatch) order, as
// head-indexed rings; outstanding counts forwards run but not yet retired by
// a backward here.
type f1bStage struct {
	ch          *partition.Chunk
	gpu         int
	outstanding int
	pendingF    []int32
	fHead       int
	pendingB    []int32
	bHead       int
}

func (st *f1bStage) pushF(p int32) { st.pendingF = append(st.pendingF, p) }
func (st *f1bStage) pushB(p int32) { st.pendingB = append(st.pendingB, p) }
func (st *f1bStage) lenF() int     { return len(st.pendingF) - st.fHead }
func (st *f1bStage) lenB() int     { return len(st.pendingB) - st.bHead }

func (st *f1bStage) popF() int32 {
	p := st.pendingF[st.fHead]
	st.fHead++
	if st.fHead == len(st.pendingF) {
		st.pendingF = st.pendingF[:0]
		st.fHead = 0
	}
	return p
}

func (st *f1bStage) popB() int32 {
	p := st.pendingB[st.bHead]
	st.bHead++
	if st.bHead == len(st.pendingB) {
		st.pendingB = st.pendingB[:0]
		st.bHead = 0
	}
	return p
}

func newChunkRunner(pl *Pipeline, overlap bool) *chunkRunner {
	v := pl.cfg.Plan.InterleaveDegree()
	r := &chunkRunner{
		pl: pl, k: pl.k, v: v, kv: pl.k * v,
		overlap: overlap,
		vstages: make([]f1bStage, pl.k*v),
		busy:    make([]bool, pl.k),
	}
	for vs := range r.vstages {
		r.vstages[vs].ch = pl.cfg.Plan.ChunkAt(vs)
		r.vstages[vs].gpu = vs % pl.k
	}
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

func (r *chunkRunner) poke() {
	r.pl.inject(r.startFn)
	r.tryGPU(0)
}

func (r *chunkRunner) start(p int) { r.vstages[0].pushF(int32(p)) }

// tryGPU picks the next task for GPU g across its chunk set: the deepest
// pending backward first, then the deepest admissible forward. Depth-first
// selection drives the frontier minibatch toward completion, which is what
// retires stashes fastest and reproduces Megatron's interleaved steady state.
//
//hetlint:hotpath
func (r *chunkRunner) tryGPU(g int) {
	if r.busy[g] {
		return
	}
	for c := r.v - 1; c >= 0; c-- {
		vs := g + c*r.k
		if r.vstages[vs].lenB() > 0 {
			r.runBackward(int(r.vstages[vs].popB()), vs)
			return
		}
	}
	for c := r.v - 1; c >= 0; c-- {
		vs := g + c*r.k
		st := &r.vstages[vs]
		if st.lenF() > 0 && st.outstanding < r.kv-vs {
			r.runForward(int(st.popF()), vs)
			return
		}
	}
}

// runForward executes minibatch p's forward on virtual stage vs (fused with
// the backward on the last virtual stage). Under serialized receives the
// duration includes the chunk's input transfer; under overlap the transfer
// already ran as a pure delay.
//
//hetlint:hotpath
func (r *chunkRunner) runForward(p, vs int) {
	pl := r.pl
	st := &r.vstages[vs]
	ch := st.ch
	r.busy[st.gpu] = true
	base := ch.FwdTime
	if !r.overlap {
		base = ch.RecvActTime + ch.FwdTime
	}
	if vs == r.kv-1 {
		dur := pl.dur(p, st.gpu, base+ch.BwdTime)
		pl.gpus[st.gpu].SubmitID(dur, r.idFused, int32(p), int32(vs))
		return
	}
	dur := pl.dur(p, st.gpu, base)
	pl.gpus[st.gpu].SubmitID(dur, r.idFwd, int32(p), int32(vs))
}

//hetlint:hotpath
func (r *chunkRunner) forwardDone(a, b int32, x float64) {
	pl := r.pl
	p, vs := int(a), int(b)
	st := &r.vstages[vs]
	pl.traceAdd(st.gpu, p, trace.Forward, pl.eng.Now()-sim.Time(x), pl.eng.Now())
	r.busy[st.gpu] = false
	st.outstanding++
	r.deliverF(p, vs+1)
	r.tryGPU(st.gpu)
}

// deliverF routes minibatch p's activations to virtual stage vs: a pure
// transfer delay under overlap, an immediate enqueue otherwise (the receive
// is charged to the task duration).
//
//hetlint:hotpath
func (r *chunkRunner) deliverF(p, vs int) {
	pl := r.pl
	st := &r.vstages[vs]
	if r.overlap && st.ch.RecvActTime > 0 {
		pl.eng.AfterID(pl.dur(p, st.gpu, st.ch.RecvActTime), r.idAct, int32(p), int32(vs), float64(pl.eng.Now()))
		return
	}
	st.pushF(int32(p))
	r.tryGPU(st.gpu)
}

//hetlint:hotpath
func (r *chunkRunner) actArrived(a, b int32, x float64) {
	pl := r.pl
	st := &r.vstages[b]
	pl.traceAdd(st.gpu, int(a), trace.Transfer, sim.Time(x), pl.eng.Now())
	st.pushF(a)
	r.tryGPU(st.gpu)
}

//hetlint:hotpath
func (r *chunkRunner) fusedDone(a, b int32, x float64) {
	pl := r.pl
	p, vs := int(a), int(b)
	st := &r.vstages[vs]
	if pl.cfg.Trace != nil {
		now := pl.eng.Now()
		mid := now - sim.Time(pl.time(p, st.gpu, st.ch.BwdTime))
		pl.cfg.Trace.Add(st.gpu, p, trace.Forward, now-sim.Time(x), mid)
		pl.cfg.Trace.Add(st.gpu, p, trace.Backward, mid, now)
	}
	r.busy[st.gpu] = false
	if r.kv == 1 {
		pl.complete(p)
	} else {
		r.deliverB(p, r.kv-2)
	}
	r.tryGPU(st.gpu)
}

// runBackward executes minibatch p's backward on virtual stage vs (vs <
// kv-1; the last virtual stage's backward is fused into its forward task).
//
//hetlint:hotpath
func (r *chunkRunner) runBackward(p, vs int) {
	pl := r.pl
	st := &r.vstages[vs]
	r.busy[st.gpu] = true
	base := st.ch.BwdTime
	if !r.overlap {
		base = st.ch.RecvGradTime + st.ch.BwdTime
	}
	pl.gpus[st.gpu].SubmitID(pl.dur(p, st.gpu, base), r.idBwd, int32(p), int32(vs))
}

//hetlint:hotpath
func (r *chunkRunner) backwardDone(a, b int32, x float64) {
	pl := r.pl
	p, vs := int(a), int(b)
	st := &r.vstages[vs]
	pl.traceAdd(st.gpu, p, trace.Backward, pl.eng.Now()-sim.Time(x), pl.eng.Now())
	r.busy[st.gpu] = false
	st.outstanding--
	if vs == 0 {
		pl.complete(p)
	} else {
		r.deliverB(p, vs-1)
	}
	r.tryGPU(st.gpu)
}

// deliverB routes minibatch p's boundary gradients to virtual stage vs; see
// deliverF.
//
//hetlint:hotpath
func (r *chunkRunner) deliverB(p, vs int) {
	pl := r.pl
	st := &r.vstages[vs]
	if r.overlap && st.ch.RecvGradTime > 0 {
		pl.eng.AfterID(pl.dur(p, st.gpu, st.ch.RecvGradTime), r.idGrad, int32(p), int32(vs), float64(pl.eng.Now()))
		return
	}
	st.pushB(int32(p))
	r.tryGPU(st.gpu)
}

//hetlint:hotpath
func (r *chunkRunner) gradArrived(a, b int32, x float64) {
	pl := r.pl
	st := &r.vstages[b]
	pl.traceAdd(st.gpu, int(a), trace.Transfer, sim.Time(x), pl.eng.Now())
	st.pushB(a)
	r.tryGPU(st.gpu)
}
