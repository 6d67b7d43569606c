// Package partition implements the Section 7 partitioning algorithm: divide
// a model's layers into k contiguous partitions, one per (possibly
// heterogeneous) GPU of a virtual worker, minimizing the maximum partition
// execution time subject to each partition fitting its GPU's memory while
// processing Nm concurrent minibatches.
//
// The paper feeds this problem to CPLEX; layer counts here are small enough
// (tens of layers, k <= 8) that an exact dynamic program over prefixes finds
// the optimum directly. A partition's execution time follows the paper's
// definition: the sum of its layers' computation time plus the time to
// receive activations (forward) and local gradients (backward) across its
// boundaries.
//
// A stage is a set of chunks, not a single contiguous range: under the
// Megatron-LM interleaved schedule each worker hosts V non-contiguous
// chunks (worker g gets chunks g, g+k, ..., g+(V-1)k of the k*V virtual
// stages), and the same DP runs over the k*V virtual pipeline with the
// GPU assignment wrapping round-robin. Contiguous plans are the degenerate
// V=1 case and take the identical code path.
package partition

import (
	"fmt"
	"math"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// Chunk is one contiguous layer range [Lo, Hi) of a stage's chunk set,
// running as one virtual stage of the pipeline.
type Chunk struct {
	// Lo and Hi bound the layer range [Lo, Hi).
	Lo, Hi int
	// FwdTime and BwdTime are per-minibatch compute times for this chunk.
	FwdTime, BwdTime float64
	// RecvActTime is the time to receive input activations from the previous
	// virtual stage (zero for the first).
	RecvActTime float64
	// RecvGradTime is the time to receive gradients from the next virtual
	// stage (zero for the last).
	RecvGradTime float64
}

// Layers reports the number of layers in the chunk.
func (c *Chunk) Layers() int { return c.Hi - c.Lo }

// ExecTime is the chunk's execution time: computation plus the serialized
// receives across its boundaries.
func (c *Chunk) ExecTime() float64 {
	return c.FwdTime + c.BwdTime + c.RecvActTime + c.RecvGradTime
}

// Stage is one pipeline stage of a plan: a set of model chunks bound to one
// GPU. Contiguous plans carry exactly one chunk per stage; interleaved plans
// carry V, with chunk c running as virtual stage (stage index) + c*k.
type Stage struct {
	// GPU hosts the stage.
	GPU *hw.GPU
	// Chunks is the stage's chunk set in virtual-stage order (model order).
	Chunks []Chunk
	// FwdTime and BwdTime are per-minibatch compute times summed over the
	// chunk set.
	FwdTime, BwdTime float64
	// RecvActTime is the total time to receive input activations across the
	// chunk set's leading boundaries.
	RecvActTime float64
	// RecvGradTime is the total time to receive gradients across the chunk
	// set's trailing boundaries.
	RecvGradTime float64
	// MemoryBytes is the predicted device memory requirement (weights and
	// stashes per chunk, workspace once).
	MemoryBytes int64
	// MemoryCap is the hosting GPU's capacity.
	MemoryCap int64
}

// ExecTime is the paper's partition execution time: computation plus the
// communication needed to receive activations and gradients, summed over the
// stage's chunk set.
func (s *Stage) ExecTime() float64 {
	return s.FwdTime + s.BwdTime + s.RecvActTime + s.RecvGradTime
}

// Layers reports the number of layers assigned to the stage across all its
// chunks.
func (s *Stage) Layers() int {
	n := 0
	for i := range s.Chunks {
		n += s.Chunks[i].Layers()
	}
	return n
}

// Lo is the first layer of the stage's first chunk. Together with Hi it
// bounds the contiguous range [Lo, Hi) for single-chunk stages; for
// interleaved stages the pair is only the envelope of the chunk set.
func (s *Stage) Lo() int { return s.Chunks[0].Lo }

// Hi is the last chunk's upper bound; see Lo.
func (s *Stage) Hi() int { return s.Chunks[len(s.Chunks)-1].Hi }

// Plan is a complete partitioning of a model onto a virtual worker.
type Plan struct {
	Model *model.Model
	Batch int
	// Nm is the number of concurrent minibatches the plan supports.
	Nm     int
	Stages []Stage
	// Schedule names the pipeline schedule the plan was sized for (its
	// in-flight-activation model decided the memory feasibility), e.g.
	// "hetpipe-fifo" or "1f1b".
	Schedule string
	// Interleave is the interleave degree V the plan was cut for: every
	// stage holds V chunks and the pipeline runs k*V virtual stages. 0 and 1
	// both mean contiguous single-chunk stages.
	Interleave int
	// Bottleneck is the maximum stage execution time; the pipeline's
	// steady-state period can never beat it.
	Bottleneck float64
}

// InterleaveDegree is the plan's interleave degree V, normalizing the
// zero value to 1 (contiguous).
func (p *Plan) InterleaveDegree() int {
	if p.Interleave < 1 {
		return 1
	}
	return p.Interleave
}

// VirtualStages is the depth of the virtual pipeline: k stages times the
// interleave degree.
func (p *Plan) VirtualStages() int { return len(p.Stages) * p.InterleaveDegree() }

// ChunkAt returns the chunk running as virtual stage vs: chunk vs/k of
// stage vs%k.
func (p *Plan) ChunkAt(vs int) *Chunk {
	k := len(p.Stages)
	return &p.Stages[vs%k].Chunks[vs/k]
}

// ThroughputUpperBound is the steady-state throughput limit implied by the
// bottleneck stage, in samples/second.
func (p *Plan) ThroughputUpperBound() float64 {
	if p.Bottleneck <= 0 {
		return 0
	}
	return float64(p.Batch) / p.Bottleneck
}

// Validate checks structural invariants: every stage holds exactly V chunks,
// the k*V virtual stages cover every layer exactly once in model order, and
// every stage respects its memory cap.
func (p *Plan) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("partition: empty plan")
	}
	k, v := len(p.Stages), p.InterleaveDegree()
	for i := range p.Stages {
		if len(p.Stages[i].Chunks) != v {
			return fmt.Errorf("partition: stage %d holds %d chunks, want %d", i, len(p.Stages[i].Chunks), v)
		}
	}
	next := 0
	for j := 0; j < k*v; j++ {
		ch := p.ChunkAt(j)
		if ch.Lo != next {
			return fmt.Errorf("partition: virtual stage %d starts at %d, want %d", j, ch.Lo, next)
		}
		if ch.Hi <= ch.Lo {
			return fmt.Errorf("partition: virtual stage %d empty", j)
		}
		next = ch.Hi
	}
	if next != len(p.Model.Layers) {
		return fmt.Errorf("partition: stages cover %d layers, model has %d", next, len(p.Model.Layers))
	}
	for i := range p.Stages {
		s := &p.Stages[i]
		if s.MemoryBytes > s.MemoryCap {
			return fmt.Errorf("partition: stage %d needs %d bytes, cap %d", i, s.MemoryBytes, s.MemoryCap)
		}
	}
	return nil
}

// Partitioner computes plans using a performance model.
type Partitioner struct {
	Perf *profile.Perf
	// Sched is the pipeline schedule the plans are sized for; nil means
	// sched.Default() (hetpipe-fifo). The schedule's in-flight-activation
	// model decides memory feasibility — 1F1B's smaller footprint admits
	// splits (and Nm values, see MaxNm) that FIFO cannot.
	Sched sched.Schedule
	// Interleave is the interleave degree V: each stage is cut into V
	// chunks and the DP runs over k*V virtual stages. 0 and 1 both mean
	// contiguous stages; V > 1 requires a schedule with SupportsInterleave.
	Interleave int
}

// New returns a partitioner over the given performance model, sized for the
// default hetpipe-fifo schedule.
func New(perf *profile.Perf) *Partitioner {
	return &Partitioner{Perf: perf}
}

// NewSched returns a partitioner whose memory model follows the given
// pipeline schedule.
func NewSched(perf *profile.Perf, s sched.Schedule) *Partitioner {
	return &Partitioner{Perf: perf, Sched: s}
}

// NewInterleaved returns a partitioner that cuts each stage into v chunks
// under the given schedule (which must support interleaving when v > 1).
func NewInterleaved(perf *profile.Perf, s sched.Schedule, v int) *Partitioner {
	return &Partitioner{Perf: perf, Sched: s, Interleave: v}
}

// schedule resolves the partitioner's schedule, defaulting to hetpipe-fifo.
func (pt *Partitioner) schedule() sched.Schedule { return sched.Or(pt.Sched) }

// interleave resolves the partitioner's interleave degree, defaulting to 1.
func (pt *Partitioner) interleave() int {
	if pt.Interleave < 1 {
		return 1
	}
	return pt.Interleave
}

// Partition computes the optimal plan for running m on the virtual worker's
// GPUs (in stage order) with Nm concurrent minibatches. The cluster provides
// interconnect classification between adjacent virtual stages. It returns an
// error when no memory-feasible split exists.
//
// At interleave degree V the DP runs over K = k*V virtual stages with the
// GPU assignment wrapping round-robin (virtual stage j runs on GPU j%k), so
// worker g ends up with the non-contiguous chunk set g, g+k, ..., g+(V-1)k —
// the Megatron-LM placement. V = 1 is the degenerate contiguous case and
// executes the identical sequence of cost evaluations.
func (pt *Partitioner) Partition(c *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, nm, batch int) (*Plan, error) {
	k := len(vw.GPUs)
	L := len(m.Layers)
	V := pt.interleave()
	K := k * V
	switch {
	case k == 0:
		return nil, fmt.Errorf("partition: virtual worker has no GPUs")
	case nm < 1:
		return nil, fmt.Errorf("partition: Nm must be >= 1, got %d", nm)
	case batch < 1:
		return nil, fmt.Errorf("partition: batch must be >= 1, got %d", batch)
	case V > 1 && !pt.schedule().SupportsInterleave():
		return nil, fmt.Errorf("partition: schedule %q does not support interleave degree %d", pt.schedule().Name(), V)
	case L < K:
		return nil, fmt.Errorf("partition: model %s has %d layers, fewer than %d virtual stages (%d stages x interleave %d)",
			m.Name, L, K, k, V)
	}

	// links[j] classifies the interconnect between virtual stages j-1 and j;
	// for j%k == 0 that is the wrap link from the last GPU back to the first.
	gpu := func(j int) *hw.GPU { return vw.GPUs[j%k] }
	links := make([]hw.LinkKind, K)
	for j := 1; j < K; j++ {
		links[j] = c.LinkBetween(gpu(j-1), gpu(j))
	}

	// chunkCap[j] is the memory budget one chunk may use as virtual stage j:
	// the full device capacity at V=1, and an even 1/V split of the
	// post-workspace capacity at V>1 (chunk memory includes the workspace
	// once, so a chunk passes iff its workspace-free footprint fits the
	// slice). The per-chunk budget keeps per-GPU totals sound — V chunks
	// each within their slice sum to at most the device capacity — while
	// staying monotone in Nm, which MaxNm's binary search depends on.
	chunkCap := make([]int64, K)
	for j := 0; j < K; j++ {
		cap := gpu(j).Type.MemoryBytes
		chunkCap[j] = (cap-pt.Perf.WorkspaceBytes)/int64(V) + pt.Perf.WorkspaceBytes
	}

	// cost returns the execution time of layers [lo,hi) as virtual stage j,
	// or +Inf when it violates the stage's memory budget. The memory term
	// follows the partitioner's schedule; the time term keeps the paper's
	// Section 7 definition (compute plus serialized receives) at V = 1, so
	// contiguous plans stay comparable across schedules and overlap's gains
	// show up in the executor rather than being double-counted here.
	//
	// At V > 1 a chunk is throughput-critical on two separate axes: its GPU
	// hosts V chunks (occupancy ~ V * compute), and the minibatch round trip
	// threads every chunk's compute plus its overlapped transfers (the
	// interleaved in-flight window is K, so the per-chunk round-trip share is
	// compute + receives). The cost is the max of the two, which degenerates
	// to exactly the V = 1 expression above — compute-plus-receive alone
	// would steer the DP toward near-empty chunks that exist only to carry a
	// cheap boundary, while compute alone lets the round trip blow up.
	cost := func(lo, hi, j int) float64 {
		mem := pt.Perf.ChunkMemory(pt.schedule(), m, lo, hi, j, K, nm, batch)
		if mem > chunkCap[j] {
			return math.Inf(1)
		}
		fwd, bwd, err := pt.Perf.ChunkTime(m, lo, hi, gpu(j).Type, batch)
		if err != nil {
			return math.Inf(1)
		}
		t := fwd + bwd
		if j > 0 {
			t += pt.Perf.BoundaryTime(m, lo-1, batch, links[j])
		}
		if j < K-1 {
			t += pt.Perf.BoundaryTime(m, hi-1, batch, links[j+1])
		}
		return math.Max(float64(V)*(fwd+bwd), t)
	}

	// Dynamic program over prefixes: best[i][j] = minimal bottleneck for
	// placing the first i layers onto virtual stages 0..j (stage j ends at i).
	const unset = -1
	best := make([][]float64, L+1)
	choice := make([][]int, L+1)
	for i := range best {
		best[i] = make([]float64, K)
		choice[i] = make([]int, K)
		for j := range best[i] {
			best[i][j] = math.Inf(1)
			choice[i][j] = unset
		}
	}
	for i := 1; i <= L-(K-1); i++ {
		best[i][0] = cost(0, i, 0)
		choice[i][0] = 0
	}
	for j := 1; j < K; j++ {
		// Virtual stage j must leave at least one layer for each later stage
		// and each earlier stage must have had one.
		for i := j + 1; i <= L-(K-1-j); i++ {
			for cut := j; cut < i; cut++ {
				if math.IsInf(best[cut][j-1], 1) {
					continue
				}
				b := math.Max(best[cut][j-1], cost(cut, i, j))
				if b < best[i][j] {
					best[i][j] = b
					choice[i][j] = cut
				}
			}
		}
	}
	if math.IsInf(best[L][K-1], 1) {
		return nil, fmt.Errorf("partition: no memory-feasible %d-way split of %s for Nm=%d batch=%d on %s",
			K, m.Name, nm, batch, vw.TypeString())
	}

	// Reconstruct the cut points.
	cuts := make([]int, K+1)
	cuts[K] = L
	for j := K - 1; j > 0; j-- {
		cuts[j] = choice[cuts[j+1]][j]
	}

	plan := &Plan{Model: m, Batch: batch, Nm: nm, Schedule: pt.schedule().Name(), Interleave: V}
	plan.Stages = make([]Stage, k)
	for s := 0; s < k; s++ {
		plan.Stages[s].GPU = vw.GPUs[s]
		plan.Stages[s].MemoryCap = vw.GPUs[s].Type.MemoryBytes
		plan.Stages[s].Chunks = make([]Chunk, 0, V)
	}
	chunkRanges := make([][][2]int, k)
	for j := 0; j < K; j++ {
		lo, hi := cuts[j], cuts[j+1]
		fwd, bwd, err := pt.Perf.ChunkTime(m, lo, hi, gpu(j).Type, batch)
		if err != nil {
			return nil, err
		}
		ch := Chunk{Lo: lo, Hi: hi, FwdTime: fwd, BwdTime: bwd}
		if j > 0 {
			ch.RecvActTime = pt.Perf.BoundaryTime(m, lo-1, batch, links[j])
		}
		if j < K-1 {
			ch.RecvGradTime = pt.Perf.BoundaryTime(m, hi-1, batch, links[j+1])
		}
		st := &plan.Stages[j%k]
		st.Chunks = append(st.Chunks, ch)
		st.FwdTime += fwd
		st.BwdTime += bwd
		st.RecvActTime += ch.RecvActTime
		st.RecvGradTime += ch.RecvGradTime
		chunkRanges[j%k] = append(chunkRanges[j%k], [2]int{lo, hi})
	}
	for s := 0; s < k; s++ {
		st := &plan.Stages[s]
		st.MemoryBytes = pt.Perf.StageMemoryChunks(pt.schedule(), m, chunkRanges[s], s, k, K, nm, batch)
		if t := st.ExecTime(); t > plan.Bottleneck {
			plan.Bottleneck = t
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("partition: internal error: %v", err)
	}
	return plan, nil
}

// MaxNm finds the largest Nm in [1, cap] for which a memory-feasible plan
// exists — the paper's Maxm for the virtual worker — under the
// partitioner's schedule and interleave degree. A 1F1B partitioner admits a
// larger Maxm than a FIFO one on memory-constrained workers because its
// per-stage stash stops growing once Nm exceeds the stage depth; an
// interleaved partitioner's stash bound runs over the k*V virtual depth. It
// returns 0 when even Nm=1 does not fit.
func (pt *Partitioner) MaxNm(c *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, batch, cap int) int {
	lo, hi := 1, cap
	if _, err := pt.Partition(c, m, vw, 1, batch); err != nil {
		return 0
	}
	// Feasibility is monotone in Nm (memory grows with Nm), so binary search.
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if _, err := pt.Partition(c, m, vw, mid, batch); err == nil {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
