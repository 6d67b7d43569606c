// Package ps implements the parameter-server substrate HetPipe synchronizes
// through: a sharded key-value store of weight vectors with WSP clock
// semantics.
//
// Each virtual worker pushes one aggregated update per wave (Section 5); the
// server applies updates to the global weights and advances the global clock
// cglobal to c+1 once every worker has pushed wave c. Pulls may specify a
// minimum global clock and block until the server reaches it — that is the
// D-bound wait, which the caller overlaps with pipelined execution.
//
// The store is usable in process (Server methods are goroutine-safe) or over
// TCP with a length-prefixed binary wire protocol (see wire.go, and Serve
// and Dial in transport.go), mirroring how the paper spreads parameter
// shards across nodes. The ordered method forms (PushOrdered, PullInto,
// PullAtInto) move weights through caller-owned slices with no per-call map
// traffic; the map forms remain as conveniences for cold paths and tests.
//
// The full clock-versioned state checkpoints and restores (checkpoint.go):
// Capture truncates a set of shard servers to a consistent clock cut,
// SaveCheckpoint writes it atomically (temp file + rename, versioned
// header), and a server restored from the file serves bit-identical
// snapshots — the substrate crash recovery and run resumption
// (internal/cluster) build on.
package ps

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hetpipe/internal/tensor"
)

// waveUpdate is one worker's retained aggregated update for one wave: the
// pushed keys in push order, with every delta packed back-to-back in a
// single backing allocation (offsets are implied by the registered shard
// lengths). It replaces the old per-(wave,worker) map of per-key clones —
// one allocation per push instead of one per key.
type waveUpdate struct {
	keys    []string
	backing tensor.Vector
}

// Server is one parameter-server shard host: a set of named weight vectors
// plus WSP clock state for its workers.
//
// Besides the latest weights (Pull), the server retains clock-versioned
// snapshots: the weights as of each global-clock boundary c, defined as the
// initial weights plus every wave-v update with v < c, regardless of push
// arrival order. PullAt reads such a snapshot, which makes the value a pull
// observes a deterministic function of the update schedule — the property
// the sim-vs-live conformance harness (internal/cluster) relies on.
// Materialized snapshots are retained for the whole run (one weight copy
// per clock boundary; per-wave deltas are freed once folded), since the
// server cannot know which old boundary a lagging worker may still demand;
// runs are bounded by their minibatch budget, which bounds this too.
type Server struct {
	mu     sync.Mutex
	cond   *sync.Cond
	shards map[string]tensor.Vector
	// initial holds the registered starting weights, the clock-0 snapshot.
	initial map[string]tensor.Vector
	clocks  []int // clocks[w] = waves pushed by worker w
	// waveDeltas[v*W+w] is worker w's aggregated update of wave v (zero
	// until pushed), stored flat so pushing a new wave costs amortized-zero
	// bookkeeping allocations; snapshots[c] is the materialized clock-c
	// snapshot, built lazily from waveDeltas in (wave, worker) order so the
	// result does not depend on push arrival order.
	waveDeltas []waveUpdate
	snapshots  []map[string]tensor.Vector
	// internedKeys is the key slice of the most recent push. Workers push
	// the same key set wave after wave, so retained waveUpdates share one
	// server-owned slice instead of cloning the caller's per push; the
	// aligned shard vectors and their summed length ride along so a repeat
	// keyset skips the map lookups and the duplicate scan entirely.
	internedKeys   []string
	internedShards []tensor.Vector
	internedTotal  int
	// freeBackings recycles the backing arrays of folded wave deltas into
	// later pushes: in the steady state (pulls folding waves as pushes land)
	// a push costs zero backing allocations, and the recycled array is fully
	// overwritten so it never needs re-zeroing.
	freeBackings []tensor.Vector
	// maxDistance is the largest max-min clock spread observed at any push.
	maxDistance int
	pushes      uint64
	pulls       uint64
	// malformed counts protocol-level garbage seen by the TCP transport:
	// bad preambles, truncated or oversized frames, undecodable requests.
	// Atomic because connection goroutines bump it without taking mu.
	malformed atomic.Uint64
	closed    bool
}

// NewServer creates a server expecting pushes from n workers.
func NewServer(n int) (*Server, error) {
	if n < 1 {
		return nil, fmt.Errorf("ps: need at least one worker, got %d", n)
	}
	s := &Server{
		shards:  make(map[string]tensor.Vector),
		initial: make(map[string]tensor.Vector),
		clocks:  make([]int, n),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Register installs a named weight vector with initial values. Registering
// an existing key fails — shard layout is fixed before training.
func (s *Server) Register(key string, init []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.shards[key]; ok {
		return fmt.Errorf("ps: shard %q already registered", key)
	}
	s.shards[key] = tensor.Vector(init).Clone()
	s.initial[key] = tensor.Vector(init).Clone()
	return nil
}

// Keys lists registered shard keys (order unspecified).
func (s *Server) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.shards))
	for k := range s.shards {
		out = append(out, k)
	}
	return out
}

// PushOrdered applies worker w's aggregated wave update given as parallel
// key and delta slices (per-shard deltas added to the global weights:
// wglobal += u~) and advances w's clock. It returns the worker's new clock.
// Waking blocked pulls happens automatically.
//
// The update is validated in full — worker range, shard existence, lengths,
// duplicate keys — before any weight is touched, so a rejected push leaves
// the server unchanged. The retained wave delta is copied into one backing
// allocation; the caller keeps ownership of keys and vecs.
func (s *Server) PushOrdered(w int, keys []string, vecs []tensor.Vector) (int, error) {
	if len(keys) != len(vecs) {
		return 0, fmt.Errorf("ps: %d keys for %d vectors", len(keys), len(vecs))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w < 0 || w >= len(s.clocks) {
		return 0, fmt.Errorf("ps: worker %d out of range [0,%d)", w, len(s.clocks))
	}
	if !keysEqual(s.internedKeys, keys) {
		if err := s.internPushKeys(keys); err != nil {
			return 0, err
		}
	}
	// The interned shard list is aligned with keys; only the per-vector
	// lengths still need checking on a repeat keyset.
	for i, shard := range s.internedShards {
		if len(shard) != len(vecs[i]) {
			return 0, fmt.Errorf("ps: shard %q length %d, delta length %d", keys[i], len(shard), len(vecs[i]))
		}
	}
	wave := s.clocks[w]
	need := (wave + 1) * len(s.clocks)
	for len(s.waveDeltas) < need {
		s.waveDeltas = append(s.waveDeltas, waveUpdate{})
	}
	u := &s.waveDeltas[wave*len(s.clocks)+w]
	u.keys = s.internedKeys
	u.backing = s.takeBacking(s.internedTotal)
	off := 0
	for i, shard := range s.internedShards {
		tensor.AddCopy(shard, u.backing[off:off+len(shard)], vecs[i])
		off += len(shard)
	}
	s.clocks[w]++
	if d := s.distanceLocked(); d > s.maxDistance {
		s.maxDistance = d
	}
	s.pushes++
	s.cond.Broadcast()
	return s.clocks[w], nil
}

// takeBacking returns a length-n vector for a retained wave delta, reusing
// a recycled backing when one is large enough. Callers overwrite every
// element, so recycled arrays are handed back without zeroing.
//
//hetlint:hotpath
func (s *Server) takeBacking(n int) tensor.Vector {
	for i := len(s.freeBackings) - 1; i >= 0; i-- {
		if b := s.freeBackings[i]; cap(b) >= n {
			s.freeBackings[i] = s.freeBackings[len(s.freeBackings)-1]
			s.freeBackings[len(s.freeBackings)-1] = nil
			s.freeBackings = s.freeBackings[:len(s.freeBackings)-1]
			return b[:n]
		}
	}
	return make(tensor.Vector, n)
}

// takeBackingFrom returns a retained copy of flat, reusing a recycled
// backing when one is large enough; the fresh-allocation path clones via
// append so the new array is written exactly once (no zeroing pass).
//
//hetlint:hotpath
func (s *Server) takeBackingFrom(flat tensor.Vector) tensor.Vector {
	for i := len(s.freeBackings) - 1; i >= 0; i-- {
		if b := s.freeBackings[i]; cap(b) >= len(flat) {
			s.freeBackings[i] = s.freeBackings[len(s.freeBackings)-1]
			s.freeBackings[len(s.freeBackings)-1] = nil
			s.freeBackings = s.freeBackings[:len(s.freeBackings)-1]
			b = b[:len(flat)]
			copy(b, flat)
			return b
		}
	}
	return flat.CloneFast()
}

// previewPush validates worker w's ordered update exactly as PushOrdered
// would and returns the clock it will advance to, without touching any
// weight. The TCP transport uses it to acknowledge a push before applying
// it, overlapping the apply with the acknowledgment's network transit.
// Clock-gated readers cannot observe the reordering: requests on the same
// connection are handled after the commit, and Pull/PullAt on other
// connections block until the commit advances the clock. A reader that is
// not clock-gated — GlobalClock, Stats, a checkpoint, or the run owner
// reading final state off the Server — must first WaitClock for the clock
// it expects.
//
//hetlint:hotpath
func (s *Server) previewPush(w int, keys []string, dims []int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validatePushLocked(w, keys, dims, -1); err != nil {
		return 0, err
	}
	return s.clocks[w] + 1, nil
}

// validatePushLocked checks an ordered push — worker index, keyset
// (interning a new one), per-shard dims, and, when flatLen >= 0, the
// concatenated delta length. It is the shared validation of previewPush
// and pushOrderedFlat, split out unannotated because its fmt formatting
// runs only on the error path.
func (s *Server) validatePushLocked(w int, keys []string, dims []int, flatLen int) error {
	if len(keys) != len(dims) {
		return fmt.Errorf("ps: %d keys for %d vectors", len(keys), len(dims))
	}
	if w < 0 || w >= len(s.clocks) {
		return fmt.Errorf("ps: worker %d out of range [0,%d)", w, len(s.clocks))
	}
	if !keysEqual(s.internedKeys, keys) {
		if err := s.internPushKeys(keys); err != nil {
			return err
		}
	}
	for i, shard := range s.internedShards {
		if len(shard) != dims[i] {
			return fmt.Errorf("ps: shard %q length %d, delta length %d", keys[i], len(shard), dims[i])
		}
	}
	if flatLen >= 0 && flatLen != s.internedTotal {
		return fmt.Errorf("ps: flat delta length %d, want %d", flatLen, s.internedTotal)
	}
	return nil
}

// pushOrderedFlat is PushOrdered for a delta arriving as consecutive
// key-order segments of one contiguous vector — the TCP transport's decode
// layout. Retaining the wave delta is then a single streaming clone of
// flat (no zeroing, no per-key scatter), the dominant cost of a push once
// the wire codec runs at memcpy speed.
//
//hetlint:hotpath
func (s *Server) pushOrderedFlat(w int, keys []string, dims []int, flat tensor.Vector) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validatePushLocked(w, keys, dims, len(flat)); err != nil {
		return 0, err
	}
	wave := s.clocks[w]
	need := (wave + 1) * len(s.clocks)
	for len(s.waveDeltas) < need {
		s.waveDeltas = append(s.waveDeltas, waveUpdate{})
	}
	u := &s.waveDeltas[wave*len(s.clocks)+w]
	u.keys = s.internedKeys
	u.backing = s.takeBackingFrom(flat)
	off := 0
	for _, shard := range s.internedShards {
		shard.AddInPlace(flat[off : off+len(shard)])
		off += len(shard)
	}
	s.clocks[w]++
	if d := s.distanceLocked(); d > s.maxDistance {
		s.maxDistance = d
	}
	s.pushes++
	s.cond.Broadcast()
	return s.clocks[w], nil
}

// internPushKeys validates a new push keyset — shard existence, duplicate
// keys — and caches a server-owned copy with the aligned shard vectors.
// Workers push the same shard set wave after wave, so this runs once per
// keyset change, not per push; retained waveUpdates share the server-owned
// slice and never alias caller memory (callers recycle their slices).
func (s *Server) internPushKeys(keys []string) error {
	for i, key := range keys {
		if _, ok := s.shards[key]; !ok {
			return fmt.Errorf("ps: push to unregistered shard %q", key)
		}
		for j := 0; j < i; j++ {
			if keys[j] == key {
				return fmt.Errorf("ps: duplicate shard %q in push", key)
			}
		}
	}
	s.internedKeys = append([]string(nil), keys...)
	s.internedShards = make([]tensor.Vector, len(keys))
	s.internedTotal = 0
	for i, key := range keys {
		s.internedShards[i] = s.shards[key]
		s.internedTotal += len(s.shards[key])
	}
	return nil
}

// Push applies worker w's aggregated wave update given as a map. Map-form
// convenience over PushOrdered; the ordered form avoids the per-call
// conversion.
func (s *Server) Push(w int, updates map[string]tensor.Vector) (int, error) {
	keys := make([]string, 0, len(updates))
	vecs := make([]tensor.Vector, 0, len(updates))
	for k, v := range updates {
		keys = append(keys, k)
		vecs = append(vecs, v)
	}
	return s.PushOrdered(w, keys, vecs)
}

func (s *Server) distanceLocked() int {
	min, max := s.clocks[0], s.clocks[0]
	for _, c := range s.clocks[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return max - min
}

// MaxClockDistance reports the largest max-min clock spread across workers
// observed at any push — the live counterpart of the WSP coordinator's
// distance tracking, used to check the D+1 bound.
func (s *Server) MaxClockDistance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxDistance
}

// GlobalClock reports min over workers of pushed waves.
func (s *Server) GlobalClock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.globalLocked()
}

func (s *Server) globalLocked() int {
	min := s.clocks[0]
	for _, c := range s.clocks[1:] {
		if c < min {
			min = c
		}
	}
	return min
}

// PullInto copies the requested shards into dst (dst[i] receives keys[i],
// reusing dst[i]'s storage when its length already matches) once the global
// clock has reached minClock, blocking as needed. A minClock of zero never
// blocks. It returns the global clock observed at read time.
func (s *Server) PullInto(dst []tensor.Vector, keys []string, minClock int) (int, error) {
	if len(dst) != len(keys) {
		return 0, fmt.Errorf("ps: %d destinations for %d keys", len(dst), len(keys))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.globalLocked() < minClock && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return 0, fmt.Errorf("ps: server closed")
	}
	for i, key := range keys {
		shard, ok := s.shards[key]
		if !ok {
			return 0, fmt.Errorf("ps: pull of unregistered shard %q", key)
		}
		if len(dst[i]) != len(shard) {
			dst[i] = make(tensor.Vector, len(shard))
		}
		copy(dst[i], shard)
	}
	s.pulls++
	return s.globalLocked(), nil
}

// Pull returns copies of the requested shards once the global clock has
// reached minClock, blocking as needed. Map-form convenience over PullInto.
func (s *Server) Pull(keys []string, minClock int) (map[string]tensor.Vector, int, error) {
	dst := make([]tensor.Vector, len(keys))
	clock, err := s.PullInto(dst, keys, minClock)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]tensor.Vector, len(keys))
	for i, k := range keys {
		out[k] = dst[i]
	}
	return out, clock, nil
}

// PullAtInto copies the requested shards as of global-clock boundary
// `clock` into dst — the initial weights plus every wave-v update with
// v < clock from every worker — blocking until the global clock reaches
// `clock`. Unlike PullInto, the result is independent of push arrival
// order: the deterministic read the WSP staleness analysis reasons about,
// and the one the live training runtime uses so its trajectory matches the
// simulator's.
func (s *Server) PullAtInto(dst []tensor.Vector, keys []string, clock int) error {
	if len(dst) != len(keys) {
		return fmt.Errorf("ps: %d destinations for %d keys", len(dst), len(keys))
	}
	if clock < 0 {
		return fmt.Errorf("ps: negative snapshot clock %d", clock)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.globalLocked() < clock && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return fmt.Errorf("ps: server closed")
	}
	snap, err := s.snapshotLocked(clock)
	if err != nil {
		return err
	}
	for i, key := range keys {
		shard, ok := snap[key]
		if !ok {
			return fmt.Errorf("ps: pull of unregistered shard %q", key)
		}
		if len(dst[i]) != len(shard) {
			dst[i] = make(tensor.Vector, len(shard))
		}
		copy(dst[i], shard)
	}
	s.pulls++
	return nil
}

// PullAt returns copies of the requested shards as of global-clock boundary
// `clock`. Map-form convenience over PullAtInto.
func (s *Server) PullAt(keys []string, clock int) (map[string]tensor.Vector, error) {
	dst := make([]tensor.Vector, len(keys))
	if err := s.PullAtInto(dst, keys, clock); err != nil {
		return nil, err
	}
	out := make(map[string]tensor.Vector, len(keys))
	for i, k := range keys {
		out[k] = dst[i]
	}
	return out, nil
}

// vecSink receives weight vectors during a locked pull view. The TCP
// transport implements it to encode responses straight from server-owned
// storage — no intermediate clone, no map. The vector passed to visit is
// only valid for the duration of the call.
type vecSink interface {
	visit(i int, key string, v tensor.Vector) error
}

// pullView is PullInto without the copy: once the global clock has reached
// minClock it visits the requested shards in key order, under the server
// lock, and returns the observed global clock.
func (s *Server) pullView(keys []string, minClock int, sink vecSink) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.globalLocked() < minClock && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return 0, fmt.Errorf("ps: server closed")
	}
	for i, key := range keys {
		shard, ok := s.shards[key]
		if !ok {
			return 0, fmt.Errorf("ps: pull of unregistered shard %q", key)
		}
		if err := sink.visit(i, key, shard); err != nil {
			return 0, err
		}
	}
	s.pulls++
	return s.globalLocked(), nil
}

// pullAtView is PullAtInto without the copy: it visits the clock-`clock`
// snapshot of the requested shards in key order, under the server lock.
func (s *Server) pullAtView(keys []string, clock int, sink vecSink) error {
	if clock < 0 {
		return fmt.Errorf("ps: negative snapshot clock %d", clock)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.globalLocked() < clock && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return fmt.Errorf("ps: server closed")
	}
	snap, err := s.snapshotLocked(clock)
	if err != nil {
		return err
	}
	for i, key := range keys {
		shard, ok := snap[key]
		if !ok {
			return fmt.Errorf("ps: pull of unregistered shard %q", key)
		}
		if err := sink.visit(i, key, shard); err != nil {
			return err
		}
	}
	s.pulls++
	return nil
}

// WaitClock blocks until the global clock reaches c (or the server closes).
// The transport's snapshot cache uses it to honor the D-bound before
// serving a pre-encoded snapshot frame, and a run's owner uses it to let
// acknowledged-but-uncommitted TCP pushes land before reading final state.
func (s *Server) WaitClock(c int) error {
	if c < 0 {
		return fmt.Errorf("ps: negative snapshot clock %d", c)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.globalLocked() < c && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return fmt.Errorf("ps: server closed")
	}
	return nil
}

// countCachedPull records a pull served from the transport's snapshot cache
// so Stats counts it like any other pull.
func (s *Server) countCachedPull() {
	s.mu.Lock()
	s.pulls++
	s.mu.Unlock()
}

// snapshotLocked materializes (and caches) the clock-c weight snapshot.
// Requires the global clock to have reached c, so every wave < c is fully
// pushed. Deltas are folded in (wave, worker) order, never arrival order.
func (s *Server) snapshotLocked(c int) (map[string]tensor.Vector, error) {
	if s.globalLocked() < c {
		return nil, fmt.Errorf("ps: snapshot %d ahead of global clock %d", c, s.globalLocked())
	}
	if len(s.snapshots) == 0 {
		base := make(map[string]tensor.Vector, len(s.initial))
		for k, v := range s.initial {
			base[k] = v.Clone()
		}
		s.snapshots = append(s.snapshots, base)
	}
	for len(s.snapshots) <= c {
		wave := len(s.snapshots) - 1
		next := make(map[string]tensor.Vector, len(s.initial))
		for k, v := range s.snapshots[wave] {
			next[k] = v.Clone()
		}
		base := wave * len(s.clocks)
		for w := range s.clocks {
			u := &s.waveDeltas[base+w]
			off := 0
			for _, k := range u.keys {
				v := next[k]
				v.AddInPlace(u.backing[off : off+len(v)])
				off += len(v)
			}
			// This fold is the only reader of the wave's per-worker deltas;
			// drop them so a long run retains one snapshot per clock
			// (O(clocks x keys)), not additionally O(workers) delta copies.
			// The backing is recycled into later pushes (bounded by one
			// spare per worker — beyond that GC takes them).
			if u.backing != nil && len(s.freeBackings) < len(s.clocks) {
				s.freeBackings = append(s.freeBackings, u.backing)
			}
			*u = waveUpdate{}
		}
		s.snapshots = append(s.snapshots, next)
	}
	return s.snapshots[c], nil
}

// Meta describes a server to its clients: the expected worker count and the
// registered shard keys with their lengths. The sharded client fetches it
// once to validate pushes before any shard's clock can advance.
type Meta struct {
	Workers int
	Dims    map[string]int
}

// Meta reports the server's shard layout and worker count.
func (s *Server) Meta() (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Meta{Workers: len(s.clocks), Dims: make(map[string]int, len(s.shards))}
	for k, v := range s.shards {
		m.Dims[k] = len(v)
	}
	return m, nil
}

// Close wakes all blocked pulls with an error and marks the server down.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}

// Stats reports operation counters (pushes, pulls).
func (s *Server) Stats() (pushes, pulls uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushes, s.pulls
}

// noteMalformed counts one protocol-level malformed request.
func (s *Server) noteMalformed() {
	s.malformed.Add(1)
}

// MalformedRequests reports how many protocol-level malformed requests the
// TCP transport has rejected on this server's behalf: bad preambles,
// truncated or oversized frames, and undecodable request payloads.
func (s *Server) MalformedRequests() uint64 {
	return s.malformed.Load()
}
