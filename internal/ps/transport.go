package ps

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"hetpipe/internal/tensor"
)

// The TCP transport speaks the binary wire protocol described in wire.go:
// length-prefixed frames, per-connection key interning, raw little-endian
// float payloads through pooled buffers. Pulls may block server-side, so
// each connection is served by its own goroutine; a Client serializes
// concurrent callers with a mutex, but one connection per worker thread
// (as internal/cluster deploys them) remains the fast configuration.

// connReadBuf sizes each side's buffered reader. Deliberately small: the
// buffer only needs to amortize the tiny reads (frame headers, preambles,
// push acks). Bulk payloads are read with io.ReadFull into the frame
// buffer, and bufio passes reads larger than its buffer straight to the
// socket — so a small buffer means weight payloads land in the frame
// buffer in one kernel copy instead of bouncing through bufio's.
const connReadBuf = 4 << 10

// Serve accepts connections on l and dispatches requests to s until the
// listener closes. Each connection gets a dedicated goroutine so blocking
// pulls do not stall other clients. Snapshot responses are cached per
// (clock, key set) across all of the listener's connections: clock-versioned
// snapshots are immutable once readable, so replay recovery and the D-gated
// pulls every worker issues at the same clock boundary are served from one
// pre-encoded frame instead of re-marshaling per puller.
func Serve(l net.Listener, s *Server) error {
	cache := newSnapCache()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			sc := &serverConn{conn: conn, s: s, cache: cache, br: bufio.NewReaderSize(conn, connReadBuf)}
			sc.serve()
		}()
	}
}

// snapCache holds pre-encoded opPullAt response frames keyed by (clock, key
// set). Entries are immutable — a clock-c snapshot can only be read once the
// global clock reached c, after which its value is fixed — so the cache
// never invalidates. Retention mirrors the server's own snapshot retention
// (one entry per clock boundary per distinct key set; workers all pull the
// same full key set, so in practice one per clock).
type snapCache struct {
	mu      sync.Mutex
	byClock map[int][]snapEntry
}

type snapEntry struct {
	keys  []string
	frame []byte
}

func newSnapCache() *snapCache {
	return &snapCache{byClock: make(map[int][]snapEntry)}
}

// get returns the cached frame for (clock, keys), or nil.
func (c *snapCache) get(clock int, keys []string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.byClock[clock] {
		if keysEqual(e.keys, keys) {
			return e.frame
		}
	}
	return nil
}

// put stores a copy of the encoded frame under (clock, keys).
func (c *snapCache) put(clock int, keys []string, frame []byte) {
	e := snapEntry{keys: append([]string(nil), keys...), frame: append([]byte(nil), frame...)}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.byClock[clock] {
		if keysEqual(have.keys, keys) {
			return // raced with another connection; the frames are identical
		}
	}
	c.byClock[clock] = append(c.byClock[clock], e)
}

//hetlint:hotpath
func keysEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serverConn is one connection's server-side state: pooled frame buffers and
// the interned key table mirroring the client's.
type serverConn struct {
	conn  net.Conn
	s     *Server
	cache *snapCache
	br    *bufio.Reader

	rbuf []byte  // incoming frame payload
	dec  decoder // reads rbuf
	enc  encoder // outgoing response frame

	names []string // interned key table: id -> key
	keys  []string // current request's key set (scratch)
	// Push payload scratch, reused across requests: decoded deltas land as
	// consecutive key-order segments of one contiguous vector, so retaining
	// the wave update is a single streaming clone on the server.
	flat tensor.Vector
	dims []int
}

// serve runs the connection's request loop. A clean shutdown is the client
// closing the connection between frames (bare io.EOF); anything else — a bad
// preamble, a truncated or oversized frame, an undecodable request — counts
// as a malformed request in the server's stats and, where the connection is
// still writable, draws a protocol-error frame before the connection closes.
func (c *serverConn) serve() {
	var pre [preambleLen]byte
	if _, err := io.ReadFull(c.br, pre[:]); err != nil {
		if err != io.EOF { // connected and vanished: clean enough
			c.s.noteMalformed()
			c.writeProtoErr("ps: truncated connection preamble")
		}
		return
	}
	if err := checkPreamble(pre[:]); err != nil {
		c.s.noteMalformed()
		c.writeProtoErr(err.Error())
		return
	}
	for {
		n, err := c.readFrameHeader()
		if err != nil {
			if err != io.EOF { // mid-header cut or unreadable socket
				c.s.noteMalformed()
			}
			return
		}
		if n > maxFrame {
			c.s.noteMalformed()
			c.writeProtoErr("ps: frame exceeds size limit")
			return
		}
		if cap(c.rbuf) < n {
			c.rbuf = make([]byte, n)
		}
		c.rbuf = c.rbuf[:n]
		if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
			c.s.noteMalformed() // length prefix promised more bytes than arrived
			return
		}
		c.dec.reset(c.rbuf)
		if !c.handle() {
			return
		}
	}
}

// readFrameHeader reads the 4-byte length prefix. io.EOF at the frame
// boundary is the clean-shutdown signal; a partial header surfaces as
// io.ErrUnexpectedEOF.
func (c *serverConn) readFrameHeader() (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(hdr[:])), nil
}

// handle decodes and executes one request, writing one response frame.
// It returns false when the connection must close (protocol violation or an
// unwritable socket).
func (c *serverConn) handle() bool {
	op, err := c.dec.u8()
	if err != nil {
		return c.protoFail(err)
	}
	switch op {
	case opPush:
		return c.handlePush()
	case opPull:
		return c.handlePull()
	case opPullAt:
		return c.handlePullAt()
	case opClock:
		c.enc.begin()
		c.enc.u8(statusOK)
		c.enc.uvarint(uint64(c.s.GlobalClock()))
		return c.writeFrame()
	case opDistance:
		c.enc.begin()
		c.enc.u8(statusOK)
		c.enc.uvarint(uint64(c.s.MaxClockDistance()))
		return c.writeFrame()
	case opMeta:
		return c.handleMeta()
	default:
		c.s.noteMalformed()
		c.writeProtoErr(fmt.Sprintf("ps: unknown op %d", op))
		return true // framing is intact; the peer may recover
	}
}

// protoFail counts a malformed request, reports it to the peer, and closes.
func (c *serverConn) protoFail(err error) bool {
	c.s.noteMalformed()
	c.writeProtoErr(err.Error())
	return false
}

// decodeKeys reads a keyset into c.keys, interning new definitions.
//
//hetlint:hotpath
func (c *serverConn) decodeKeys() error {
	n, err := c.dec.uvarint()
	if err != nil {
		return err
	}
	// Each referenced key needs at least one payload byte, so a count beyond
	// the remaining frame is a lie, not a big request.
	if n > uint64(c.dec.remaining()) {
		return errKeyCount
	}
	c.keys = c.keys[:0]
	for i := uint64(0); i < n; i++ {
		tok, err := c.dec.uvarint()
		if err != nil {
			return err
		}
		if tok == 0 {
			name, err := c.dec.str()
			if err != nil {
				return err
			}
			c.names = append(c.names, name)
			c.keys = append(c.keys, name)
			continue
		}
		id := tok - 1
		if id >= uint64(len(c.names)) {
			return errBadKeyRef
		}
		c.keys = append(c.keys, c.names[id])
	}
	return nil
}

func (c *serverConn) handlePush() bool {
	worker, err := c.dec.uvarint()
	if err != nil {
		return c.protoFail(err)
	}
	if err := c.decodeKeys(); err != nil {
		return c.protoFail(err)
	}
	c.flat = c.flat[:0]
	c.dims = c.dims[:0]
	for range c.keys {
		n, b, err := c.dec.vecRaw()
		if err != nil {
			return c.protoFail(err)
		}
		off := len(c.flat)
		c.flat = growVec(c.flat, n)
		tensor.GetLE(c.flat[off:off+n], b)
		c.dims = append(c.dims, n)
	}
	// Acknowledge before applying: previewPush runs the full validation and
	// predicts the resulting clock, the acknowledgment goes out, and the
	// apply overlaps with its network transit. pushOrderedFlat revalidates,
	// so even a racing misuse (two connections pushing as one worker)
	// cannot corrupt the server — it can only make the commit fail after
	// the ack, which tears down this connection.
	clock, err := c.s.previewPush(int(worker), c.keys, c.dims)
	if err != nil {
		return c.writeAppErr(err)
	}
	c.enc.begin()
	c.enc.u8(statusOK)
	c.enc.uvarint(uint64(clock))
	if !c.writeFrame() {
		return false
	}
	_, err = c.s.pushOrderedFlat(int(worker), c.keys, c.dims, c.flat)
	return err == nil
}

// growVec extends v by n elements, reallocating with headroom when the
// capacity runs out (cold: the scratch stabilizes after the first push).
//
//hetlint:hotpath
func growVec(v tensor.Vector, n int) tensor.Vector {
	need := len(v) + n
	if cap(v) >= need {
		return v[:need]
	}
	nv := make(tensor.Vector, need, 2*need)
	copy(nv, v)
	return nv
}

// visit implements vecSink: the server calls it once per requested key,
// under its lock, and the vector is encoded straight into the response
// frame — no intermediate copy, no map.
//
//hetlint:hotpath
func (c *serverConn) visit(_ int, _ string, v tensor.Vector) error {
	c.enc.vec(v)
	return nil
}

func (c *serverConn) handlePull() bool {
	minClock, err := c.dec.uvarint()
	if err != nil {
		return c.protoFail(err)
	}
	if err := c.decodeKeys(); err != nil {
		return c.protoFail(err)
	}
	c.enc.begin()
	c.enc.u8(statusOK)
	clock, err := c.s.pullView(c.keys, int(minClock), c)
	if err != nil {
		return c.writeAppErr(err)
	}
	c.enc.uvarint(uint64(clock)) // clock trails the vectors; see wire.go
	return c.writeFrame()
}

func (c *serverConn) handlePullAt() bool {
	clock, err := c.dec.uvarint()
	if err != nil {
		return c.protoFail(err)
	}
	if err := c.decodeKeys(); err != nil {
		return c.protoFail(err)
	}
	if frame := c.cache.get(int(clock), c.keys); frame != nil {
		// The snapshot is already encoded, but the D-bound still holds: the
		// pull may not return before the global clock reaches it.
		if err := c.s.WaitClock(int(clock)); err != nil {
			return c.writeAppErr(err)
		}
		c.s.countCachedPull()
		_, err := c.conn.Write(frame)
		return err == nil
	}
	c.enc.begin()
	c.enc.u8(statusOK)
	if err := c.s.pullAtView(c.keys, int(clock), c); err != nil {
		return c.writeAppErr(err)
	}
	c.cache.put(int(clock), c.keys, c.enc.finish())
	return c.writeFrame()
}

func (c *serverConn) handleMeta() bool {
	m, err := c.s.Meta()
	if err != nil {
		return c.writeAppErr(err)
	}
	keys := make([]string, 0, len(m.Dims))
	for k := range m.Dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c.enc.begin()
	c.enc.u8(statusOK)
	c.enc.uvarint(uint64(m.Workers))
	c.enc.uvarint(uint64(len(keys)))
	for _, k := range keys {
		c.enc.str(k)
		c.enc.uvarint(uint64(m.Dims[k]))
	}
	return c.writeFrame()
}

// writeFrame finishes the pending response and writes it in one syscall.
//
//hetlint:hotpath
func (c *serverConn) writeFrame() bool {
	_, err := c.conn.Write(c.enc.finish())
	return err == nil
}

// writeAppErr discards any partially encoded response and reports an
// application-level error; the connection stays usable.
func (c *serverConn) writeAppErr(err error) bool {
	c.enc.begin()
	c.enc.u8(statusAppErr)
	c.enc.str(err.Error())
	return c.writeFrame()
}

// writeProtoErr reports a protocol violation. Best-effort: the peer may
// already be gone, and the connection closes either way.
func (c *serverConn) writeProtoErr(msg string) {
	c.enc.begin()
	c.enc.u8(statusProtoErr)
	c.enc.str(msg)
	c.conn.Write(c.enc.finish())
}

// Client is a TCP client for one parameter-server connection. All methods
// are safe for concurrent use: a mutex serializes request/response pairs on
// the wire (interleaved frames would corrupt the stream, which is exactly
// how the old gob transport could be misused). For parallelism, open one
// client per concurrent caller, as internal/cluster does per worker.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader

	enc  encoder // outgoing request frame
	rbuf []byte  // incoming response payload
	dec  decoder

	ids map[string]uint32 // interned key table: key -> id
}

// Dial connects to a parameter server at addr and sends the protocol
// preamble.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ps: dial %s: %w", addr, err)
	}
	if _, err := conn.Write(appendPreamble(nil)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ps: send preamble to %s: %w", addr, err)
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, connReadBuf),
		ids:  make(map[string]uint32),
	}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// encodeKeys appends the keyset section, interning keys new to this
// connection. Steady state writes two or three bytes per key.
//
//hetlint:hotpath
func (c *Client) encodeKeys(keys []string) {
	c.enc.uvarint(uint64(len(keys)))
	for _, k := range keys {
		if id, ok := c.ids[k]; ok {
			c.enc.uvarint(uint64(id) + 1)
			continue
		}
		c.ids[k] = uint32(len(c.ids))
		c.enc.u8(0)
		c.enc.str(k)
	}
}

// roundTrip writes the pending request frame and reads the response payload
// into c.dec, returning once the status byte has been consumed and checked.
// Callers must hold c.mu.
func (c *Client) roundTrip() error {
	if _, err := c.conn.Write(c.enc.finish()); err != nil {
		return fmt.Errorf("ps: send: %w", err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		if err == io.EOF {
			return fmt.Errorf("ps: server closed connection")
		}
		return fmt.Errorf("ps: receive: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return fmt.Errorf("ps: response frame exceeds size limit")
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
		return fmt.Errorf("ps: receive: %w", err)
	}
	c.dec.reset(c.rbuf)
	status, err := c.dec.u8()
	if err != nil {
		return fmt.Errorf("ps: receive: %w", err)
	}
	switch status {
	case statusOK:
		return nil
	case statusAppErr:
		msg, err := c.dec.str()
		if err != nil {
			return fmt.Errorf("ps: receive: %w", err)
		}
		return errors.New(msg)
	case statusProtoErr:
		msg, err := c.dec.str()
		if err != nil {
			return fmt.Errorf("ps: receive: %w", err)
		}
		return fmt.Errorf("ps: protocol error: %s", msg)
	default:
		return fmt.Errorf("ps: unknown response status %d", status)
	}
}

// PushOrdered sends worker w's aggregated wave update as parallel key and
// vector slices; it returns the worker's new clock. This is the
// allocation-free form the live runtime uses.
func (c *Client) PushOrdered(w int, keys []string, vecs []tensor.Vector) (int, error) {
	if len(keys) != len(vecs) {
		return 0, fmt.Errorf("ps: %d keys for %d vectors", len(keys), len(vecs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.begin()
	c.enc.u8(opPush)
	c.enc.uvarint(uint64(w))
	c.encodeKeys(keys)
	for _, v := range vecs {
		c.enc.vec(v)
	}
	if err := c.roundTrip(); err != nil {
		return 0, err
	}
	clock, err := c.dec.uvarint()
	if err != nil {
		return 0, fmt.Errorf("ps: receive: %w", err)
	}
	return int(clock), nil
}

// PullInto fetches the requested keys, blocking server-side until the global
// clock reaches minClock, and fills dst[i] with keys[i]'s weights — reusing
// dst[i]'s storage when its length already matches. It returns the observed
// global clock.
func (c *Client) PullInto(dst []tensor.Vector, keys []string, minClock int) (int, error) {
	if len(dst) != len(keys) {
		return 0, fmt.Errorf("ps: %d destinations for %d keys", len(dst), len(keys))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.begin()
	c.enc.u8(opPull)
	c.enc.uvarint(uint64(minClock))
	c.encodeKeys(keys)
	if err := c.roundTrip(); err != nil {
		return 0, err
	}
	for i := range keys {
		v, err := c.dec.vecInto(dst[i])
		if err != nil {
			return 0, fmt.Errorf("ps: receive: %w", err)
		}
		dst[i] = v
	}
	clock, err := c.dec.uvarint()
	if err != nil {
		return 0, fmt.Errorf("ps: receive: %w", err)
	}
	return int(clock), nil
}

// PullAtInto fetches the clock-versioned snapshot of the requested keys,
// blocking server-side until the global clock reaches `clock`, filling dst
// like PullInto.
func (c *Client) PullAtInto(dst []tensor.Vector, keys []string, clock int) error {
	if len(dst) != len(keys) {
		return fmt.Errorf("ps: %d destinations for %d keys", len(dst), len(keys))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.begin()
	c.enc.u8(opPullAt)
	c.enc.uvarint(uint64(clock))
	c.encodeKeys(keys)
	if err := c.roundTrip(); err != nil {
		return err
	}
	for i := range keys {
		v, err := c.dec.vecInto(dst[i])
		if err != nil {
			return fmt.Errorf("ps: receive: %w", err)
		}
		dst[i] = v
	}
	return nil
}

// Push sends worker w's aggregated wave update as a map; it returns the
// worker's new clock. Convenience form — the ordered form avoids the
// per-call map traffic.
func (c *Client) Push(w int, updates map[string]tensor.Vector) (int, error) {
	keys := make([]string, 0, len(updates))
	vecs := make([]tensor.Vector, 0, len(updates))
	for k, v := range updates {
		keys = append(keys, k)
		vecs = append(vecs, v)
	}
	return c.PushOrdered(w, keys, vecs)
}

// Pull fetches shards as a map, blocking server-side until the global clock
// reaches minClock.
func (c *Client) Pull(keys []string, minClock int) (map[string]tensor.Vector, int, error) {
	dst := make([]tensor.Vector, len(keys))
	clock, err := c.PullInto(dst, keys, minClock)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]tensor.Vector, len(keys))
	for i, k := range keys {
		out[k] = dst[i]
	}
	return out, clock, nil
}

// PullAt fetches the clock-versioned snapshot of the requested shards as a
// map, blocking server-side until the global clock reaches `clock`.
func (c *Client) PullAt(keys []string, clock int) (map[string]tensor.Vector, error) {
	dst := make([]tensor.Vector, len(keys))
	if err := c.PullAtInto(dst, keys, clock); err != nil {
		return nil, err
	}
	out := make(map[string]tensor.Vector, len(keys))
	for i, k := range keys {
		out[k] = dst[i]
	}
	return out, nil
}

// GlobalClock queries the server's clock.
func (c *Client) GlobalClock() (int, error) {
	return c.clockOp(opClock)
}

// MaxClockDistance queries the largest clock spread the server has observed.
func (c *Client) MaxClockDistance() (int, error) {
	return c.clockOp(opDistance)
}

func (c *Client) clockOp(op byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.begin()
	c.enc.u8(op)
	if err := c.roundTrip(); err != nil {
		return 0, err
	}
	clock, err := c.dec.uvarint()
	if err != nil {
		return 0, fmt.Errorf("ps: receive: %w", err)
	}
	return int(clock), nil
}

// Meta queries the server's shard layout and worker count.
func (c *Client) Meta() (Meta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.begin()
	c.enc.u8(opMeta)
	if err := c.roundTrip(); err != nil {
		return Meta{}, err
	}
	workers, err := c.dec.uvarint()
	if err != nil {
		return Meta{}, fmt.Errorf("ps: receive: %w", err)
	}
	n, err := c.dec.uvarint()
	if err != nil {
		return Meta{}, fmt.Errorf("ps: receive: %w", err)
	}
	m := Meta{Workers: int(workers), Dims: make(map[string]int, n)}
	for i := uint64(0); i < n; i++ {
		key, err := c.dec.str()
		if err != nil {
			return Meta{}, fmt.Errorf("ps: receive: %w", err)
		}
		dim, err := c.dec.uvarint()
		if err != nil {
			return Meta{}, fmt.Errorf("ps: receive: %w", err)
		}
		m.Dims[key] = int(dim)
	}
	return m, nil
}
