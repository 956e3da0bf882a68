package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

// spanKind names a span. Every span is recorded by this package
// around a call into a public function of one layer; nothing inside
// the program is instrumented.
type spanKind uint8

const (
	spTxn         spanKind = iota // one transaction, first call to commit ack (root)
	spOpen                        // Client.Open
	spAttempt                     // one attempt of a per-step transaction
	spStep                        // Session.Step
	spCommit                      // the call returning the commit ack: Commit, Client.Run or RunPipelined
	spClientWrite                 // net.Conn.Write under pkg/client
	spServerWrite                 // net.Conn.Write under internal/server
	spAppend                      // Persister.Append*
	spRotate                      // Persister.Rotate
	spDirectTxn                   // one engine-direct transaction (root)
	spRtOpen                      // SessionEngine.OpenSession
	spRtStep                      // Sess.Step
	spRtCommit                    // Sess.Commit
	spRtRun                       // Sess.Run
	spRtClose                     // SessionEngine.Close
)

var spanNames = []string{
	spTxn:         "bench.txn",
	spOpen:        "client.open",
	spAttempt:     "client.attempt",
	spStep:        "client.step",
	spCommit:      "client.commit",
	spClientWrite: "wire.client_write",
	spServerWrite: "server.write",
	spAppend:      "recovery.append",
	spRotate:      "recovery.rotate",
	spDirectTxn:   "direct.txn",
	spRtOpen:      "runtime.open",
	spRtStep:      "runtime.step",
	spRtCommit:    "runtime.commit",
	spRtRun:       "runtime.run",
	spRtClose:     "runtime.close",
}

func (k spanKind) String() string { return spanNames[k] }

// spNone marks a span with no transaction or connection.
const spNone = -1

// span is one traced call: name, interval (ns since the tracer's
// epoch), its parent span (0 for a root), the transaction (stream
// sequence number) and connection it belongs to.
type span struct {
	start, end int64
	id, parent uint64
	txn        int64
	conn       int32
	kind       spanKind
}

// tracer keeps every span in memory until the run writes them out.
// Each recording goroutine gets its own buffer.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu   sync.Mutex
	bufs []*spanBuf
}

type spanBuf struct {
	t     *tracer
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a fresh buffer, or nil for a nil tracer (untraced run);
// every spanBuf method is a no-op on nil.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// id reserves a span id, so children can name a parent recorded later.
func (b *spanBuf) id() uint64 {
	if b == nil {
		return 0
	}
	return b.t.nextID.Add(1)
}

// record stores a finished span that started at start.
func (b *spanBuf) record(kind spanKind, id, parent uint64, start time.Time, txn int64, conn int) {
	if b == nil {
		return
	}
	sp := span{
		start:  int64(start.Sub(b.t.epoch)),
		end:    int64(time.Since(b.t.epoch)),
		id:     id,
		parent: parent,
		txn:    txn,
		conn:   int32(conn),
		kind:   kind,
	}
	b.mu.Lock()
	b.spans = append(b.spans, sp)
	b.mu.Unlock()
}

// spans returns every recorded span and empties the tracer.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	out := make([]span, 0, n)
	for _, b := range t.bufs {
		b.mu.Lock()
		out = append(out, b.spans...)
		b.spans = nil
		b.mu.Unlock()
	}
	return out
}

// layerTime is one span name's aggregate: how many spans, their total
// duration, and their self time (duration minus the part of the
// interval its child spans cover).
type layerTime struct {
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[uint64][]span)
	for _, sp := range spans {
		if sp.parent != 0 {
			children[sp.parent] = append(children[sp.parent], sp)
		}
	}
	out := make(map[string]*layerTime)
	for _, sp := range spans {
		lt := out[sp.kind.String()]
		if lt == nil {
			lt = &layerTime{}
			out[sp.kind.String()] = lt
		}
		dur := sp.end - sp.start
		lt.Spans++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(sp, children[sp.id])) / 1e6
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			curE = max(curE, x[1])
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// traceFile is the first line of the trace a traced run writes when
// it ends; every further line is one span,
// [kind, start_ns, end_ns, id, parent, txn, conn], with kind an index
// into Names.
type traceFile struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Commits    int                    `json:"commits"`
	Names      []string               `json:"names"`
	SpanFields []string               `json:"span_fields"`
	SelfTime   map[string]*layerTime  `json:"self_time"`
	Series     map[string][][]float64 `json:"commits_per_s_per_1000"`
	Overhead   map[string]float64     `json:"tracing_overhead"`
}

func writeTrace(path string, tf traceFile, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	tf.Names = spanNames
	tf.SpanFields = []string{"kind", "start_ns", "end_ns", "id", "parent", "txn", "conn"}
	head, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	w.Write(head)
	for _, sp := range spans {
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d,%d,%d]", sp.kind, sp.start, sp.end, sp.id, sp.parent, sp.txn, sp.conn)
	}
	w.WriteString("\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// countedConn wraps one side of a connection: it counts writes and
// bytes, times each Write, and records a span per Write.
type countedConn struct {
	net.Conn
	buf    *spanBuf
	kind   spanKind
	id     int
	writes atomic.Int64
	bytes  atomic.Int64
	busy   atomic.Int64 // ns inside Write
}

func (c *countedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.busy.Add(int64(time.Since(start)))
	c.writes.Add(1)
	c.bytes.Add(int64(n))
	c.buf.record(c.kind, c.buf.id(), 0, start, spNone, c.id)
	return n, err
}

// countedListener wraps the server's listener so each accepted
// connection is a countedConn; connection ids follow accept order,
// which is dial order, so id k names the same connection on both sides.
type countedListener struct {
	net.Listener
	t     *tracer
	mu    sync.Mutex
	conns []*countedConn
}

func (l *countedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c := &countedConn{Conn: nc, buf: l.t.buf(), kind: spServerWrite, id: len(l.conns)}
	l.conns = append(l.conns, c)
	return c, nil
}

func (l *countedListener) totals() (writes, bytes int64, busy time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sumConns(l.conns)
}

func sumConns(cs []*countedConn) (writes, bytes int64, busy time.Duration) {
	for _, c := range cs {
		writes += c.writes.Load()
		bytes += c.bytes.Load()
		busy += time.Duration(c.busy.Load())
	}
	return writes, bytes, busy
}

// persisters wraps each partition's durable store, timing every
// append and rotation through the recovery.Persister interface.
type persisters struct {
	t    *tracer
	mu   sync.Mutex
	list []*timedPersister
}

func (ps *persisters) wrap(p recovery.Persister) recovery.Persister {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	tp := &timedPersister{inner: p, buf: ps.t.buf(), part: len(ps.list)}
	if st, ok := p.(*recovery.Store); ok {
		tp.store, tp.gen0 = st, st.Gen()
	}
	ps.list = append(ps.list, tp)
	return tp
}

type timedPersister struct {
	inner recovery.Persister
	buf   *spanBuf
	part  int
	store *recovery.Store
	gen0  uint64

	mu  sync.Mutex
	lat []time.Duration
}

func (p *timedPersister) timed(kind spanKind, f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	p.buf.record(kind, p.buf.id(), 0, start, spNone, p.part)
	if kind == spAppend {
		p.mu.Lock()
		p.lat = append(p.lat, d)
		p.mu.Unlock()
	}
	return err
}

func (p *timedPersister) AppendEvents(evs []model.Ev, tags []uint64) error {
	return p.timed(spAppend, func() error { return p.inner.AppendEvents(evs, tags) })
}

func (p *timedPersister) AppendCompact(victims []int) error {
	return p.timed(spAppend, func() error { return p.inner.AppendCompact(victims) })
}

func (p *timedPersister) AppendOpen(o recovery.OpenRec) error {
	return p.timed(spAppend, func() error { return p.inner.AppendOpen(o) })
}

func (p *timedPersister) AppendStatus(tid int, status byte) error {
	return p.timed(spAppend, func() error { return p.inner.AppendStatus(tid, status) })
}

func (p *timedPersister) Rotate() error {
	return p.timed(spRotate, p.inner.Rotate)
}

func (p *timedPersister) Close() error { return p.inner.Close() }

// walStats sums the wrapped stores after the drain: append latencies,
// generations rotated through (explicit Rotate calls and the size-driven
// rotations inside an append alike), and WAL bytes.
func (ps *persisters) walStats() (lat []time.Duration, rotations int, walBytes int64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.list {
		p.mu.Lock()
		lat = append(lat, p.lat...)
		p.mu.Unlock()
		if p.store != nil {
			rotations += int(p.store.Gen() - p.gen0)
			walBytes += p.store.WALBytes()
		}
	}
	return lat, rotations, walBytes
}
