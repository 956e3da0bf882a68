package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/recovery"
	"locksafe/internal/runtime"
	"locksafe/internal/server"
	"locksafe/pkg/client"
)

const (
	// maxRetries is the client-side retry budget of a per-step
	// transaction, matching the engine's default for engine-side retries.
	maxRetries = 40
	// retryBase and retryCap pace client-side retries: the k-th waits
	// k*retryBase, capped, jittered down by up to half.
	retryBase = 50 * time.Microsecond
	retryCap  = 5 * time.Millisecond
	// drainTimeout bounds how long Shutdown waits for open sessions;
	// every stream has finished before the drain, so none should be open.
	drainTimeout = 10 * time.Second
)

// breach is a failed correctness check; it names the workload and the
// check.
type breach struct {
	workload, check, detail string
}

func (b *breach) Error() string {
	return fmt.Sprintf("correctness breach: workload %s: check %s: %s", b.workload, b.check, b.detail)
}

// streamOut is what one session stream observed.
type streamOut struct {
	attempted, failed, confirmed int
	retries                      int
	txnLat, stepLat              []time.Duration
	openLat, commitLat           []time.Duration
	commitAt                     []time.Duration // commit ack, as offset from load start
}

func (o *streamOut) merge(x *streamOut) {
	o.attempted += x.attempted
	o.failed += x.failed
	o.confirmed += x.confirmed
	o.retries += x.retries
	o.txnLat = append(o.txnLat, x.txnLat...)
	o.stepLat = append(o.stepLat, x.stepLat...)
	o.openLat = append(o.openLat, x.openLat...)
	o.commitLat = append(o.commitLat, x.commitLat...)
	o.commitAt = append(o.commitAt, x.commitAt...)
}

// goSnap is a runtime/metrics reading of the Go runtime's own costs.
type goSnap struct {
	gcCPU, totalCPU, gcCycles, allocBytes float64
}

var goSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readGo() goSnap {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return goSnap{v(0), v(1), v(2), v(3)}
}

func (a goSnap) sub(b goSnap) goSnap {
	return goSnap{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.gcCycles - b.gcCycles, a.allocBytes - b.allocBytes}
}

// servedResult is one served run: lockd in process, its clients over
// loopback TCP, the load, the drain and (durable) the restore.
type servedResult struct {
	streamOut
	setup, load, drain, restore time.Duration
	mallocs                     uint64
	liveHeap                    uint64
	goDelta                     goSnap
	met                         runtime.Metrics
	txnQ, stepQ                 [2]quantile // p50, p99 of this run

	// Traced runs only.
	clientWrites, serverWrites, bytesUp, bytesDown int64
	serverWriteBusy                                time.Duration
	appendLat                                      []time.Duration
	rotations                                      int
	walBytes, diskBytes                            int64
	parse                                          time.Duration
}

// runServed executes one served run of the given inputs. dir is a
// scratch directory inside the checkout for the durable store; tr, when
// non-nil, traces the run.
func runServed(w workload, in inputs, seed int64, dir string, tr *tracer) (*servedResult, error) {
	dataDir := filepath.Join(dir, "data")
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	cfg := w.config(dataDir)
	var pers *persisters
	if tr != nil && w.durable {
		pers = &persisters{t: tr}
		cfg.WrapPersister = pers.wrap
	}
	init := model.NewState(in.universe...)
	res := &servedResult{}
	goruntime.GC()

	// Set-up: server start (store open on durable), listener, dials.
	t0 := time.Now()
	srv, ln, serveDone, err := startServer(w, init, cfg)
	if err != nil {
		return nil, err
	}
	var cl *countedListener
	if tr != nil {
		cl = &countedListener{Listener: ln, t: tr}
	}
	go func() {
		if cl != nil {
			serveDone <- srv.Serve(cl)
		} else {
			serveDone <- srv.Serve(ln)
		}
	}()
	addr := ln.Addr().String()
	cs := make([]*client.Client, conns)
	var cconns []*countedConn
	for i := range cs {
		nc, err := net.Dial("tcp", addr)
		if err == nil && tr != nil {
			cc := &countedConn{Conn: nc, buf: tr.buf(), kind: spClientWrite, id: i}
			cconns = append(cconns, cc)
			nc = cc
		}
		if err == nil {
			cs[i], err = client.New(nc)
		}
		if err != nil {
			closeClients(cs)
			srv.Shutdown(drainTimeout)
			<-serveDone
			return nil, fmt.Errorf("dial %d: %w", i, err)
		}
	}
	res.setup = time.Since(t0)

	// Load: every stream a closed loop on its connection.
	var before goruntime.MemStats
	goruntime.ReadMemStats(&before)
	g0 := readGo()
	outs := make([]streamOut, streams)
	var wg sync.WaitGroup
	loadStart := time.Now()
	for s := range outs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := &stream{w: w, c: cs[s%conns], id: s, buf: tr.buf(), start: loadStart,
				rng: rand.New(rand.NewSource(seed*131 + int64(s)))}
			st.run(in.streams[s], &outs[s])
		}(s)
	}
	wg.Wait()
	res.load = time.Since(loadStart)
	res.goDelta = readGo().sub(g0)
	var after goruntime.MemStats
	goruntime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	res.liveHeap = after.HeapAlloc
	for i := range outs {
		res.merge(&outs[i])
	}
	sort.Slice(res.commitAt, func(i, j int) bool { return res.commitAt[i] < res.commitAt[j] })
	var qerr error
	if res.txnQ, qerr = p50p99(res.txnLat); qerr == nil && w.mode == perStep {
		res.stepQ, qerr = p50p99(res.stepLat)
	}

	// Drain: includes the final serializability verification.
	td := time.Now()
	final, serr := srv.Shutdown(drainTimeout)
	res.drain = time.Since(td)
	<-serveDone
	closeClients(cs)
	if tr != nil {
		res.clientWrites, res.bytesUp, _ = sumConns(cconns)
		res.serverWrites, res.bytesDown, res.serverWriteBusy = cl.totals()
	}
	if serr != nil {
		return nil, &breach{w.name, "drain-serializable", serr.Error()}
	}
	if qerr != nil {
		return nil, qerr
	}
	res.met = final.Metrics
	if err := gateCounts(w.name, "served", res.confirmed, res.met.Commits, res.attempted, res.failed); err != nil {
		return nil, err
	}
	if !w.durable {
		return res, nil
	}
	if pers != nil {
		res.appendLat, res.rotations, res.walBytes = pers.walStats()
		if res.diskBytes, err = dirBytes(dataDir); err != nil {
			return nil, err
		}
		tp := time.Now()
		for p := 0; p < w.partitions; p++ {
			if _, err := recovery.Restore(runtime.PartitionDir(dataDir, p)); err != nil {
				return nil, &breach{w.name, "restore-parse", err.Error()}
			}
		}
		res.parse = time.Since(tp)
	}
	if err := restore(w, init, dataDir, res); err != nil {
		return nil, err
	}
	return res, nil
}

// startServer builds the server and its listener.
func startServer(w workload, init model.State, cfg runtime.Config) (*server.Server, net.Listener, chan error, error) {
	var srv *server.Server
	if w.durable {
		s, info, err := server.NewDurable(init, cfg)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("open store: %w", err)
		}
		if info.Commits != 0 {
			s.Shutdown(drainTimeout)
			return nil, nil, nil, fmt.Errorf("fresh store restored %d commits", info.Commits)
		}
		srv = s
	} else {
		srv = server.New(init, cfg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(drainTimeout)
		return nil, nil, nil, err
	}
	return srv, ln, make(chan error, 1), nil
}

// restore reopens the drained store, times it until it answers a
// client handshake, checks what it recovered, and drains it again.
func restore(w workload, init model.State, dataDir string, res *servedResult) error {
	t0 := time.Now()
	srv, info, err := server.NewDurable(init, w.config(dataDir))
	if err != nil {
		return &breach{w.name, "restore", err.Error()}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(drainTimeout)
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c, derr := client.Dial(ln.Addr().String())
	res.restore = time.Since(t0)
	if derr == nil {
		c.Close()
	}
	_, serr := srv.Shutdown(drainTimeout)
	<-done
	switch {
	case derr != nil:
		return fmt.Errorf("dial restored server: %w", derr)
	case serr != nil:
		return &breach{w.name, "restored-serializable", serr.Error()}
	case info.Commits != res.confirmed:
		return &breach{w.name, "restored-commits", fmt.Sprintf("restored %d commits, clients confirmed %d", info.Commits, res.confirmed)}
	case !info.Clean:
		return &breach{w.name, "restored-clean", "drained store has no clean-shutdown marker"}
	}
	return nil
}

// gateCounts checks the commit accounting of one run: confirmed
// commits equal the engine's count, which equals attempted minus failed.
func gateCounts(workload, pass string, confirmed, engineCommits, attempted, failed int) error {
	if confirmed != engineCommits {
		return &breach{workload, pass + "-commits", fmt.Sprintf("clients confirmed %d commits, engine counted %d", confirmed, engineCommits)}
	}
	if engineCommits != attempted-failed {
		return &breach{workload, pass + "-accounting", fmt.Sprintf("engine counted %d commits, attempted %d - failed %d = %d", engineCommits, attempted, failed, attempted-failed)}
	}
	return nil
}

func closeClients(cs []*client.Client) {
	for _, c := range cs {
		if c != nil {
			c.Close()
		}
	}
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// stream is one closed-loop session stream on a shared client.
type stream struct {
	w     workload
	c     *client.Client
	id    int
	buf   *spanBuf
	start time.Time
	rng   *rand.Rand
	seq   int64
}

func (st *stream) run(txns []model.Txn, out *streamOut) {
	for _, tx := range txns {
		out.attempted++
		st.seq++
		txnID := int64(st.id)<<32 | st.seq
		root := st.buf.id()
		t0 := time.Now()
		var err error
		switch st.w.mode {
		case procedure:
			err = st.timedCommit(out, root, txnID, func() error { return st.c.Run(tx) })
		default:
			var s *client.Session
			to := time.Now()
			s, err = st.c.Open(tx)
			if st.buf != nil {
				out.openLat = append(out.openLat, time.Since(to))
				st.buf.record(spOpen, st.buf.id(), root, to, txnID, st.id%conns)
			}
			if err != nil {
				break
			}
			if st.w.mode == pipelined {
				b := client.Backoff{Base: retryBase, Cap: retryCap, Rand: func() float64 {
					out.retries++ // called once per ErrAborted retry
					return st.rng.Float64()
				}}
				err = st.timedCommit(out, root, txnID, func() error { return s.RunPipelined(b) })
			} else {
				err = st.perStep(s, tx, out, root, txnID)
			}
		}
		if err != nil {
			out.failed++
			continue
		}
		now := time.Now()
		out.confirmed++
		out.txnLat = append(out.txnLat, now.Sub(t0))
		out.commitAt = append(out.commitAt, now.Sub(st.start))
		st.buf.record(spTxn, root, 0, t0, txnID, st.id%conns)
	}
}

// timedCommit runs the call that returns the commit ack, recording a
// client.commit span and its latency when traced.
func (st *stream) timedCommit(out *streamOut, parent uint64, txnID int64, f func() error) error {
	if st.buf == nil {
		return f()
	}
	t := time.Now()
	err := f()
	out.commitLat = append(out.commitLat, time.Since(t))
	st.buf.record(spCommit, st.buf.id(), parent, t, txnID, st.id%conns)
	return err
}

// perStep drives one transaction step by step, retrying from the first
// step on ErrAborted.
func (st *stream) perStep(s *client.Session, tx model.Txn, out *streamOut, root uint64, txnID int64) error {
	conn := st.id % conns
	for k := 1; ; k++ {
		aid := st.buf.id()
		ta := time.Now()
		var err error
		for _, step := range tx.Steps {
			ts := time.Now()
			err = s.Step(step)
			out.stepLat = append(out.stepLat, time.Since(ts))
			st.buf.record(spStep, st.buf.id(), aid, ts, txnID, conn)
			if err != nil {
				break
			}
		}
		if err == nil {
			err = st.timedCommit(out, aid, txnID, s.Commit)
		}
		st.buf.record(spAttempt, aid, root, ta, txnID, conn)
		if !errors.Is(err, client.ErrAborted) {
			return err
		}
		out.retries++
		if k > maxRetries {
			s.Abort()
			return err
		}
		time.Sleep(retryDelay(k, st.rng))
	}
}

// retryDelay is the pause before the k-th client-side retry.
func retryDelay(k int, rng *rand.Rand) time.Duration {
	d := min(time.Duration(k)*retryBase, retryCap)
	return time.Duration(float64(d) * (1 - 0.5*rng.Float64()))
}
