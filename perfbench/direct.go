package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/runtime"
)

// directResult is one engine-direct pass: the served run's bodies,
// streams and Config driven straight into the session engine, no
// sockets.
type directResult struct {
	attempted, failed, confirmed int
	load, close                  time.Duration
	step, commit, run            []time.Duration
	opens                        []timedAt // every OpenSession
	commitAt                     []time.Duration
}

// timedAt is one call's start (offset from load start) and duration;
// ordered by start, OpenSession times show the lifetime growth.
type timedAt struct {
	at, d time.Duration
}

// runDirect drives the inputs straight into runtime.NewSessionEngine
// (or NewDurableSessionEngine on durable) and applies the same
// correctness gate as the served run: Close verifies the committed
// schedule, and the commit counts match.
func runDirect(w workload, in inputs, seed int64, dir string, tr *tracer) (*directResult, error) {
	dataDir := filepath.Join(dir, "direct")
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	init := model.NewState(in.universe...)
	cfg := w.config(dataDir)
	var eng runtime.SessionEngine
	if w.durable {
		e, _, err := runtime.NewDurableSessionEngine(init, cfg)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		eng = e
	} else {
		eng = runtime.NewSessionEngine(init, cfg)
	}
	outs := make([]directResult, streams)
	var wg sync.WaitGroup
	start := time.Now()
	for s := range outs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ds := &directStream{w: w, eng: eng, id: s, buf: tr.buf(), start: start,
				rng: rand.New(rand.NewSource(seed*131 + int64(s)))}
			ds.run(in.streams[s], &outs[s])
		}(s)
	}
	wg.Wait()
	res := &directResult{load: time.Since(start)}
	for i := range outs {
		o := &outs[i]
		res.attempted += o.attempted
		res.failed += o.failed
		res.confirmed += o.confirmed
		res.step = append(res.step, o.step...)
		res.commit = append(res.commit, o.commit...)
		res.run = append(res.run, o.run...)
		res.opens = append(res.opens, o.opens...)
		res.commitAt = append(res.commitAt, o.commitAt...)
	}
	sort.Slice(res.opens, func(i, j int) bool { return res.opens[i].at < res.opens[j].at })
	sort.Slice(res.commitAt, func(i, j int) bool { return res.commitAt[i] < res.commitAt[j] })
	b := tr.buf()
	tc := time.Now()
	final, err := eng.Close()
	res.close = time.Since(tc)
	b.record(spRtClose, b.id(), 0, tc, spNone, spNone)
	if err != nil {
		return nil, &breach{w.name, "direct-serializable", err.Error()}
	}
	if err := gateCounts(w.name, "direct", res.confirmed, final.Metrics.Commits, res.attempted, res.failed); err != nil {
		return nil, err
	}
	return res, nil
}

// directStream is one session stream driven straight into the engine.
type directStream struct {
	w     workload
	eng   runtime.SessionEngine
	id    int
	buf   *spanBuf
	start time.Time
	rng   *rand.Rand
	seq   int64
}

// timed calls f, recording its duration into *into and a span.
func (ds *directStream) timed(kind spanKind, parent uint64, txnID int64, into *[]time.Duration, f func() error) error {
	t := time.Now()
	err := f()
	*into = append(*into, time.Since(t))
	ds.buf.record(kind, ds.buf.id(), parent, t, txnID, spNone)
	return err
}

func (ds *directStream) run(txns []model.Txn, out *directResult) {
	for _, tx := range txns {
		out.attempted++
		ds.seq++
		txnID := int64(ds.id)<<32 | ds.seq
		root := ds.buf.id()
		t0 := time.Now()
		sess, err := ds.eng.OpenSession(tx)
		out.opens = append(out.opens, timedAt{t0.Sub(ds.start), time.Since(t0)})
		ds.buf.record(spRtOpen, ds.buf.id(), root, t0, txnID, spNone)
		if err == nil {
			if ds.w.mode == procedure {
				err = ds.timed(spRtRun, root, txnID, &out.run, sess.Run)
			} else {
				err = ds.perStep(sess, tx, out, root, txnID)
			}
		}
		if err != nil {
			out.failed++
			continue
		}
		out.confirmed++
		out.commitAt = append(out.commitAt, time.Since(ds.start))
		ds.buf.record(spDirectTxn, root, 0, t0, txnID, spNone)
	}
}

// perStep mirrors the served run's per-step loop (the pipelined
// workload's server executes its requests the same way, one step at a
// time on the session's worker).
func (ds *directStream) perStep(sess runtime.Sess, tx model.Txn, out *directResult, root uint64, txnID int64) error {
	for k := 1; ; k++ {
		var err error
		for _, step := range tx.Steps {
			if err = ds.timed(spRtStep, root, txnID, &out.step, func() error { return sess.Step(step) }); err != nil {
				break
			}
		}
		if err == nil {
			err = ds.timed(spRtCommit, root, txnID, &out.commit, sess.Commit)
		}
		if !errors.Is(err, runtime.ErrAborted) {
			return err
		}
		if k > maxRetries {
			sess.Abort()
			return err
		}
		time.Sleep(retryDelay(k, ds.rng))
	}
}
