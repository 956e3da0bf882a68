// Command perfbench is the lockd benchmark. It starts lockd in process
// (internal/server over loopback TCP), drives it with pkg/client traffic
// from 8 closed-loop session streams over 2 connections, checks every
// run for correctness, and prints the end-to-end metrics of one
// workload; with -trace 1 it prints the per-layer metrics instead and
// writes the spans it recorded. See README.md for the workloads, the
// metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 55, "measure for this many seconds (whole runs of a fixed transaction count)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch and trace output directory")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *trace < 0 || *trace > 1 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// One processor per client connection, never more than the machine has.
	procs := min(conns, goruntime.NumCPU())
	goruntime.GOMAXPROCS(procs)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d txns/run=%d partitions=%d durable=%v fsync=%v streams=%d conns=%d loop=closed GOMAXPROCS=%d NumCPU=%d %s\n",
		w.name, *seed, *seconds, *trace, w.txns, w.partitions, w.durable, w.durable, streams, conns, procs, goruntime.NumCPU(), goruntime.Version())

	scratch := filepath.Join(*dir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fail(err)
	}
	defer os.RemoveAll(scratch)
	var (
		res report
		err error
	)
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	if *trace == 1 {
		res, err = traced(w, *seed, deadline, scratch, filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed)))
	} else {
		res, err = untraced(w, *seed, deadline, scratch)
	}
	res.print(err == nil)
	if err != nil {
		os.RemoveAll(scratch)
		fail(err)
	}
}

func fail(err error) {
	var b *breach
	if errors.As(err, &b) {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	} else {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// minRuns is how many runs an invocation makes at least, whatever its
// deadline: enough for a quartile.
const minRuns = 4

// metric is one reported figure. detail carries its sample count or
// numerator and base; result marks the figures of the final JSON line
// (the ones BENCHMARK.json names).
type metric struct {
	name, unit string
	value      float64
	detail     string
	result     bool
}

type report struct {
	attempted, failed int
	metrics           []metric
}

func (r *report) add(name, unit string, value float64, detail string, result bool) {
	r.metrics = append(r.metrics, metric{name, unit, value, detail, result})
}

func (r *report) addQ(name, unit string, q quantile, result bool) {
	r.add(name, unit, q.Value, fmt.Sprintf("n=%d, %d beyond", q.N, q.Beyond), result)
}

func (r *report) addRatio(name, unit string, x ratio, result bool) {
	r.add(name, unit, x.Value(), fmt.Sprintf("%.6g / %.6g", x.Num, x.Base), result)
}

// print writes every metric by name and unit, then the result line.
func (r report) print(correct bool) {
	out := map[string]any{}
	for _, m := range r.metrics {
		fmt.Printf("metric %-36s %14.6g %-6s  [%s]\n", m.name, m.value, m.unit, m.detail)
		if m.result {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Println(string(b))
}

// untraced makes served runs until the deadline and reports the
// end-to-end metrics.
func untraced(w workload, seed int64, deadline time.Time, scratch string) (report, error) {
	var runs []*servedResult
	var rep report
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		in := w.generate(seed, i)
		r, err := runServed(w, in, seed, scratch, nil)
		if err != nil {
			return rep, err
		}
		runs = append(runs, r)
		rep.attempted += r.attempted
		rep.failed += r.failed
		fmt.Printf("run %d: inputs=%s txns=%d commits=%d failed=%d setup_s=%.6f load_s=%.4f commits_per_s=%.1f late_commits_per_s=%.1f txn_p50_ms=%.4f txn_p99_ms=%.3f drain_s=%.5f restore_s=%.4f live_heap_mb=%.3f\n",
			i, in.digest(), in.txns(), r.confirmed, r.failed, r.setup.Seconds(), r.load.Seconds(), float64(r.confirmed)/r.load.Seconds(),
			tailRate(r.commitAt).Value(), r.txnQ[0].Value, r.txnQ[1].Value, r.drain.Seconds(), r.restore.Seconds(), float64(r.liveHeap)/(1<<20))
	}
	return rep, endToEnd(w, runs, &rep)
}

// endToEnd computes the end-to-end metrics of a set of served runs.
// Every figure is computed per run (each run has at least 1,000
// transactions, so its p99 has 10 samples beyond it) and reported as
// the favourable quartile over the runs; allocations are pooled.
func endToEnd(w workload, runs []*servedResult, rep *report) error {
	var setup, rate, late, drain, heap, restore, t50, t99, s50, s99 []float64
	var mallocs, commits, attempted, failed float64
	minN, minTailN := math.MaxInt, math.MaxInt
	for _, r := range runs {
		setup = append(setup, r.setup.Seconds())
		rate = append(rate, float64(r.confirmed)/r.load.Seconds())
		late = append(late, tailRate(r.commitAt).Value())
		drain = append(drain, r.drain.Seconds())
		heap = append(heap, float64(r.liveHeap)/(1<<20))
		restore = append(restore, r.restore.Seconds())
		t50, t99 = append(t50, r.txnQ[0].Value), append(t99, r.txnQ[1].Value)
		s50, s99 = append(s50, r.stepQ[0].Value), append(s99, r.stepQ[1].Value)
		minN, minTailN = min(minN, r.txnQ[1].N), min(minTailN, r.txnQ[1].Beyond)
		mallocs += float64(r.mallocs)
		commits += float64(r.confirmed)
		attempted += float64(r.attempted)
		failed += float64(r.failed)
	}
	n := fmt.Sprintf("favourable quartile of %d runs", len(runs))
	tails := fmt.Sprintf("%s; per run n>=%d, p99 with >=%d beyond", n, minN, minTailN)
	rep.add("setup_s", "s", favourable(setup, true), n, true)
	rep.add("commits_per_s", "1/s", favourable(rate, false), n, true)
	rep.add("late_commits_per_s", "1/s", favourable(late, false), n+", final quarter of each run's transactions", true)
	rep.add("txn_p50_ms", "ms", favourable(t50, true), tails, true)
	rep.add("txn_p99_ms", "ms", favourable(t99, true), tails, true)
	if w.mode == perStep {
		rep.add("step_p50_ms", "ms", favourable(s50, true), n, false)
		rep.add("step_p99_ms", "ms", favourable(s99, true), n, false)
	}
	rep.addRatio("failed_frac", "ratio", ratio{failed, attempted}, false)
	// The drain is bimodal by the program's own behaviour: a log
	// truncation just before the end leaves little to verify. A quartile
	// would sit on the boundary between the modes, so it is the median.
	rep.add("drain_s", "s", median(drain), fmt.Sprintf("median of %d runs", len(runs)), true)
	if w.durable {
		rep.add("restore_s", "s", favourable(restore, true), n, false)
	}
	rep.addRatio("allocs_per_commit", "count", ratio{mallocs, commits}, true)
	rep.add("live_heap_mb", "MiB", favourable(heap, true), n, true)
	return nil
}

// traced makes rounds of three passes over the same inputs until the
// deadline: an untraced served run, a traced served run and an
// engine-direct pass. It reports the per-layer metrics, the tracing
// overhead (traced against untraced end-to-end figures), and writes
// the spans to tracePath.
func traced(w workload, seed int64, deadline time.Time, scratch, tracePath string) (report, error) {
	var plain, tracedRuns []*servedResult
	var directs []*directResult
	var rep report
	tr := newTracer()
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		in := w.generate(seed, i)
		p, err := runServed(w, in, seed, scratch, nil)
		if err != nil {
			return rep, err
		}
		t, err := runServed(w, in, seed, scratch, tr)
		if err != nil {
			return rep, err
		}
		d, err := runDirect(w, in, seed, scratch, tr)
		if err != nil {
			return rep, err
		}
		plain, tracedRuns, directs = append(plain, p), append(tracedRuns, t), append(directs, d)
		for _, r := range []*servedResult{p, t} {
			rep.attempted += r.attempted
			rep.failed += r.failed
		}
		fmt.Printf("round %d: inputs=%s txns=%d untraced %.0f commits/s, traced %.0f commits/s, direct %.0f commits/s\n",
			i, in.digest(), in.txns(), float64(p.confirmed)/p.load.Seconds(), float64(t.confirmed)/t.load.Seconds(), float64(d.confirmed)/d.load.Seconds())
	}
	if err := perLayer(w, plain, tracedRuns, directs, &rep); err != nil {
		return rep, err
	}

	var plainE2E, tracedE2E report
	if err := endToEnd(w, plain, &plainE2E); err != nil {
		return rep, err
	}
	if err := endToEnd(w, tracedRuns, &tracedE2E); err != nil {
		return rep, err
	}
	overhead := map[string]float64{}
	for i, m := range plainE2E.metrics {
		t := tracedE2E.metrics[i]
		if m.value != 0 {
			overhead[m.name] = t.value / m.value
		}
		fmt.Printf("overhead %-28s untraced %12.6g  traced %12.6g %-6s  traced/untraced %.3f\n", m.name, m.value, t.value, m.unit, overhead[m.name])
	}

	spans := tr.spans()
	self := selfTimes(spans)
	commits := 0
	for _, r := range tracedRuns {
		commits += r.confirmed
	}
	for _, name := range slices.Sorted(maps.Keys(self)) {
		lt := self[name]
		fmt.Printf("self %-20s spans=%-8d total=%10.3fms self=%10.3fms self/commit=%.4fms\n", name, lt.Spans, lt.TotalMS, lt.SelfMS, lt.SelfMS/float64(commits))
	}
	series := map[string][][]float64{}
	for _, r := range tracedRuns {
		series["served"] = append(series["served"], rateSeries(r.commitAt, 1000))
	}
	for _, d := range directs {
		series["direct"] = append(series["direct"], rateSeries(d.commitAt, 1000))
	}
	tf := traceFile{Workload: w.name, Seed: seed, Commits: commits, SelfTime: self, Series: series, Overhead: overhead}
	if err := writeTrace(tracePath, tf, spans); err != nil {
		return rep, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %d spans of %d traced runs written to %s\n", len(spans), len(tracedRuns), tracePath)
	return rep, nil
}

// perLayer computes the per-layer metrics: client, wire, recovery and
// span figures from the traced runs; engine counters and Go runtime
// figures from the untraced runs of the same inputs; runtime call
// timings from the engine-direct passes.
func perLayer(w workload, plain, traced []*servedResult, directs []*directResult, rep *report) error {
	var all streamOut
	var cw, sw, up, down, appends, rotations, wal, disk, commits float64
	var sbusy, abusy time.Duration
	var parse []float64
	var appendLat []time.Duration
	for _, r := range traced {
		all.merge(&r.streamOut)
		cw += float64(r.clientWrites)
		sw += float64(r.serverWrites)
		up += float64(r.bytesUp)
		down += float64(r.bytesDown)
		sbusy += r.serverWriteBusy
		appends += float64(len(r.appendLat))
		appendLat = append(appendLat, r.appendLat...)
		for _, d := range r.appendLat {
			abusy += d
		}
		rotations += float64(r.rotations)
		wal += float64(r.walBytes)
		disk += float64(r.diskBytes)
		parse = append(parse, ms(r.parse))
		commits += float64(r.confirmed)
	}
	tails := func(prefix, unit string, xs []float64, result bool) error {
		for _, q := range []float64{0.5, 0.99} {
			v, err := percentile(xs, q)
			if err != nil {
				return fmt.Errorf("%s: %w", prefix, err)
			}
			rep.addQ(fmt.Sprintf("%s.p%g", prefix, 100*q), unit, v, result)
		}
		return nil
	}

	// pkg/client
	if w.mode != procedure {
		if err := tails("client.open_ms", "ms", durs(all.openLat, ms), false); err != nil {
			return err
		}
	}
	if err := tails("client.commit_ms", "ms", durs(all.commitLat, ms), true); err != nil {
		return err
	}
	rep.addRatio("client.retries_per_commit", "count", ratio{float64(all.retries), commits}, true)

	// internal/wire + internal/server
	rep.addRatio("wire.client_writes_per_commit", "count", ratio{cw, commits}, true)
	rep.addRatio("wire.server_writes_per_commit", "count", ratio{sw, commits}, true)
	rep.addRatio("wire.bytes_up_per_commit", "B", ratio{up, commits}, true)
	rep.addRatio("wire.bytes_down_per_commit", "B", ratio{down, commits}, true)
	rep.addRatio("server.write_ms_per_commit", "ms", ratio{ms(sbusy), commits}, true)

	// internal/runtime, engine-direct
	var open, step, commit, run, closeS, rate, growths []float64
	var dcommits float64
	for _, d := range directs {
		step = append(step, durs(d.step, us)...)
		commit = append(commit, durs(d.commit, us)...)
		run = append(run, durs(d.run, us)...)
		closeS = append(closeS, d.close.Seconds())
		rate = append(rate, float64(d.confirmed)/d.load.Seconds())
		seq := make([]float64, len(d.opens))
		for i, o := range d.opens {
			seq[i] = us(o.d)
		}
		open = append(open, seq...)
		growths = append(growths, growth(seq).Value())
		dcommits += float64(d.confirmed)
	}
	n := fmt.Sprintf("median of %d direct passes", len(directs))
	if err := tails("runtime.open_us", "us", open, true); err != nil {
		return err
	}
	rep.add("runtime.open_growth", "ratio", median(growths), n+", last tenth / first tenth of each pass's opens", true)
	if w.mode == procedure {
		if err := tails("runtime.run_us", "us", run, false); err != nil {
			return err
		}
	} else {
		if err := tails("runtime.step_us", "us", step, false); err != nil {
			return err
		}
		if err := tails("runtime.commit_us", "us", commit, false); err != nil {
			return err
		}
	}
	rep.add("runtime.close_s", "s", median(closeS), n, true)
	rep.add("runtime.direct_commits_per_s", "1/s", median(rate), n, true)

	// Engine counters and the Go runtime, over the untraced runs.
	var dl, pol, casc, events, wait, replayed, aborts, pcommits, mallocBytes float64
	var g goSnap
	for _, r := range plain {
		m := r.met
		dl += float64(m.DeadlockAborts)
		pol += float64(m.PolicyAborts)
		casc += float64(m.CascadeAborts)
		aborts += float64(m.Aborts())
		events += float64(m.Events)
		wait += ms(m.Wait)
		replayed += float64(m.Replayed)
		pcommits += float64(r.confirmed)
		g.gcCPU += r.goDelta.gcCPU
		g.totalCPU += r.goDelta.totalCPU
		g.gcCycles += r.goDelta.gcCycles
		mallocBytes += r.goDelta.allocBytes
	}
	rep.addRatio("runtime.aborts_per_commit.deadlock", "count", ratio{dl, pcommits}, true)
	rep.addRatio("runtime.aborts_per_commit.policy", "count", ratio{pol, pcommits}, true)
	rep.addRatio("runtime.aborts_per_commit.cascade", "count", ratio{casc, pcommits}, true)
	rep.addRatio("runtime.events_per_commit", "count", ratio{events, pcommits}, true)
	rep.addRatio("lockmgr.wait_ms_per_commit", "ms", ratio{wait, pcommits}, true)
	rep.addRatio("recovery.replayed_per_abort", "count", ratio{replayed, aborts}, true)
	if w.durable {
		rep.addRatio("recovery.appends_per_commit", "count", ratio{appends, commits}, false)
		if err := tails("recovery.append_us", "us", durs(appendLat, us), false); err != nil {
			return err
		}
		rep.addRatio("recovery.append_ms_per_commit", "ms", ratio{ms(abusy), commits}, false)
		rep.add("recovery.rotations", "count", rotations, fmt.Sprintf("sum over %d traced runs", len(traced)), false)
		rep.addRatio("recovery.wal_bytes_per_commit", "B", ratio{wal, commits}, false)
		rep.addRatio("recovery.disk_bytes_per_commit", "B", ratio{disk, commits}, false)
		rep.add("recovery.parse_ms", "ms", median(parse), fmt.Sprintf("median of %d traced runs, all partitions", len(traced)), false)
	}
	rep.addRatio("go.gc_cpu_frac", "ratio", ratio{g.gcCPU, g.totalCPU}, true)
	rep.addRatio("go.gc_cycles_per_1k_commits", "count", ratio{1000 * g.gcCycles, pcommits}, true)
	rep.addRatio("go.alloc_bytes_per_commit", "B", ratio{mallocBytes, pcommits}, true)
	return nil
}
