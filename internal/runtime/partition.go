package runtime

import (
	"errors"
	"fmt"
	"time"

	"locksafe/internal/lockmgr"
	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

// This file is the engine's partitioning: N entity-hash partitions
// (model.PartitionOf), each a runner with its own admission gate,
// sequencer and recovery core, all sharing one lock manager. A session
// whose declared body — steps plus their footprints — touches entities
// of a single partition is opened, stepped, committed, reaped and
// recovered entirely by that partition's runner, with zero
// cross-partition coordination; its gate drains, checkpoints and
// compactions involve one partition's stripes only. With one partition
// every session is such a session. A session with a global footprint
// (DTR, altruistic donation, INSERT/DELETE) or a body spanning
// partitions runs through the *cross-partition drain*: every partition
// is quiesced (the distributed analogue of the stripe drain), the event
// is evaluated under the combined view — the AND of every partition's
// monitor verdict — and appended to every partition's log under one
// shared sequence tag, so the per-partition logs merge back into a
// single global execution order. DESIGN.md ("Partitioned engines")
// gives the soundness argument; the randomized-trace equivalence test
// pins serialized ≡ striped ≡ partitioned across 1/2/8 partitions.
//
// Soundness in one paragraph: every event on entity e lands in
// partition-of-e's log — a local event is homed there by classify, a
// global event is mirrored everywhere — so each partition's structural
// state is authoritative for its own entities (definedness checks and
// the merged state consult the home replica); policies whose monitors
// consult shared structure (tree, DDAG) declare structural events
// global in their footprints, so the structure those monitors read is
// identical in all replicas. Local-footprint events of transactions
// routed to different partitions have disjoint footprints (they touch
// only their own transaction's bookkeeping and entities of their home
// partition), so they commute — exactly the stripe-disjointness
// argument lifted one level. A global
// event's verdict decomposes over partitions because every policy's
// cross-cutting rules are conjunctions of per-transaction conditions,
// and every transaction's bookkeeping lives whole in its home partition
// (local) or in every partition (global). Cross-partition aborts
// compact every partition under the drain; a local transaction caught
// in the cascade is handled by its home partition, and a local abort
// can never cascade onto a global transaction (local bodies contain no
// structural events and no donations), which the runner enforces as an
// invariant.

// xtxn is the engine-level record of one cross-partition transaction:
// its mirror row in every partition and its authoritative lifecycle
// state. g, tx and locs are fixed before the record is published; the
// rest changes only under the cross-partition drain *and* gmu, so a
// drain holder reads it directly and everyone else under gmu.
type xtxn struct {
	g        int
	tx       model.Txn
	locs     []int // the mirror row's index in each partition
	status   txnStatus
	gen      int
	attempts int
	cause    error
}

// classify decides where a declared body runs: its home partition if
// every step's entity and footprint stays inside one partition, or the
// cross-partition path if any step has a global footprint (or names
// other transactions) or the entities span partitions.
func (e *Engine) classify(tx model.Txn) (homeP int, global bool) {
	n := len(e.parts)
	if n == 1 {
		return 0, false
	}
	seen := -1
	note := func(ent model.Entity) bool {
		if ent == "" {
			return true
		}
		p := model.PartitionOf(ent, n)
		if seen == -1 {
			seen = p
			return true
		}
		return p == seen
	}
	for _, st := range tx.Steps {
		fp := e.fpMon.Footprint(model.Ev{T: 0, S: st})
		if fp.Global || len(fp.ExtraTxns) > 0 {
			return 0, true
		}
		if !note(st.Ent) || !note(fp.Ent) {
			return 0, true
		}
		for _, ent := range fp.ExtraEnts {
			if !note(ent) {
				return 0, true
			}
		}
	}
	if seen == -1 {
		seen = 0
	}
	return seen, false
}

// openCross registers a cross-partition transaction: a mirror row in
// every partition under the cross-partition drain, so a concurrent
// global event sees the new transaction in all replicas or none.
func (e *Engine) openCross(g int, tx model.Txn, o recovery.OpenRec) (*xtxn, error) {
	e.drainAll()
	defer e.undrainAll()
	if f := e.anyFatalDrained(); f != nil {
		return nil, fmt.Errorf("runtime: engine failed: %w", f)
	}
	x := &xtxn{g: g, tx: tx, locs: make([]int, len(e.parts))}
	o.Mirror = true
	for p, r := range e.parts {
		x.locs[p] = r.addTxnDrained(tx, g, true)
		// Every partition records the mirror registration — same global
		// id, same token — so a restore rebuilds the replica set (or
		// detects a crash mid-loop by the partial mirror).
		r.persistOpenDrained(o)
	}
	if f := e.anyFatalDrained(); f != nil {
		return nil, fmt.Errorf("runtime: engine failed: %w", f)
	}
	e.gmu.Lock()
	e.xs[g] = x
	e.gmu.Unlock()
	return x, nil
}

// xtxnOf returns the record of cross-partition transaction g.
func (e *Engine) xtxnOf(g int) *xtxn {
	e.gmu.Lock()
	x := e.xs[g]
	e.gmu.Unlock()
	return x
}

// drainAll quiesces every partition: each gate is drained and its
// sequencer flushed, in partition order (a fixed global order, so two
// concurrent cross-partition operations cannot deadlock on each other's
// half-acquired drains). The caller owns every partition's world until
// undrainAll.
func (e *Engine) drainAll() {
	for _, r := range e.parts {
		r.gate.drain()
		r.flushPending()
	}
}

func (e *Engine) undrainAll() {
	for i := len(e.parts) - 1; i >= 0; i-- {
		e.parts[i].gate.undrain()
	}
}

// anyFatalDrained reports the first fatal error across the engine
// (cross-partition drain held).
func (e *Engine) anyFatalDrained() error {
	e.gmu.Lock()
	f := e.fatal
	e.gmu.Unlock()
	if f != nil {
		return f
	}
	for _, r := range e.parts {
		if r.fatal != nil {
			return r.fatal
		}
	}
	return nil
}

// setFatalDrained records an engine-wide invariant breach and halts
// every partition (cross-partition drain held).
func (e *Engine) setFatalDrained(err error) {
	e.gmu.Lock()
	if e.fatal == nil {
		e.fatal = err
	}
	e.gmu.Unlock()
	for _, r := range e.parts {
		if r.fatal == nil {
			r.fatal = err
		}
	}
}

func (e *Engine) backoff(k int) time.Duration { return e.parts[0].backoff(k) }

// crossState snapshots x's generation, status, cause and the fatal
// error (the cross path's readTxnState; gmu suffices because every
// transition holds it).
func (e *Engine) crossState(x *xtxn) (gen int, status txnStatus, cause, fatal error) {
	e.gmu.Lock()
	gen, status, cause, fatal = x.gen, x.status, x.cause, e.fatal
	e.gmu.Unlock()
	return
}

// syncMirrorsDrained propagates a cross-partition transaction's status
// to its mirror rows, durably where it changed (cross-partition drain
// held). Ascending partition order, so a crash mid-sync leaves a prefix
// of partitions updated — the restore arbiter (the lowest-index
// partition holding the row) then reads the newest status.
func (e *Engine) syncMirrorsDrained(x *xtxn) {
	for p, r := range e.parts {
		if t := x.locs[p]; r.status[t] != x.status {
			r.status[t] = x.status
			r.persistStatusDrained(t, statusByte(x.status))
		}
	}
}

// crossStaleDrained is staleDrained lifted to the cross-partition
// drain: it checks whether x's attempt generation is still current,
// releasing the drain (and shedding race-window locks) if not.
func (e *Engine) crossStaleDrained(x *xtxn, gen int) (bool, retryOut) {
	if f := e.anyFatalDrained(); f != nil {
		// Raise a partition's failure engine-wide, where crossState (and
		// so the session's failure translation) reads it.
		e.setFatalDrained(f)
		e.undrainAll()
		e.mgr.ReleaseAll(x.g)
		return true, retryOut{again: false}
	}
	if x.gen == gen {
		return false, retryOut{}
	}
	again := x.status == txActive
	delay := e.backoff(x.attempts)
	e.undrainAll()
	e.mgr.ReleaseAll(x.g)
	return true, retryOut{again: again, delay: delay}
}

// crossStep executes one declared step of cross-partition transaction
// x's attempt gen: the lock-table action first (blocking, no drain
// held), then admission under the cross-partition drain — definedness
// on the replicated structural state, the policy Check on *every*
// partition's monitor (the combined verdict is their conjunction), the
// unlock table action, and the append into every partition's recovery
// core under one shared sequence tag. The return contract is
// execStep's.
func (e *Engine) crossStep(x *xtxn, gen int, st model.Step) (ok, again bool, delay time.Duration) {
	if st.Op.IsLock() {
		t0 := time.Now()
		err := e.mgr.Lock(x.g, st.Ent, st.Op.LockMode())
		e.waitNs.Add(int64(time.Since(t0)))
		if err != nil {
			again, delay = e.crossLockFailed(x, gen, err)
			return false, again, delay
		}
	}
	e.drainAll()
	if stale, out := e.crossStaleDrained(x, gen); stale {
		return false, out.again, out.delay
	}
	// Definedness is judged by the entity's home partition: every event
	// that can create or delete st.Ent — a local structural step of a
	// transaction homed there, or a global step mirrored everywhere —
	// lands in that partition's log, so its structural state is
	// authoritative for its own entities (other replicas may miss local
	// inserts and deletes homed elsewhere).
	if st.Op.IsData() && !e.parts[model.PartitionOf(st.Ent, len(e.parts))].rec.State().Defined(st) {
		e.gmu.Lock()
		e.gmet.ImproperAborts++
		x.cause = fmt.Errorf("improper step %s: undefined in the structural state", model.Ev{T: model.TID(x.locs[0]), S: st})
		e.gmu.Unlock()
		again, delay = e.crossAbortDrained(x)
		return false, again, delay
	}
	for p, r := range e.parts {
		if err := r.rec.Monitor().Check(model.Ev{T: model.TID(x.locs[p]), S: st}); err != nil {
			e.gmu.Lock()
			e.gmet.PolicyAborts++
			x.cause = err
			e.gmu.Unlock()
			again, delay = e.crossAbortDrained(x)
			return false, again, delay
		}
	}
	if st.Op.IsUnlock() {
		if err := e.mgr.Unlock(x.g, st.Ent); err != nil {
			e.setFatalDrained(fmt.Errorf("runtime: %w", err))
			e.undrainAll()
			e.mgr.ReleaseAll(x.g)
			return false, false, 0
		}
	}
	tag := e.tags.Add(1) - 1
	for p, r := range e.parts {
		if err := r.rec.AppendTagged(model.Ev{T: model.TID(x.locs[p]), S: st}, tag); err != nil {
			e.setFatalDrained(fmt.Errorf("runtime: monitor accepted Check but rejected Step: %w", err))
			e.undrainAll()
			e.mgr.ReleaseAll(x.g)
			return false, false, 0
		}
	}
	e.undrainAll()
	return true, false, 0
}

// crossLockFailed mirrors lockFailed for the cross-partition path.
func (e *Engine) crossLockFailed(x *xtxn, gen int, err error) (bool, time.Duration) {
	e.drainAll()
	if stale, out := e.crossStaleDrained(x, gen); stale {
		return out.again, out.delay
	}
	if !errors.Is(err, lockmgr.ErrDeadlock) {
		e.setFatalDrained(fmt.Errorf("runtime: %w", err))
		e.undrainAll()
		e.mgr.ReleaseAll(x.g)
		return false, 0
	}
	e.gmu.Lock()
	e.gmet.DeadlockAborts++
	x.cause = err
	e.gmu.Unlock()
	return e.crossAbortDrained(x)
}

// crossCommit finalizes cross-partition transaction x (the commit
// analogue of runner.commit): status flip under the cross-partition
// drain, mirror sync, stray-lock shedding, per-partition truncation
// pacing.
func (e *Engine) crossCommit(x *xtxn, gen int) (committed, again bool, delay time.Duration) {
	e.drainAll()
	if stale, out := e.crossStaleDrained(x, gen); stale {
		return false, out.again, out.delay
	}
	e.gmu.Lock()
	x.status = txCommitted
	e.gmet.Commits++
	e.gmu.Unlock()
	e.syncMirrorsDrained(x)
	// The commit is acknowledged only once durable in every partition; a
	// persistence failure surfaces as engine failure, not a false ack.
	if f := e.anyFatalDrained(); f != nil {
		e.undrainAll()
		e.mgr.ReleaseAll(x.g)
		return false, false, 0
	}
	e.mgr.ReleaseAll(x.g)
	if e.cfg.TruncateLog {
		for _, r := range e.parts {
			r.maybeTruncateDrained()
		}
	}
	e.undrainAll()
	return true, false, 0
}

// chargeCrossDrained bumps x's generation and retry count, abandoning
// it past the budget, and syncs the mirrors (cross-partition drain
// held).
func (e *Engine) chargeCrossDrained(x *xtxn) {
	e.gmu.Lock()
	x.gen++
	x.attempts++
	if x.attempts > e.cfg.MaxRetries && x.status == txActive {
		x.status = txAbandoned
		e.gmet.GaveUp++
	}
	e.gmu.Unlock()
	e.syncMirrorsDrained(x)
}

// crossAbortDrained aborts x's current attempt: erase its events from
// every partition (cascading as needed), charge the retry, tear down
// its locks. Called with the cross-partition drain held; returns with
// it released.
func (e *Engine) crossAbortDrained(x *xtxn) (bool, time.Duration) {
	e.eraseAllDrained(map[int]bool{x.g: true})
	e.chargeCrossDrained(x)
	again := x.status == txActive
	delay := e.backoff(x.attempts)
	e.undrainAll()
	e.mgr.ReleaseAll(x.g)
	return again, delay
}

// eraseAllDrained removes the cross-partition victims' events from
// every partition's log through the per-partition checkpointed
// compactions, handling the two kinds of cascade (cross-partition drain
// held):
//
//   - a *local* transaction that no longer replays is torn down by its
//     home partition exactly as a partition-internal cascade victim
//     (charged, released, re-spawned by the partition if it had
//     committed);
//   - a *global* transaction (a mirror row) is promoted into the global
//     victim set, torn down engine-wide, and every partition's
//     compaction restarts with the grown set — victims only grow, so
//     the loop converges, as in the single-partition cascade.
func (e *Engine) eraseAllDrained(gvictims map[int]bool) {
	lv := make([]map[int]bool, len(e.parts))
	for p := range lv {
		lv[p] = make(map[int]bool)
	}
	addG := func(g int) {
		for p, t := range e.xtxnOf(g).locs {
			lv[p][t] = true
		}
	}
	for g := range gvictims {
		addG(g)
	}
restart:
	for p, r := range e.parts {
		for {
			ok, casc := r.rec.Compact(lv[p])
			if ok {
				break
			}
			if lv[p][casc] {
				e.setFatalDrained(fmt.Errorf("runtime: abort cascade cannot converge on T%d", casc+1))
				return
			}
			if r.mirror[casc] {
				g := r.mgr.owner(casc)
				if gvictims[g] {
					e.setFatalDrained(fmt.Errorf("runtime: abort cascade cannot converge on global T%d", g+1))
					return
				}
				gvictims[g] = true
				e.crossCascadeDrained(e.xtxnOf(g))
				addG(g)
				// Earlier partitions must re-compact with the grown set.
				goto restart
			}
			lv[p][casc] = true
			r.cascadeVictimDrained(casc)
		}
	}
}

// crossCascadeDrained tears down a cross-partition transaction caught
// in a cascade: charge it engine-wide, un-commit and re-run it through
// the cross-partition path if it had already committed (the analogue of
// the runner's committed-victim re-spawn). Cross-partition drain held.
func (e *Engine) crossCascadeDrained(x *xtxn) {
	e.gmu.Lock()
	e.gmet.CascadeAborts++
	x.cause = fmt.Errorf("cascade victim: a surviving event of T%d no longer replays after the abort", x.g+1)
	respawn := false
	if x.status == txCommitted {
		x.status = txActive
		e.gmet.Commits--
		respawn = true
	}
	e.gmu.Unlock()
	e.chargeCrossDrained(x)
	e.mgr.ReleaseAll(x.g)
	if respawn && x.status == txActive {
		e.wg.Add(1)
		go e.rerunCross(x)
	}
}

// rerunCross drives an un-committed cross-partition transaction back to
// commit through the cross-partition path, with the runner's retry
// discipline — the analogue of runTxn for cascade re-spawns.
func (e *Engine) rerunCross(x *xtxn) {
	defer e.wg.Done()
	for {
		gen, status, _, fatal := e.crossState(x)
		if status != txActive || fatal != nil {
			return
		}
		again, delay := e.attemptCross(x, gen)
		if !again {
			return
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	}
}

// attemptCross executes one full pass over x's declared steps and
// commits, reporting the retry policy (runner.attempt's contract).
func (e *Engine) attemptCross(x *xtxn, gen int) (bool, time.Duration) {
	for _, st := range x.tx.Steps {
		ok, again, delay := e.crossStep(x, gen, st)
		if !ok {
			return again, delay
		}
	}
	_, again, delay := e.crossCommit(x, gen)
	return again, delay
}

// mergeDrained walks the partitions' logs in global execution order —
// ascending by shared sequence tag, a global event's replicas (equal
// tags) visited once — calling visit with the partition and log index
// of each event's first replica. Per-partition logs are strictly
// tag-ascending by construction, so the walk is linear.
// Cross-partition drain held (or the engine single-threaded).
func (e *Engine) mergeDrained(visit func(p, i int)) {
	tags := make([][]uint64, len(e.parts))
	for p, r := range e.parts {
		tags[p] = r.rec.Tags()
	}
	idx := make([]int, len(e.parts))
	for {
		best := -1
		var bt uint64
		for p := range tags {
			if idx[p] < len(tags[p]) && (best == -1 || tags[p][idx[p]] < bt) {
				best, bt = p, tags[p][idx[p]]
			}
		}
		if best == -1 {
			return
		}
		visit(best, idx[best])
		for p := range tags {
			for idx[p] < len(tags[p]) && tags[p][idx[p]] == bt {
				idx[p]++
			}
		}
	}
}

// mergedDrained rebuilds the global execution order from the
// per-partition logs, with each event's partition-local owner
// translated back to its engine-wide id.
func (e *Engine) mergedDrained() model.Schedule {
	logs := make([]model.Schedule, len(e.parts))
	total := 0
	for p, r := range e.parts {
		logs[p] = r.rec.Events()
		total += len(logs[p])
	}
	out := make(model.Schedule, 0, total)
	e.mergeDrained(func(p, i int) {
		ev := logs[p][i]
		out = append(out, model.Ev{T: model.TID(e.parts[p].mgr.owner(int(ev.T))), S: ev.S})
	})
	return out
}

// mergedStateDrained builds the engine-wide structural state: each
// entity's existence is taken from its home partition, the
// authoritative replica — other replicas may miss inserts and deletes
// that were local to another partition (cross-partition drain held).
func (e *Engine) mergedStateDrained() model.State {
	out := model.NewState()
	for p, r := range e.parts {
		for ent := range r.rec.State() {
			if model.PartitionOf(ent, len(e.parts)) == p {
				out[ent] = struct{}{}
			}
		}
	}
	return out
}

// sysSnapshot returns a stable copy of the engine-wide system.
func (e *Engine) sysSnapshot() *model.System {
	e.gmu.Lock()
	defer e.gmu.Unlock()
	return &model.System{Init: e.init, Txns: append([]model.Txn(nil), e.fullSys.Txns...)}
}

// statsDrained merges the per-partition and cross-partition metrics
// (cross-partition drain held). Events counts the merged log — each
// global event once — plus truncated prefixes (per-replica when
// TruncateLog is on; exact with it off).
func (e *Engine) statsDrained() Metrics {
	e.gmu.Lock()
	m := e.gmet
	e.gmu.Unlock()
	e.mergeDrained(func(int, int) { m.Events++ })
	for _, r := range e.parts {
		pm := r.met
		m.Commits += pm.Commits
		m.GaveUp += pm.GaveUp
		m.DeadlockAborts += pm.DeadlockAborts
		m.PolicyAborts += pm.PolicyAborts
		m.ImproperAborts += pm.ImproperAborts
		m.CascadeAborts += pm.CascadeAborts
		m.LeaseExpired += pm.LeaseExpired
		st := r.rec.Stats()
		m.Replayed += st.Replayed
		m.Events += st.Truncated
		m.Wait += time.Duration(r.waitNs.Load())
	}
	m.Wait += time.Duration(e.waitNs.Load())
	m.Elapsed = time.Since(e.start)
	return m
}
