package runtime

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

// This file is the durable engine: each partition persists into its own
// subdirectory (PartitionDir(DataDir, p)) with its own WAL and
// snapshots, and the restore stitches the partitions back together —
// rebuilding the engine-wide system from the per-partition open
// records, arbitrating the status of cross-partition transactions
// across their mirror rows, settling the transactions whose attempt
// died with the process, and verifying the *merged* log serializable
// against the engine-wide system.
//
// The restore contract, matching the write-side ordering in runtime.go,
// session.go and partition.go:
//
//   - A transaction declaration (OpenRec) is durable before its open is
//     acknowledged, so every recovered event has a recovered row.
//   - A commit status record is durable before the commit is
//     acknowledged (with Config.Fsync), so every acknowledged commit is
//     recovered committed — possibly with more transactions committed
//     than acknowledged (the status landed, the ack did not).
//   - A partition-local transaction recovered active lost its in-flight
//     attempt with the process: its events are erased (cascading
//     exactly as a live abort would) and the session is restored
//     *parked* — the client reattaches with Resume inside the lease
//     window persisted at open — or abandoned outright if that window
//     already passed.
//   - The recovered committed schedule is re-verified serializable
//     before the engine accepts work.
//
// Cross-partition crash consistency rests on two more orderings on the
// write side: mirror registrations and status syncs walk the partitions
// in ascending order (so a crash leaves a prefix updated, and the
// lowest-index partition holding a row is the freshest witness), and a
// cascade un-commit is persisted before the compaction record that
// erases the victim's events. The restore then:
//
//   - treats a global id missing from every partition as a lost open (a
//     placeholder in the engine-wide system, with no rows);
//   - treats a mirror present in only some partitions as a crash inside
//     the registration loop: the transaction never acknowledged its
//     open and has no events, so it is abandoned everywhere it exists;
//   - reconciles divergent mirror statuses to the arbiter's (partition
//     with the lowest index holding the row), durably;
//   - abandons cross-partition transactions recovered active: a
//     cross-partition session is resumable only within the process that
//     parked it, while *local* sessions are restored parked.

// newToken mints a session resume token: 64 random bits, forced nonzero
// so zero can mean "no session" in the WAL. Falls back to the clock if
// the system's entropy source fails.
func newToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return binary.LittleEndian.Uint64(b[:]) | 1
	}
	return uint64(time.Now().UnixNano()) | 1
}

// RestoreInfo reports what a durable constructor recovered.
type RestoreInfo struct {
	// Events is the number of committed events surviving in the
	// recovered log.
	Events int
	// Sessions is the number of sessions restored parked, awaiting
	// Resume with their persisted tokens.
	Sessions int
	// Commits is the number of transactions recovered committed.
	Commits int
	// Clean reports that every recovered WAL ended with a clean
	// shutdown marker (no work was at risk).
	Clean bool
	// Torn reports that a torn final record was dropped somewhere (the
	// process died mid-write; the record's operation was never
	// acknowledged).
	Torn bool
}

// NewDurableSessionEngine returns a running engine persisting each
// partition into PartitionDir(cfg.DataDir, p), after restoring whatever
// durable history the directories already hold. A data directory laid
// out for a different partition count is refused (see checkLayout).
// With an empty DataDir it is exactly NewSessionEngine.
func NewDurableSessionEngine(init model.State, cfg Config) (*Engine, *RestoreInfo, error) {
	e := newEngine(init, cfg)
	info := &RestoreInfo{Clean: true}
	if cfg.DataDir != "" {
		var err error
		if info, err = e.restoreDir(); err != nil {
			return nil, nil, err
		}
	}
	e.startReaper()
	return e, info, nil
}

// PartitionDir returns the durable directory of partition p under a
// data directory.
func PartitionDir(dataDir string, p int) string {
	return filepath.Join(dataDir, "p"+strconv.Itoa(p))
}

// isStoreFile reports whether a directory entry belongs to a recovery
// store (a WAL segment or a snapshot).
func isStoreFile(name string) bool {
	return strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-")
}

// holdsHistory reports whether dir holds a non-empty store file. A
// store opened but never appended to holds only an empty WAL segment.
func holdsHistory(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, ent := range ents {
		if !isStoreFile(ent.Name()) {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			return false, err
		}
		if fi.Size() > 0 {
			return true, nil
		}
	}
	return false, nil
}

// checkLayout refuses a data directory that was written for a different
// partition count, which the restore would otherwise read as a shorter
// history: store files at the root (where one partition persisted
// before every partition count moved under p<i>), a partition
// directory p<j> with j ≥ n, or a missing p<i> with i < n next to a
// partition directory that holds history. The error names the
// offending directory.
func checkLayout(dataDir string, n int) error {
	ents, err := os.ReadDir(dataDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("runtime: reading data directory: %w", err)
	}
	present := make([]bool, n)
	history := ""
	for _, ent := range ents {
		name := ent.Name()
		if isStoreFile(name) {
			return fmt.Errorf("runtime: data directory %s holds store files at its root (%s); this engine persists every partition under %s", dataDir, name, PartitionDir(dataDir, 0))
		}
		j, err := strconv.Atoi(strings.TrimPrefix(name, "p"))
		if err != nil || j < 0 || name != "p"+strconv.Itoa(j) || !ent.IsDir() {
			continue
		}
		dir := PartitionDir(dataDir, j)
		if j >= n {
			return fmt.Errorf("runtime: data directory %s has partition directory %s, but the engine runs %d partition(s)", dataDir, dir, n)
		}
		present[j] = true
		if history == "" {
			has, err := holdsHistory(dir)
			if err != nil {
				return fmt.Errorf("runtime: reading %s: %w", dir, err)
			}
			if has {
				history = dir
			}
		}
	}
	if history == "" {
		return nil
	}
	for i, ok := range present {
		if !ok {
			return fmt.Errorf("runtime: data directory %s lacks partition directory %s, but %s holds history: written for a different partition count", dataDir, PartitionDir(dataDir, i), history)
		}
	}
	return nil
}

// restoreDir checks the data directory's layout, opens every
// partition's durable store, rebuilds the engine from the combined
// history and attaches the stores.
func (e *Engine) restoreDir() (*RestoreInfo, error) {
	cfg := e.cfg
	if err := checkLayout(cfg.DataDir, len(e.parts)); err != nil {
		return nil, err
	}
	recs := make([]recovery.Recovered, len(e.parts))
	pers := make([]recovery.Persister, len(e.parts))
	for p := range e.parts {
		st, rec, err := recovery.Open(PartitionDir(cfg.DataDir, p), recovery.Options{Fsync: cfg.Fsync})
		if err != nil {
			return nil, fmt.Errorf("runtime: opening durable store for partition %d: %w", p, err)
		}
		recs[p], pers[p] = rec, st
		if cfg.WrapPersister != nil {
			pers[p] = cfg.WrapPersister(st)
		}
	}
	// A failure below leaves the stores unsealed on purpose
	// (Store.Close writes a clean marker, which would claim a shutdown
	// that never happened): the history on disk is evidence. The open
	// file handles die with the process.
	return e.restore(recs, pers)
}

// restore rebuilds the engine from the per-partition recovered
// histories and attaches the persisters. Called before the engine
// accepts any work (no reaper, no sessions).
func (e *Engine) restore(recs []recovery.Recovered, pers []recovery.Persister) (*RestoreInfo, error) {
	info := &RestoreInfo{Clean: true}
	for _, rec := range recs {
		info.Clean = info.Clean && rec.Clean
		info.Torn = info.Torn || rec.Torn
	}

	e.drainAll()
	defer e.undrainAll()

	// Replay each partition: rows (owner-translated to global ids),
	// statuses, events.
	var maxTag uint64
	for p, r := range e.parts {
		if err := r.replayRecoveredDrained(recs[p]); err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
		maxTag = max(maxTag, recs[p].MaxTag())
	}
	e.tags.Store(maxTag)

	// Attach the persisters *before* erasing unsettled transactions: the
	// erasure below must itself be durable, or a second restart would
	// resurrect the erased events.
	for p, r := range e.parts {
		r.rec.SetPersister(pers[p])
	}

	if err := e.rebuildGlobalDrained(recs); err != nil {
		return nil, err
	}

	// Settle each partition's local transactions: erase recovered-active
	// attempts, park or abandon their sessions. Mirror rows are skipped
	// and settled globally above.
	for p, r := range e.parts {
		if err := e.settleLocalDrained(r, recs[p].Opens, info); err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
	}

	// Verify the merged global schedule against the engine-wide system.
	merged := e.mergedDrained()
	if !merged.Serializable(e.sysSnapshot()) {
		return nil, fmt.Errorf("runtime: restore: %w: merged recovered schedule is not serializable under policy %q", recovery.ErrCorrupt, e.cfg.Policy.Name())
	}
	if f := e.anyFatalDrained(); f != nil {
		return nil, fmt.Errorf("runtime: restore: %w", f)
	}
	info.Events = len(merged)
	e.gmu.Lock()
	info.Commits = e.gmet.Commits
	e.gmu.Unlock()
	for _, r := range e.parts {
		info.Commits += r.met.Commits
	}
	return info, nil
}

// replayRecoveredDrained rebuilds the runner's transaction population,
// statuses and event log from a recovered history; each row's
// lock-manager owner is its engine-wide id o.G. Called with a full
// drain held and no persister attached (the replay must not re-append
// what it reads).
func (r *runner) replayRecoveredDrained(rec recovery.Recovered) error {
	for i, o := range rec.Opens {
		tx := model.Txn{Name: o.Name, Steps: o.Steps}
		if tx.Len() > 0 {
			if err := checkDeclared(tx); err != nil {
				return fmt.Errorf("runtime: restore: %w: open %d: %v", recovery.ErrCorrupt, i, err)
			}
		}
		if t := r.addTxnDrained(tx, o.G, o.Mirror); t != i {
			return fmt.Errorf("runtime: restore: %w: open %d landed at row %d", recovery.ErrCorrupt, i, t)
		}
	}
	for t, st := range rec.Status {
		if t < 0 || t >= len(r.sys.Txns) {
			return fmt.Errorf("runtime: restore: %w: status for unknown transaction %d", recovery.ErrCorrupt, t)
		}
		switch st {
		case recovery.StatusCommitted:
			r.status[t] = txCommitted
			if !r.mirror[t] {
				r.met.Commits++
			}
		case recovery.StatusAbandoned:
			r.status[t] = txAbandoned
			if !r.mirror[t] {
				r.met.GaveUp++
			}
		case recovery.StatusActive:
			r.status[t] = txActive
		default:
			return fmt.Errorf("runtime: restore: %w: unknown status %d for transaction %d", recovery.ErrCorrupt, st, t)
		}
	}
	for i, ev := range rec.Events {
		// Bounds only — no definedness check: a partition's log
		// legitimately holds a global transaction's events for entities
		// homed elsewhere, which its local structural state never
		// defines. The merged verification pass at the end of restore is
		// the integrity check that matters.
		if int(ev.T) < 0 || int(ev.T) >= len(r.sys.Txns) {
			return fmt.Errorf("runtime: restore: %w: event %d names unknown transaction %d", recovery.ErrCorrupt, i, ev.T)
		}
		if err := r.rec.AppendTagged(ev, rec.Tags[i]); err != nil {
			return fmt.Errorf("runtime: restore: %w: recovered log rejected at event %d: %v", recovery.ErrCorrupt, i, err)
		}
	}
	return nil
}

// rebuildGlobalDrained reconstructs the engine-wide system and the
// cross-partition records from the per-partition open records, then
// settles every cross-partition transaction (cross-partition drain
// held, persisters attached).
func (e *Engine) rebuildGlobalDrained(recs []recovery.Recovered) error {
	// byG[g] lists (partition, local index, mirror) for every row of
	// global id g, in ascending partition order.
	type rowRef struct {
		p, lt  int
		mirror bool
	}
	n := len(e.parts)
	maxG := -1
	byG := map[int][]rowRef{}
	for p := range e.parts {
		for lt, o := range recs[p].Opens {
			byG[o.G] = append(byG[o.G], rowRef{p: p, lt: lt, mirror: o.Mirror})
			maxG = max(maxG, o.G)
		}
	}

	var unsettled []*xtxn
	for g := 0; g <= maxG; g++ {
		refs := byG[g]
		switch {
		case len(refs) == 0:
			// A lost open: the crash hit between the global id assignment
			// and the first durable registration. No partition holds the
			// row, no events exist; a placeholder keeps the global id
			// space dense so later ids stay aligned.
			e.fullSys.Add(model.Txn{Name: "(lost)"})
			continue

		case len(refs) == 1 && !refs[0].mirror:
			// A local transaction, owned whole by its home partition,
			// which holds its status.
			o := recs[refs[0].p].Opens[refs[0].lt]
			e.fullSys.Add(model.Txn{Name: o.Name, Steps: o.Steps})
			continue
		}

		// Cross-partition: every ref must be a mirror, one per partition.
		seen := map[int]bool{}
		for _, ref := range refs {
			if !ref.mirror || seen[ref.p] {
				return fmt.Errorf("runtime: restore: %w: global id %d has inconsistent rows", recovery.ErrCorrupt, g)
			}
			seen[ref.p] = true
		}
		o := recs[refs[0].p].Opens[refs[0].lt]
		tx := model.Txn{Name: o.Name, Steps: o.Steps}
		e.fullSys.Add(tx)

		if len(refs) < n {
			// A partial mirror: the crash hit inside the registration
			// loop, before the open was acknowledged — no events exist.
			// Abandon the rows that do exist, durably.
			for _, ref := range refs {
				r := e.parts[ref.p]
				if r.status[ref.lt] != txAbandoned {
					r.status[ref.lt] = txAbandoned
					r.persistStatusDrained(ref.lt, recovery.StatusAbandoned)
				}
			}
			e.gmet.GaveUp++
			continue
		}

		x := &xtxn{g: g, tx: tx, locs: make([]int, n)}
		for _, ref := range refs {
			x.locs[ref.p] = ref.lt
		}
		e.xs[g] = x

		// Arbitrate the status: syncs walk partitions in ascending
		// order, so the lowest-index replica is the freshest. Reconcile
		// the stragglers, durably.
		x.status = e.parts[0].status[x.locs[0]]
		e.syncMirrorsDrained(x)
		switch x.status {
		case txCommitted:
			e.gmet.Commits++
		case txAbandoned:
			e.gmet.GaveUp++
		case txActive:
			unsettled = append(unsettled, x)
		}
	}

	// Settle cross-partition transactions recovered active: their
	// session died with the process and they are not restored parked
	// (see the file comment), so erase their events engine-wide —
	// cascades and all — and abandon them. The original set is kept
	// apart from the (growable) victims map: an un-committed cascade
	// victim is re-spawned engine-driven and must not be abandoned here.
	if len(unsettled) > 0 {
		victims := map[int]bool{}
		for _, x := range unsettled {
			victims[x.g] = true
		}
		e.eraseAllDrained(victims)
		for _, x := range unsettled {
			// The re-spawn goroutines read the cross-partition records
			// under gmu, so from here on the restore takes it too.
			e.gmu.Lock()
			active := e.fatal == nil && x.status == txActive
			if active {
				x.status = txAbandoned
				e.gmet.GaveUp++
			}
			e.gmu.Unlock()
			if active {
				e.syncMirrorsDrained(x)
			}
		}
	}
	if f := e.anyFatalDrained(); f != nil {
		return fmt.Errorf("runtime: restore: %w", f)
	}
	return nil
}

// settleLocalDrained resolves every recovered-active local transaction
// of partition r: its in-flight attempt died with the process, so its
// events are erased (cascading as a live abort would — a committed
// cascade victim is un-committed, durably, and re-spawned
// engine-side); then the transaction is either restored as a parked
// session (its persisted lease window still open) or abandoned (window
// passed, or it never was a session). Called with a full drain held,
// persister attached. Skips mirror rows: cross-partition transactions
// are settled globally.
func (e *Engine) settleLocalDrained(r *runner, opens []recovery.OpenRec, info *RestoreInfo) error {
	// Snapshot the original actives separately: eraseDrained grows the
	// victims map with cascade victims, and an un-committed cascade
	// victim is re-spawned engine-driven — it must NOT be parked as a
	// session below.
	orig := map[int]bool{}
	victims := map[int]bool{}
	for t := range r.sys.Txns {
		if r.status[t] == txActive && !r.mirror[t] {
			orig[t] = true
			victims[t] = true
		}
	}
	if len(victims) > 0 {
		r.eraseDrained(victims)
		if r.fatal != nil {
			return fmt.Errorf("runtime: restore: %w", r.fatal)
		}
	}
	now := e.now().UnixNano()
	for t := range r.sys.Txns {
		if !orig[t] || r.status[t] != txActive {
			continue
		}
		o := opens[t]
		if o.Deadline != 0 && o.Deadline <= now {
			// The lease ran out while the process was down; the client
			// is gone. Abandon, durably.
			r.status[t] = txAbandoned
			r.met.GaveUp++
			r.met.LeaseExpired++
			r.persistStatusDrained(t, recovery.StatusAbandoned)
			continue
		}
		st := &sessState{token: o.Token}
		st.deadline.Store(o.Deadline)
		st.parked.Store(true)
		e.mu.Lock()
		e.sessions[o.G] = &Session{e: e, g: o.G, r: r, t: t, tx: r.sys.Txns[t], st: st, gen: r.gen[t]}
		e.mu.Unlock()
		info.Sessions++
	}
	if r.fatal != nil {
		return fmt.Errorf("runtime: restore: %w", r.fatal)
	}
	return nil
}
