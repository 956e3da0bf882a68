package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"locksafe/internal/lockmgr"
	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

// This file is the session layer over the striped runtime: a long-lived
// Engine whose transaction population is not known up front. Clients
// open a Session by declaring the transaction's full step sequence (the
// paper's policies are properties of declared transaction bodies: the
// altruistic locked point and the DTR tree-locking check need the whole
// text, and cascade recovery must be able to re-run a committed
// transaction without its client), then drive the declared steps one at
// a time through exactly the same lock-manager and gate-admission code
// paths the batch loop uses. The network service in internal/server is
// a thin transport over this API.

// Sentinel errors of the session API. Step, Commit and Abort wrap them
// with cause detail; test with errors.Is.
var (
	// ErrClosed: the engine is shut down (or shutting down); no further
	// sessions or session operations are accepted.
	ErrClosed = errors.New("engine closed")
	// ErrAborted: the session's current attempt was torn down (policy
	// veto, deadlock victim, improper step, cascade). Its events are
	// erased and its locks released; the session remains open and the
	// client may retry by re-sending the declared steps from the first.
	ErrAborted = errors.New("session attempt aborted; retry from the first declared step")
	// ErrAbandoned: the session exceeded its retry budget
	// (Config.MaxRetries) and was abandoned. Terminal.
	ErrAbandoned = errors.New("session abandoned: retry budget exhausted")
	// ErrLeaseExpired: the session sat idle past Config.Lease and was
	// reaped — events erased, locks released. Terminal.
	ErrLeaseExpired = errors.New("session lease expired")
	// ErrSessionDone: the session already committed or was closed.
	ErrSessionDone = errors.New("session already finished")
	// ErrCancelled: the session was terminated engine-side by Cancel
	// (for example because its network connection died). Terminal.
	ErrCancelled = errors.New("session cancelled")
	// ErrStepMismatch: the submitted step is not the declared
	// transaction's next step (or steps remain at Commit).
	ErrStepMismatch = errors.New("step does not match the declared transaction")
	// ErrUnknownSession: Resume named a session id the engine has never
	// issued.
	ErrUnknownSession = errors.New("unknown session id")
	// ErrBadToken: Resume presented the wrong resume token. The session
	// is left untouched — a guess must not perturb the real owner.
	ErrBadToken = errors.New("resume token does not match")
	// ErrNotResumable: the session is not parked (it is being driven, was
	// already resumed by a concurrent Resume, or cannot be reattached).
	ErrNotResumable = errors.New("session is not parked")
)

// errParked is the abort cause recorded for a parked session's erased
// attempt.
var errParked = errors.New("session parked (connection lost)")

// Engine is the long-lived transaction runtime: the same sharded lock
// manager, footprint-striped admission gate and checkpointed recovery
// core as the batch Run, but with an open-ended session population.
// OpenSession appends a declared transaction to the system (growing the
// monitors and the recovery core under a gate drain) and returns a
// Session the client paces; abort/retry generations, cascading aborts
// and committed-transaction re-spawn work exactly as in batch mode — a
// re-spawned transaction is driven by the engine itself from its
// declared body.
//
// The entity space is hashed into Config.Partitions partitions, each a
// runner with its own gate, sequencer and recovery core, sharing one
// lock manager, one MPL semaphore and one event-tag source. A session
// whose declared body stays inside one partition runs on that
// partition's runner alone; the rest go through the cross-partition
// drain (partition.go). Everything session-level — the lifecycle lock,
// the session registry, the lease reaper, Close and restore — is
// engine-wide and written once.
//
// With Config.Lease > 0 the engine enforces session leases: a session
// idle between requests for longer than the lease is aborted and
// abandoned, its locks released, so an abandoned client cannot wedge
// the rest of the system. With Config.Clock nil a background reaper
// enforces leases on wall-clock time; with an injected Clock the
// embedder calls Reap itself.
type Engine struct {
	cfg   Config
	parts []*runner
	mgr   *lockmgr.Manager
	tags  atomic.Uint64
	// fpMon is a monitor over an empty system consulted only for
	// Footprint (pure: event + static policy configuration), used to
	// classify declared bodies at open.
	fpMon model.Monitor
	init  model.State

	// start anchors Metrics.Elapsed (always wall clock, even with an
	// injected lease Clock).
	start time.Time
	now   func() time.Time
	lease time.Duration

	sem chan struct{}  // engine-wide MPL, shared with the partitions
	wg  sync.WaitGroup // cross-partition re-runs (rerunCross)

	// lifecycle: session operations hold it for read; Close holds it
	// for write to wait out in-flight operations.
	lifecycle sync.RWMutex
	closed    atomic.Bool
	closedCh  chan struct{} // closed by Close; unblocks MPL waiters

	// waitNs accumulates lock-wait time of cross-partition steps.
	waitNs atomic.Int64

	// gmu guards the engine-wide bookkeeping below. It is a leaf lock:
	// held briefly, never while acquiring a gate drain.
	gmu sync.Mutex
	// fullSys is the engine-wide system: every session's declared body
	// under its engine-wide id, in open order. It is the system the
	// merged log is verified against.
	fullSys *model.System
	// xs holds the cross-partition transactions by engine-wide id.
	xs    map[int]*xtxn
	gmet  Metrics // metrics attributed to cross-partition transactions
	fatal error

	// mu guards the session registry: the current incarnation of every
	// open session by engine-wide id, and how many of them are attached
	// (not parked). idle is closed when attached drops to zero. Leaf
	// lock, like gmu.
	mu       sync.Mutex
	sessions map[int]*Session
	attached int
	idle     chan struct{}

	reapStop chan struct{}
	reapDone chan struct{}
}

// SessionEngine and Sess name the engine and its session handle for
// callers written against those names.
type (
	SessionEngine = *Engine
	Sess          = *Session
)

// NewSessionEngine returns a running memory-only engine over the given
// initial structural state (nil means the empty database), replicated
// into cfg.Partitions entity-hash partitions. MPL bounds concurrently
// open sessions (OpenSession blocks until a slot frees), and
// Lease/Clock control session leases. DataDir is ignored; see
// NewDurableSessionEngine.
func NewSessionEngine(init model.State, cfg Config) *Engine {
	e := newEngine(init, cfg)
	e.startReaper()
	return e
}

// newEngine builds the engine without starting the background reaper,
// so the durable constructor can restore the persisted history before
// any concurrent machinery runs.
func newEngine(init model.State, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		mgr:      lockmgr.NewSharded(cfg.Shards),
		fpMon:    cfg.Policy.NewMonitor(model.NewSystem(init.Clone())),
		init:     init.Clone(),
		start:    time.Now(),
		now:      cfg.Clock,
		lease:    cfg.Lease,
		closedCh: make(chan struct{}),
		fullSys:  model.NewSystem(init.Clone()),
		xs:       make(map[int]*xtxn),
		sessions: make(map[int]*Session),
	}
	if e.now == nil {
		e.now = time.Now
	}
	sh := &sharedParts{mgr: e.mgr, tags: &e.tags}
	if cfg.MPL > 0 {
		e.sem = make(chan struct{}, cfg.MPL)
		sh.sem = e.sem
	}
	pcfg := cfg
	pcfg.MPL = 0 // the shared semaphore is injected, not re-created
	e.parts = make([]*runner, cfg.Partitions)
	for p := range e.parts {
		e.parts[p] = newRunnerShared(model.NewSystem(init.Clone()), pcfg, sh)
	}
	return e
}

// startReaper starts the background lease reaper if the engine runs on
// the wall clock with leases enabled.
func (e *Engine) startReaper() {
	if e.cfg.Clock == nil && e.lease > 0 {
		e.reapStop = make(chan struct{})
		e.reapDone = make(chan struct{})
		go e.reapLoop()
	}
}

// sessState is the lifecycle state of one transaction's session,
// shared by every Session object ever handed out for it: a Resume
// returns a *fresh* Session (so a dead connection's worker, which may
// still hold the old object, can never corrupt the new owner's
// cursor), and all incarnations share this struct — the exactly-once
// release discipline, the MPL slot accounting and the park arbiter
// live here.
type sessState struct {
	// token is the server-issued resume credential, fixed at open.
	token uint64
	// deadline is the lease deadline in unix nanoseconds (0 = no
	// lease); busy marks an in-flight request, during which the reaper
	// leaves the session alone. term records the terminal sentinel a
	// reaper or drain imposed.
	deadline atomic.Int64
	busy     atomic.Bool
	term     atomic.Pointer[error]
	finished atomic.Bool // release() ran (sem slot given back, deregistered)
	// parked is the resume arbiter: set by Interrupt, cleared by the
	// single winning Resume (CompareAndSwap).
	parked atomic.Bool
	// holdsSlot tracks whether this session currently occupies an MPL
	// slot. Swap gives exactly-once acquire/release transitions across
	// racing Interrupt/Resume/forceAbort/release paths.
	holdsSlot atomic.Bool
	// parks counts Interrupts; a Session object whose snapshot disagrees
	// predates a park and is permanently fenced from the engine.
	parks atomic.Int64
	// attached reports that the session is counted in Engine.attached
	// (open or resumed, and neither parked nor finished). Guarded by
	// Engine.mu.
	attached bool
}

// Session is one client-paced transaction of an Engine. A Session is
// not safe for concurrent use: each session serves one client, and its
// methods must not overlap (the network server serializes a session's
// requests through one worker goroutine). Cancel and Interrupt are the
// exceptions, safe concurrently with an in-flight call.
//
// A partition-local session is driven by its home partition's runner
// (r, t); a cross-partition one by the cross-partition drain (x). Only
// the methods reading the transaction's state, executing a step,
// committing and ending an attempt under a drain tell the two apart.
type Session struct {
	e *Engine
	g int // engine-wide session id
	// r and t are the home partition's runner and the transaction's row
	// in it; nil and unused for a cross-partition session.
	r *runner
	t int
	x *xtxn // cross-partition bookkeeping; nil for a local session
	// tx is the declared body.
	tx   model.Txn
	gen  int // generation of the current attempt, from the client's view
	pos  int // declared steps admitted in the current attempt
	done bool
	// myParks snapshots st.parks at creation/resume; a mismatch fences
	// this object (see sessState.parks).
	myParks int64

	st *sessState
}

// OpenSession appends the declared transaction to the engine's system
// and returns a session for it. The full step sequence must be declared
// up front: the policies need the body (locked points, tree-locking),
// and cascade recovery re-runs committed transactions from it. The body
// must be well-formed and lock each entity at most once — malformed
// bodies are rejected here so a misbehaving client cannot trip the
// runtime's internal-invariant failures. A body that stays inside one
// partition is opened on that partition alone (one hash per declared
// entity and nothing else); the rest register a mirror row in every
// partition under the cross-partition drain. With Config.MPL set,
// OpenSession blocks until a session slot is free.
func (e *Engine) OpenSession(tx model.Txn) (*Session, error) {
	if err := checkDeclared(tx); err != nil {
		return nil, err
	}
	if e.sem != nil {
		select {
		case e.sem <- struct{}{}:
		case <-e.closedCh:
			return nil, ErrClosed
		}
	}
	s, err := e.open(tx)
	if err != nil && e.sem != nil {
		<-e.sem
	}
	return s, err
}

// open is OpenSession after body validation and slot acquisition. The
// session is registered under the lifecycle read lock, so Close's
// exclusive pass cannot miss it.
func (e *Engine) open(tx model.Txn) (*Session, error) {
	e.lifecycle.RLock()
	defer e.lifecycle.RUnlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	homeP, global := e.classify(tx)
	e.gmu.Lock()
	g := int(e.fullSys.Add(tx))
	e.gmu.Unlock()
	st := &sessState{token: newToken()}
	var deadline int64
	if e.lease > 0 {
		deadline = e.now().Add(e.lease).UnixNano()
	}
	st.deadline.Store(deadline)
	// The declaration is durable before the open is acknowledged, so a
	// restore can rebuild the transaction population (and its resume
	// credentials) from the WAL alone.
	o := recovery.OpenRec{G: g, Name: tx.Name, Steps: tx.Steps, Token: st.token, Deadline: deadline}
	s := &Session{e: e, g: g, tx: tx, st: st}
	if global {
		x, err := e.openCross(g, tx, o)
		if err != nil {
			return nil, err
		}
		s.x = x
	} else {
		r := e.parts[homeP]
		r.gate.drain()
		r.flushPending()
		if r.fatal == nil {
			s.r, s.t = r, r.addTxnDrained(tx, g, false)
			r.persistOpenDrained(o)
		}
		fatal := r.fatal
		r.gate.undrain()
		if fatal != nil {
			return nil, fmt.Errorf("runtime: engine failed: %w", fatal)
		}
	}
	if e.sem != nil {
		st.holdsSlot.Store(true)
	}
	s.touch()
	e.attach(s)
	return s, nil
}

// checkDeclared validates a declared transaction body at the API edge.
func checkDeclared(tx model.Txn) error {
	if err := tx.WellFormed(); err != nil {
		return err
	}
	if !tx.LocksAtMostOnce() {
		return fmt.Errorf("runtime: declared transaction %q locks an entity more than once", tx.Name)
	}
	return nil
}

// addTxnDrained appends one transaction row to the runner: the system,
// the recovery core and every per-transaction bookkeeping slice grow in
// lockstep, and the lock-owner mapping learns the row's engine-wide
// owner id. mirror marks a row registered on behalf of a
// cross-partition transaction. Called with a full drain held,
// sequencer flushed.
func (r *runner) addTxnDrained(tx model.Txn, owner int, mirror bool) int {
	t := int(r.sys.Add(tx))
	r.rec.Grow(len(r.sys.Txns))
	r.status = append(r.status, txActive)
	r.gen = append(r.gen, 0)
	r.attempts = append(r.attempts, 0)
	r.abortCause = append(r.abortCause, nil)
	r.mirror = append(r.mirror, mirror)
	r.mgr.register(owner)
	return t
}

// readTxnState snapshots t's generation, status, abort cause and the
// fatal error under t's stripe.
func (r *runner) readTxnState(t int) (gen int, status txnStatus, cause, fatal error) {
	var buf [maxStripeBuf]int
	tset := r.txnStripes(buf[:0], t)
	r.gate.lockSet(tset)
	gen, status, cause, fatal = r.gen[t], r.status[t], r.abortCause[t], r.fatal
	r.gate.unlockSet(tset)
	return
}

// attach registers s as its transaction's current incarnation and
// counts it attached. It refuses (false) a session that already
// finished — a reaper or drain that won a race with Resume.
func (e *Engine) attach(s *Session) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s.st.finished.Load() {
		return false
	}
	e.sessions[s.g] = s
	if !s.st.attached {
		s.st.attached = true
		if e.attached == 0 {
			e.idle = make(chan struct{})
		}
		e.attached++
	}
	return true
}

// detachLocked stops counting st as attached, signalling idle when the
// count reaches zero (mu held).
func (e *Engine) detachLocked(st *sessState) {
	if st.attached {
		st.attached = false
		e.attached--
		if e.attached == 0 {
			close(e.idle)
		}
	}
}

// release deregisters the session and returns its MPL slot, exactly
// once (the client's own finish can race a reaper's; a parked session
// gave its slot back at the park, which holdsSlot remembers).
func (e *Engine) release(s *Session) {
	if s.st.finished.Swap(true) {
		return
	}
	e.mu.Lock()
	delete(e.sessions, s.g)
	e.detachLocked(s.st)
	e.mu.Unlock()
	if e.sem != nil && s.st.holdsSlot.Swap(false) {
		<-e.sem
	}
}

// SID returns the engine-wide session id, the identity a client quotes
// to Resume after a connection loss.
func (s *Session) SID() int { return s.g }

// Token returns the server-issued resume credential.
func (s *Session) Token() uint64 { return s.st.token }

// Declared returns the session's declared transaction body.
func (s *Session) Declared() model.Txn { return s.tx }

// touch renews the lease deadline.
func (s *Session) touch() {
	if s.e.lease > 0 {
		s.st.deadline.Store(s.e.now().Add(s.e.lease).UnixNano())
	}
}

// begin guards a session operation: lifecycle read lock, closed, done
// and park-fence checks, lease renewal, busy marking. Every return path
// that got past begin must go through end.
func (s *Session) begin() error {
	if s.done {
		if p := s.st.term.Load(); p != nil {
			return *p
		}
		return ErrSessionDone
	}
	if s.st.parks.Load() != s.myParks {
		// This object predates a park: its connection was torn down and
		// the transaction awaits (or already got) a Resume. The stale
		// owner is permanently fenced — only the Session returned by
		// Resume may drive the transaction now.
		s.done = true
		return fmt.Errorf("%w (session parked; reattach with resume)", ErrCancelled)
	}
	s.e.lifecycle.RLock()
	if s.e.closed.Load() {
		s.e.lifecycle.RUnlock()
		return ErrClosed
	}
	s.st.busy.Store(true)
	s.touch()
	return nil
}

func (s *Session) end() {
	s.touch()
	s.st.busy.Store(false)
	s.e.lifecycle.RUnlock()
}

// state snapshots the transaction's generation, status, abort cause and
// the fatal error.
func (s *Session) state() (gen int, status txnStatus, cause, fatal error) {
	if s.x != nil {
		return s.e.crossState(s.x)
	}
	return s.r.readTxnState(s.t)
}

// exec executes one declared step of the current attempt, reporting
// whether it was admitted.
func (s *Session) exec(st model.Step) bool {
	var ok bool
	if s.x != nil {
		ok, _, _ = s.e.crossStep(s.x, s.gen, st)
	} else {
		ok, _, _ = s.r.execStep(s.t, s.gen, st)
	}
	return ok
}

// commitAttempt commits the current attempt, reporting whether the
// transaction reached txCommitted.
func (s *Session) commitAttempt() bool {
	var committed bool
	if s.x != nil {
		committed, _, _ = s.e.crossCommit(s.x, s.gen)
	} else {
		committed, _, _ = s.r.commit(s.t, s.gen)
	}
	return committed
}

// drain takes the drain that owns the transaction's state — its home
// partition's gate, or the cross-partition drain — and reports whether
// the transaction is still active on a healthy engine, plus the fatal
// error if any. Every drain must be released by undrain.
func (s *Session) drain() (active bool, fatal error) {
	if s.x != nil {
		s.e.drainAll()
		fatal = s.e.anyFatalDrained()
		return fatal == nil && s.x.status == txActive, fatal
	}
	r := s.r
	r.gate.drain()
	r.flushPending()
	return r.fatal == nil && r.status[s.t] == txActive, r.fatal
}

// undrain releases the drain taken by drain; with shed it then tears
// down every lock the transaction holds, waking a parked acquisition
// with a cancellation.
func (s *Session) undrain(shed bool) {
	if s.x != nil {
		s.e.undrainAll()
		if shed {
			s.e.mgr.ReleaseAll(s.g)
		}
		return
	}
	s.r.gate.undrain()
	if shed {
		s.r.mgr.ReleaseAll(s.t)
	}
}

// endAttemptDrained erases the current attempt's events (cascading as
// needed) and bumps the generation, recording cause unless nil. With
// abandon the transaction is also ended, durably: counted in
// Metrics.GaveUp, and in Metrics.LeaseExpired with lease. Drain held.
func (s *Session) endAttemptDrained(cause error, abandon, lease bool) {
	if x := s.x; x != nil {
		e := s.e
		e.eraseAllDrained(map[int]bool{s.g: true})
		e.gmu.Lock()
		x.gen++
		if cause != nil {
			x.cause = cause
		}
		if abandon {
			x.status = txAbandoned
			e.gmet.GaveUp++
			if lease {
				e.gmet.LeaseExpired++
			}
		}
		e.gmu.Unlock()
		if abandon {
			e.syncMirrorsDrained(x)
		}
		return
	}
	r, t := s.r, s.t
	r.eraseDrained(map[int]bool{t: true})
	r.gen[t]++
	if cause != nil {
		r.abortCause[t] = cause
	}
	if abandon {
		r.status[t] = txAbandoned
		r.met.GaveUp++
		if lease {
			r.met.LeaseExpired++
		}
		r.persistStatusDrained(t, recovery.StatusAbandoned)
	}
}

// failure translates a torn-down attempt into the session API's error
// vocabulary, adopting the new generation so the client can retry.
func (s *Session) failure() error {
	if s.st.parks.Load() != s.myParks {
		// Fenced: a park tore this owner's view down mid-flight. Leave
		// the shared state alone — the transaction lives on for Resume.
		s.done = true
		return fmt.Errorf("%w (session parked; reattach with resume)", ErrCancelled)
	}
	gen, status, cause, fatal := s.state()
	s.gen, s.pos = gen, 0
	if fatal != nil {
		s.done = true
		s.e.release(s)
		return fmt.Errorf("runtime: engine failed: %w", fatal)
	}
	if status == txActive {
		if cause != nil {
			return fmt.Errorf("%w (cause: %v)", ErrAborted, cause)
		}
		return ErrAborted
	}
	// Terminal: reaped, drained or out of retries.
	s.done = true
	s.e.release(s)
	if p := s.st.term.Load(); p != nil {
		return fmt.Errorf("%w (cause: %v)", *p, cause)
	}
	if cause != nil {
		return fmt.Errorf("%w (last cause: %v)", ErrAbandoned, cause)
	}
	return ErrAbandoned
}

// Step executes the next declared step of the session's transaction: st
// must equal that step (the declaration is the contract; the submitted
// step is verified against it). On success the cursor advances. An
// ErrAborted return means the attempt — including any previously
// admitted steps — was erased; the client retries by re-sending the
// declared steps from the first. ErrAbandoned, ErrLeaseExpired and
// ErrClosed are terminal.
func (s *Session) Step(st model.Step) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	if s.pos >= s.tx.Len() {
		return fmt.Errorf("%w: all %d declared steps already executed", ErrStepMismatch, s.tx.Len())
	}
	if want := s.tx.Steps[s.pos]; st != want {
		return fmt.Errorf("%w: got %s, declared step %d is %s", ErrStepMismatch, st, s.pos, want)
	}
	// A cascade (or the reaper) may have torn the attempt down since the
	// last request; notice before doing any work.
	if gen, status, _, fatal := s.state(); fatal != nil || gen != s.gen || status != txActive {
		return s.failure()
	}
	if !s.exec(st) {
		return s.failure()
	}
	s.pos++
	return nil
}

// Commit finalizes the session after every declared step was admitted.
// On success the transaction is durably in the committed schedule
// (subject to the cascade caveat documented in DESIGN.md: a later
// cascade may un-commit it, in which case the engine itself re-runs the
// declared body to completion, as the batch runtime does). ErrAborted
// means the attempt died before the commit took; retry from the first
// step.
func (s *Session) Commit() error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	if s.pos != s.tx.Len() {
		return fmt.Errorf("%w: %d of %d declared steps executed", ErrStepMismatch, s.pos, s.tx.Len())
	}
	if !s.commitAttempt() {
		return s.failure()
	}
	s.done = true
	s.e.release(s)
	return nil
}

// Run drives the session's declared transaction to commit engine-side:
// it executes every declared step and commits, retrying from the first
// step with the runner's capped+jittered backoff whenever the attempt is
// torn down (ErrAborted) — the same loop the engine already performs for
// cascade re-runs, exposed so a client can ship the declared body once
// and receive a single terminal answer (the wire protocol's run op).
// Returns nil on commit; any other error is terminal for the session.
// The retry budget is the engine's (Config.MaxRetries), enforced by the
// runtime itself — Run just keeps resubmitting while the session stays
// retryable.
func (s *Session) Run() error {
	for k := 1; ; k++ {
		err := s.runDeclared()
		if err == nil || !errors.Is(err, ErrAborted) {
			return err
		}
		if d := s.e.backoff(k); d > 0 {
			time.Sleep(d)
		}
	}
}

// runDeclared executes the remaining declared steps and commits. On
// ErrAborted the cursor was reset by failure(), so the next call starts
// over from the first declared step.
func (s *Session) runDeclared() error {
	for s.pos < s.tx.Len() {
		if err := s.Step(s.tx.Steps[s.pos]); err != nil {
			return err
		}
	}
	return s.Commit()
}

// Abort closes the session at the client's request: its events are
// erased (cascading as needed), its locks released and the transaction
// abandoned (counted in Metrics.GaveUp). The session is finished.
func (s *Session) Abort() error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	active, fatal := s.drain()
	if active {
		s.endAttemptDrained(nil, true, false)
	}
	s.undrain(true)
	s.done = true
	s.e.release(s)
	if fatal != nil {
		return fmt.Errorf("runtime: engine failed: %w", fatal)
	}
	return nil
}

// Cancel terminates the session engine-side: its current attempt is
// erased, its locks released and the transaction abandoned (counted in
// Metrics.GaveUp). Unlike the owner-only methods, Cancel is safe to
// call concurrently with an in-flight Step/Commit/Abort — the network
// server uses it to tear down the sessions of a dead connection, which
// wakes a step parked inside a lock acquisition. The owner's in-flight
// and subsequent calls fail with ErrCancelled. Cancelling a finished
// session is a no-op.
func (s *Session) Cancel() {
	s.forceAbort(ErrCancelled, errors.New("session cancelled (connection closed)"), false)
}

// forceAbort tears down an open session engine-side (lease reaper,
// shutdown drain, Cancel): erase its events, release its locks, abandon
// it. Reports whether the session was actually torn down (false if it
// already finished or the engine is failing).
func (s *Session) forceAbort(term error, cause error, lease bool) bool {
	active, _ := s.drain()
	if !active || s.st.finished.Load() {
		s.undrain(false)
		return false
	}
	s.endAttemptDrained(cause, true, lease)
	// Publish the terminal sentinel before the teardown wakes anyone:
	// a parked Step woken by the lock teardown must find term set, or
	// it would misreport the cause as ErrAbandoned.
	s.st.term.Store(&term)
	s.undrain(true)
	s.e.release(s)
	return true
}

// Interrupt parks the session engine-side: its in-flight attempt is
// erased (locks released, a step parked inside a lock acquisition woken
// with a cancellation) and its MPL slot returned, but the transaction
// stays open — a client that reconnects within the lease window (which
// restarts at the park) reattaches with Resume and the session's token.
// Safe to call concurrently with an in-flight owner call, like Cancel;
// interrupting a finished or already-parked session is a no-op. The
// network server parks the sessions of a lost connection this way so a
// resuming client finds them intact. A parked session no longer counts
// as attached (see Engine.WaitDetached).
func (s *Session) Interrupt() {
	active, _ := s.drain()
	if !active || s.st.finished.Load() || s.st.parked.Load() {
		s.undrain(false)
		return
	}
	s.endAttemptDrained(errParked, false, false)
	// Detach before the park is published, so a Resume (which needs
	// parked set) cannot attach first and be uncounted here.
	s.e.mu.Lock()
	s.e.detachLocked(s.st)
	s.e.mu.Unlock()
	// The fence must rise before anything parked is woken: a woken step
	// sees the parks mismatch and dies without touching shared cursor
	// state.
	s.st.parks.Add(1)
	s.st.parked.Store(true)
	s.touch() // the lease window restarts at the park
	s.undrain(true)
	if s.e.sem != nil && s.st.holdsSlot.Swap(false) {
		<-s.e.sem
	}
}

// Resume reattaches a parked session by id and token: the single
// winning caller (concurrent Resumes race on an atomic arbiter) gets a
// fresh Session positioned at the first declared step, holding a fresh
// MPL slot. A wrong token is refused without touching the session; a
// parked session whose lease deadline has passed is reaped here
// (deterministically — no dependence on reaper timing) and refused
// with ErrLeaseExpired.
func (e *Engine) Resume(sid int, token uint64) (*Session, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.gmu.Lock()
	issued := sid >= 0 && sid < len(e.fullSys.Txns)
	e.gmu.Unlock()
	if !issued {
		return nil, ErrUnknownSession
	}
	e.mu.Lock()
	cur := e.sessions[sid]
	e.mu.Unlock()
	if cur == nil {
		return nil, ErrSessionDone
	}
	st := cur.st
	if st.token != token {
		return nil, ErrBadToken
	}
	if d := st.deadline.Load(); d != 0 && d <= e.now().UnixNano() {
		cur.forceAbort(ErrLeaseExpired, fmt.Errorf("lease of %v expired", e.lease), true)
		if p := st.term.Load(); p != nil {
			return nil, *p
		}
		return nil, ErrLeaseExpired
	}
	if !st.parked.CompareAndSwap(true, false) {
		return nil, ErrNotResumable
	}
	// The park gave the MPL slot back; the resumed incarnation competes
	// for a fresh one like an open would.
	if e.sem != nil {
		select {
		case e.sem <- struct{}{}:
		case <-e.closedCh:
			st.parked.Store(true)
			return nil, ErrClosed
		}
		st.holdsSlot.Store(true)
	}
	// A reaper or shutdown may have killed the session between the CAS
	// and the slot acquisition; re-check liveness.
	ns := &Session{e: e, g: cur.g, r: cur.r, t: cur.t, x: cur.x, tx: cur.tx, st: st, myParks: st.parks.Load()}
	gen, status, _, fatal := ns.state()
	ns.gen = gen
	ns.touch()
	if fatal != nil || status != txActive || !e.attach(ns) {
		if e.sem != nil && st.holdsSlot.Swap(false) {
			<-e.sem
		}
		if p := st.term.Load(); p != nil {
			return nil, *p
		}
		if fatal != nil {
			return nil, fmt.Errorf("runtime: engine failed: %w", fatal)
		}
		return nil, ErrNotResumable
	}
	return ns, nil
}

// Reap aborts every open session whose lease deadline has passed and
// returns how many it reaped. A session with an in-flight request is
// never reaped — the lease bounds client idleness, not lock waits. With
// an injected Clock the embedder calls Reap after advancing the clock;
// with the real clock a background goroutine calls it periodically.
func (e *Engine) Reap() int {
	if e.lease <= 0 {
		return 0
	}
	now := e.now().UnixNano()
	e.mu.Lock()
	var expired []*Session
	for _, s := range e.sessions {
		if d := s.st.deadline.Load(); d != 0 && d <= now && !s.st.busy.Load() {
			expired = append(expired, s)
		}
	}
	e.mu.Unlock()
	n := 0
	for _, s := range expired {
		if s.forceAbort(ErrLeaseExpired, fmt.Errorf("lease of %v expired", e.lease), true) {
			n++
		}
	}
	return n
}

func (e *Engine) reapLoop() {
	defer close(e.reapDone)
	period := e.lease / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-e.reapStop:
			return
		case <-tick.C:
			e.Reap()
		}
	}
}

// OpenSessions returns the number of currently open sessions, parked
// ones included.
func (e *Engine) OpenSessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// WaitDetached blocks until no session is attached — every open
// session has finished or is parked — or the timeout passes, and
// reports whether it returned because none is attached. It wakes on the
// release or park that detaches the last session, not by polling. A
// drain uses it: a parked session has no client driving it, so waiting
// for it could only run out the clock.
func (e *Engine) WaitDetached(timeout time.Duration) bool {
	e.mu.Lock()
	if e.attached == 0 {
		e.mu.Unlock()
		return true
	}
	idle := e.idle
	e.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-idle:
		return true
	case <-t.C:
		return false
	}
}

// abortAllSessions force-aborts every open session, parked ones
// included (Close's drain): each loses its in-flight attempt, is
// abandoned and — if parked inside a lock acquisition — woken with a
// cancellation.
func (e *Engine) abortAllSessions() {
	e.mu.Lock()
	snap := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		snap = append(snap, s)
	}
	e.mu.Unlock()
	for _, s := range snap {
		s.forceAbort(ErrClosed, errors.New("engine shutting down"), false)
	}
}

// Stats returns a consistent engine-wide snapshot of the metrics. It
// runs no serializability check, but counts events by walking the
// retained logs' tags, so a replicated event counts once. Elapsed is
// the wall-clock time since the engine was built.
func (e *Engine) Stats() Metrics {
	e.drainAll()
	m := e.statsDrained()
	e.undrainAll()
	return m
}

// Inspection is a diagnostic snapshot of the engine's world state, in
// the digest vocabulary of the equivalence tests: the surviving log,
// the structural state, the policy monitor's memoization key and the
// log's serializability verdict.
type Inspection struct {
	Log          string
	State        string
	MonitorKey   string
	Serializable bool
	OpenSessions int
	Metrics      Metrics
}

// Inspect returns the diagnostic snapshot over the *merged* log: the
// global execution order, the engine-wide structural state, the monitor
// key of a full-system monitor replayed over the merged log (the live
// monitors are per partition), and the merged log's serializability
// verdict. It drains every partition and does O(log) work, so it is a
// debugging and verification facility, not a metrics poll (use Stats
// for that). With TruncateLog the merged log is a suffix and the
// replayed monitor key is not meaningful; it is reported as
// "(truncated)".
func (e *Engine) Inspect() Inspection {
	e.drainAll()
	merged := e.mergedDrained()
	sys := e.sysSnapshot()
	truncated := false
	for _, r := range e.parts {
		if r.rec.Stats().Truncated > 0 {
			truncated = true
		}
	}
	key := "(truncated)"
	if !truncated {
		mon := e.cfg.Policy.NewMonitor(sys)
		key = ""
		for _, ev := range merged {
			if err := mon.Step(ev); err != nil {
				key = fmt.Sprintf("(merged log does not replay: %v)", err)
				break
			}
		}
		if key == "" {
			key = mon.Key()
		}
	}
	ins := Inspection{
		Log:          merged.String(),
		State:        fmt.Sprintf("%v", e.mergedStateDrained()),
		MonitorKey:   key,
		Serializable: merged.Serializable(sys),
		Metrics:      e.statsDrained(),
	}
	e.undrainAll()
	ins.OpenSessions = e.OpenSessions()
	return ins
}

// Close shuts the engine down: new sessions and session operations are
// refused, every still-open session — parked ones included — is
// force-aborted (erasing its events, so the final log is exactly the
// committed schedule, as in batch Run), engine-driven re-runs are
// waited out, each partition's log is verified serializable against
// its own system and its durable store sealed, and the merged schedule
// is verified serializable against the engine-wide system. Returns the
// merged metrics and schedule.
func (e *Engine) Close() (*Result, error) {
	if e.closed.Swap(true) {
		return nil, ErrClosed
	}
	close(e.closedCh)
	if e.reapStop != nil {
		close(e.reapStop)
		<-e.reapDone
	}
	// First pass unwedges sessions parked inside lock acquisitions so
	// in-flight operations can finish and the lifecycle write lock is
	// reachable; the second pass (exclusive) closes the window where an
	// open raced the first.
	e.abortAllSessions()
	e.lifecycle.Lock()
	defer e.lifecycle.Unlock()
	e.abortAllSessions()
	// Cross-partition re-runs first: they can re-spawn local cascade
	// victims, while local re-runs never reach another partition.
	e.wg.Wait()
	for p, r := range e.parts {
		r.wg.Wait()
		// Stats/Inspect stay reachable (a draining server still answers
		// polls), so the fatal error is read under the drain like every
		// other runner field.
		r.gate.drain()
		r.flushPending()
		fatal := r.fatal
		r.gate.undrain()
		// Seal the durable store (if any): the clean-shutdown marker lets
		// the next open skip torn-tail scanning and attests nothing was
		// lost.
		if ps := r.rec.Persister(); ps != nil {
			if cerr := ps.Close(); cerr != nil && fatal == nil {
				fatal = fmt.Errorf("runtime: sealing durable store of partition %d: %w", p, cerr)
			}
		}
		if fatal != nil {
			return nil, fatal
		}
		if !r.rec.Events().Serializable(r.sys) {
			return nil, fmt.Errorf("runtime: committed schedule of partition %d is NOT serializable under policy %q", p, e.cfg.Policy.Name())
		}
	}
	// Single-threaded from here: sessions are excluded, re-runs done.
	e.drainAll()
	merged := e.mergedDrained()
	met := e.statsDrained()
	fatal := e.anyFatalDrained()
	e.undrainAll()
	if fatal != nil {
		return nil, fatal
	}
	sys := e.sysSnapshot()
	if !merged.Serializable(sys) {
		return nil, fmt.Errorf("runtime: merged committed schedule is NOT serializable under policy %q", e.cfg.Policy.Name())
	}
	return &Result{Metrics: met, Schedule: merged}, nil
}
