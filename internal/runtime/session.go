package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// Engine is a long-lived transaction runtime: the same sharded lock
// manager, footprint-striped admission gate and checkpointed recovery
// core as the batch Run, but with an open-ended session population.
// Open appends a declared transaction to the system (growing the
// monitors and the recovery core under a full gate drain) and returns a
// Session the client paces; abort/retry generations, cascading aborts
// and committed-transaction re-spawn work exactly as in batch mode —
// a re-spawned transaction is driven by the engine itself from its
// declared body.
//
// With Config.Lease > 0 the engine enforces session leases: a session
// idle between requests for longer than the lease is aborted and
// abandoned, its locks released, so an abandoned client cannot wedge
// the rest of the system. With Config.Clock nil a background reaper
// enforces leases on wall-clock time; with an injected Clock the
// embedder calls Reap itself.
type Engine struct {
	r *runner
	// start anchors Metrics.Elapsed (always wall clock, even with an
	// injected lease Clock).
	start time.Time
	now   func() time.Time
	lease time.Duration

	// lifecycle: session operations hold it for read; Close holds it
	// for write to wait out in-flight operations.
	lifecycle sync.RWMutex
	closed    atomic.Bool
	closedCh  chan struct{} // closed by Close; unblocks MPL waiters

	mu       sync.Mutex
	sessions map[int]*Session

	// maxTID is one past the highest transaction index ever issued, so
	// Resume can tell an unknown sid from a finished one without a drain.
	maxTID atomic.Int64
	// wallClock reports that no Clock was injected, so startReaper may
	// start the background lease reaper.
	wallClock bool

	reapStop chan struct{}
	reapDone chan struct{}
}

// NewEngine returns a running engine over the given initial structural
// state (nil means the empty database). The configuration is the batch
// Config; MPL bounds concurrently open sessions (Open blocks until a
// slot frees), and Lease/Clock control session leases.
func NewEngine(init model.State, cfg Config) *Engine {
	return newEngineShared(init, cfg, nil)
}

// newEngineShared is NewEngine with the partitioned engine's shared
// wiring (lock manager, tag source, MPL semaphore) injected; sh == nil
// means standalone.
func newEngineShared(init model.State, cfg Config, sh *sharedParts) *Engine {
	e := newEngineCore(init, cfg, sh)
	e.startReaper()
	return e
}

// newEngineCore builds the engine without starting the background
// reaper, so the durable constructor can restore the persisted history
// before any concurrent machinery runs.
func newEngineCore(init model.State, cfg Config, sh *sharedParts) *Engine {
	e := &Engine{
		r:        newRunnerShared(model.NewSystem(init.Clone()), cfg, sh),
		start:    time.Now(),
		now:      cfg.Clock,
		lease:    cfg.Lease,
		closedCh: make(chan struct{}),
		sessions: make(map[int]*Session),
	}
	if e.now == nil {
		e.now = time.Now
		e.wallClock = true
	}
	return e
}

// startReaper starts the background lease reaper if the engine runs on
// the wall clock with leases enabled. Idempotent.
func (e *Engine) startReaper() {
	if e.wallClock && e.lease > 0 && e.reapStop == nil {
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
}

// Session is one client-paced transaction of an Engine. A Session is
// not safe for concurrent use: each session serves one client, and its
// methods must not overlap (the network server serializes a session's
// requests through one worker goroutine).
type Session struct {
	e    *Engine
	t    int
	sid  int // engine-wide session id (equals t standalone; the global id under a PartitionedEngine)
	tx   model.Txn
	gen  int // generation of the current attempt, from the client's view
	pos  int // declared steps admitted in the current attempt
	done bool
	// myParks snapshots st.parks at creation/resume; a mismatch fences
	// this object (see sessState.parks).
	myParks int64

	st *sessState
}

// Open appends the declared transaction to the engine's system and
// returns a session for it. The full step sequence must be declared up
// front: the policies need the body (locked points, tree-locking), and
// cascade recovery re-runs committed transactions from it. The body
// must be well-formed and lock each entity at most once — malformed
// bodies are rejected here so a misbehaving client cannot trip the
// runtime's internal-invariant failures. With Config.MPL set, Open
// blocks until a session slot is free.
func (e *Engine) Open(tx model.Txn) (*Session, error) {
	if err := checkDeclared(tx); err != nil {
		return nil, err
	}
	return e.open(tx, -1)
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

// open is Open after body validation. owner >= 0 is the engine-wide
// lock-manager owner id a PartitionedEngine assigns to a session it
// routes here (the engine's lockSpace is in translation mode); owner < 0
// means standalone (identity) ownership.
func (e *Engine) open(tx model.Txn, owner int) (*Session, error) {
	r := e.r
	if r.sem != nil {
		select {
		case r.sem <- struct{}{}:
		case <-e.closedCh:
			return nil, ErrClosed
		}
	}
	e.lifecycle.RLock()
	defer e.lifecycle.RUnlock()
	if e.closed.Load() {
		if r.sem != nil {
			<-r.sem
		}
		return nil, ErrClosed
	}

	r.gate.drain()
	r.flushPending()
	if r.fatal != nil {
		err := r.fatal
		r.gate.undrain()
		if r.sem != nil {
			<-r.sem
		}
		return nil, fmt.Errorf("runtime: engine failed: %w", err)
	}
	t := r.addTxnDrained(tx, owner, false)
	sid := t
	if owner >= 0 {
		sid = owner
	}
	st := &sessState{token: newToken()}
	var deadline int64
	if e.lease > 0 {
		deadline = e.now().Add(e.lease).UnixNano()
	}
	st.deadline.Store(deadline)
	// The declaration is durable before the open is acknowledged, so a
	// restore can rebuild the transaction population (and its resume
	// credentials) from the WAL alone.
	r.persistOpenDrained(recovery.OpenRec{G: sid, Name: tx.Name, Steps: tx.Steps, Token: st.token, Deadline: deadline})
	if r.fatal != nil {
		err := r.fatal
		r.gate.undrain()
		if r.sem != nil {
			<-r.sem
		}
		return nil, fmt.Errorf("runtime: engine failed: %w", err)
	}
	r.gate.undrain()

	if r.sem != nil {
		st.holdsSlot.Store(true)
	}
	s := &Session{e: e, t: t, sid: sid, tx: tx, st: st}
	e.maxTID.Store(int64(t) + 1)
	s.touch()
	e.mu.Lock()
	e.sessions[t] = s
	e.mu.Unlock()
	return s, nil
}

// TID returns the session's transaction index in the engine's system.
func (s *Session) TID() int { return s.t }

// SID returns the engine-wide session id, the identity a client quotes
// to Resume after a connection loss.
func (s *Session) SID() int { return s.sid }

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

// release deregisters the session and returns its MPL slot, exactly
// once (the client's own finish can race a reaper's; a parked session
// gave its slot back at the park, which holdsSlot remembers).
func (e *Engine) release(s *Session) {
	if s.st.finished.Swap(true) {
		return
	}
	e.mu.Lock()
	delete(e.sessions, s.t)
	e.mu.Unlock()
	if e.r.sem != nil && s.st.holdsSlot.Swap(false) {
		<-e.r.sem
	}
}

// addTxnDrained appends one transaction row to the runner: the system,
// the recovery core and every per-transaction bookkeeping slice grow in
// lockstep, and the lock-owner mapping learns the row's engine-wide
// owner id (no-op for standalone engines). mirror marks a row
// registered on behalf of a cross-partition transaction.
// Called with a full drain held, sequencer flushed.
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

// failure translates a torn-down attempt into the session API's error
// vocabulary, adopting the new generation so the client can retry.
func (s *Session) failure() error {
	if s.st.parks.Load() != s.myParks {
		// Fenced: a park tore this owner's view down mid-flight. Leave
		// the shared state alone — the transaction lives on for Resume.
		s.done = true
		return fmt.Errorf("%w (session parked; reattach with resume)", ErrCancelled)
	}
	gen, status, cause, fatal := s.e.r.readTxnState(s.t)
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
	if gen, status, _, fatal := s.e.r.readTxnState(s.t); fatal != nil || gen != s.gen || status != txActive {
		return s.failure()
	}
	ok, _, _ := s.e.r.execStep(s.t, s.gen, st)
	if !ok {
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
	committed, _, _ := s.e.r.commit(s.t, s.gen)
	if !committed {
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
		if d := s.e.r.backoff(k); d > 0 {
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
	r := s.e.r
	r.gate.drain()
	r.flushPending()
	if r.fatal == nil && r.status[s.t] == txActive {
		r.eraseDrained(map[int]bool{s.t: true})
		r.gen[s.t]++
		r.status[s.t] = txAbandoned
		r.met.GaveUp++
		r.persistStatusDrained(s.t, recovery.StatusAbandoned)
	}
	fatal := r.fatal
	r.gate.undrain()
	r.mgr.ReleaseAll(s.t)
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
	s.e.forceAbort(s, ErrCancelled, errors.New("session cancelled (connection closed)"), false)
}

// forceAbort tears down an open session engine-side (lease reaper,
// shutdown drain): erase its events, release its locks, abandon it.
// Reports whether the session was actually torn down (false if it
// already finished or the engine is failing).
func (e *Engine) forceAbort(s *Session, term error, cause error, lease bool) bool {
	r := e.r
	r.gate.drain()
	r.flushPending()
	if r.fatal != nil || s.st.finished.Load() || r.status[s.t] != txActive {
		r.gate.undrain()
		return false
	}
	r.eraseDrained(map[int]bool{s.t: true})
	r.gen[s.t]++
	r.abortCause[s.t] = cause
	r.status[s.t] = txAbandoned
	r.met.GaveUp++
	if lease {
		r.met.LeaseExpired++
	}
	r.persistStatusDrained(s.t, recovery.StatusAbandoned)
	// Publish the terminal sentinel before the teardown wakes anyone:
	// a parked Step woken by the ReleaseAll below must find term set, or
	// it would misreport the cause as ErrAbandoned.
	s.st.term.Store(&term)
	r.gate.undrain()
	r.mgr.ReleaseAll(s.t)
	e.release(s)
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
// resuming client finds them intact.
func (s *Session) Interrupt() { s.e.interrupt(s) }

func (e *Engine) interrupt(s *Session) {
	r := e.r
	r.gate.drain()
	r.flushPending()
	if r.fatal != nil || s.st.finished.Load() || r.status[s.t] != txActive || s.st.parked.Load() {
		r.gate.undrain()
		return
	}
	r.eraseDrained(map[int]bool{s.t: true})
	r.gen[s.t]++
	r.abortCause[s.t] = errParked
	// The fence must rise before anything parked is woken: a woken step
	// sees the parks mismatch and dies without touching shared cursor
	// state.
	s.st.parks.Add(1)
	s.st.parked.Store(true)
	s.touch() // the lease window restarts at the park
	r.gate.undrain()
	r.mgr.ReleaseAll(s.t)
	if r.sem != nil && s.st.holdsSlot.Swap(false) {
		<-r.sem
	}
}

// errParked is the abort cause recorded for a parked session's erased
// attempt.
var errParked = errors.New("session parked (connection lost)")

// Resume reattaches a parked session by id and token: the single
// winning caller (concurrent Resumes race on an atomic arbiter) gets a
// fresh Session positioned at the first declared step, holding a fresh
// MPL slot. A wrong token is refused without touching the session; a
// parked session whose lease deadline has passed is reaped here
// (deterministically — no dependence on reaper timing) and refused
// with ErrLeaseExpired.
func (e *Engine) Resume(sid int, token uint64) (Sess, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	s, err := e.resumeLocal(sid, token)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// resumeLocal is Resume on the partition-local transaction index, split
// out so a PartitionedEngine can route a global sid to its home
// partition's row.
func (e *Engine) resumeLocal(t int, token uint64) (*Session, error) {
	if t < 0 || int64(t) >= e.maxTID.Load() {
		return nil, ErrUnknownSession
	}
	e.mu.Lock()
	cur := e.sessions[t]
	e.mu.Unlock()
	if cur == nil {
		return nil, ErrSessionDone
	}
	st := cur.st
	if st.token != token {
		return nil, ErrBadToken
	}
	if d := st.deadline.Load(); d != 0 && d <= e.now().UnixNano() {
		e.forceAbort(cur, ErrLeaseExpired, fmt.Errorf("lease of %v expired", e.lease), true)
		if p := st.term.Load(); p != nil {
			return nil, *p
		}
		return nil, ErrLeaseExpired
	}
	if !st.parked.CompareAndSwap(true, false) {
		return nil, ErrNotResumable
	}
	// The park gave the MPL slot back; the resumed incarnation competes
	// for a fresh one like an Open would.
	if e.r.sem != nil {
		select {
		case e.r.sem <- struct{}{}:
		case <-e.closedCh:
			st.parked.Store(true)
			return nil, ErrClosed
		}
		st.holdsSlot.Store(true)
	}
	// A reaper or shutdown may have killed the session between the CAS
	// and the slot acquisition; re-check liveness.
	gen, status, _, fatal := e.r.readTxnState(t)
	if fatal != nil || status != txActive || st.finished.Load() {
		if e.r.sem != nil && st.holdsSlot.Swap(false) {
			<-e.r.sem
		}
		if p := st.term.Load(); p != nil {
			return nil, *p
		}
		if fatal != nil {
			return nil, fmt.Errorf("runtime: engine failed: %w", fatal)
		}
		return nil, ErrNotResumable
	}
	ns := &Session{e: e, t: t, sid: cur.sid, tx: cur.tx, st: st, gen: gen, myParks: st.parks.Load()}
	ns.touch()
	e.mu.Lock()
	e.sessions[t] = ns
	e.mu.Unlock()
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
		if e.forceAbort(s, ErrLeaseExpired, fmt.Errorf("lease of %v expired", e.lease), true) {
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

// OpenSessions returns the number of currently open sessions.
func (e *Engine) OpenSessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// AbortOpenSessions force-aborts every open session (shutdown drain):
// each loses its in-flight attempt, is abandoned and — if parked inside
// a lock acquisition — woken with a cancellation. Returns how many were
// torn down.
func (e *Engine) AbortOpenSessions() int {
	e.mu.Lock()
	snap := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		snap = append(snap, s)
	}
	e.mu.Unlock()
	n := 0
	for _, s := range snap {
		if e.forceAbort(s, ErrClosed, errors.New("engine shutting down"), false) {
			n++
		}
	}
	return n
}

// Stats returns a consistent snapshot of the engine's metrics (cheap:
// no serializability check). Elapsed is the wall-clock time since
// NewEngine.
func (e *Engine) Stats() Metrics {
	r := e.r
	r.gate.drain()
	r.flushPending()
	m := r.met
	m.Events = r.rec.Len() + r.rec.Stats().Truncated
	m.Replayed = r.rec.Stats().Replayed
	r.gate.undrain()
	m.Wait = time.Duration(r.waitNs.Load())
	m.Elapsed = time.Since(e.start)
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

// Inspect returns a diagnostic snapshot. It drains the gate and builds
// the serializability graph of the whole surviving log — O(log) work —
// so it is a debugging and verification facility, not a metrics poll
// (use Stats for that).
func (e *Engine) Inspect() Inspection {
	r := e.r
	r.gate.drain()
	r.flushPending()
	ins := Inspection{
		Log:          r.rec.Events().String(),
		State:        fmt.Sprintf("%v", r.rec.State()),
		MonitorKey:   r.rec.Monitor().Key(),
		Serializable: r.rec.Events().Serializable(r.sys),
	}
	m := r.met
	m.Events = r.rec.Len() + r.rec.Stats().Truncated
	m.Replayed = r.rec.Stats().Replayed
	ins.Metrics = m
	r.gate.undrain()
	ins.Metrics.Wait = time.Duration(r.waitNs.Load())
	ins.Metrics.Elapsed = time.Since(e.start)
	e.mu.Lock()
	ins.OpenSessions = len(e.sessions)
	e.mu.Unlock()
	return ins
}

// Close shuts the engine down: new sessions and session operations are
// refused, every still-open session is force-aborted (erasing its
// events, so the final log is exactly the committed schedule, as in
// batch Run), engine-driven re-runs are waited out, and the committed
// schedule is verified serializable. Returns the final metrics and
// schedule.
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
	// Open raced the first.
	e.AbortOpenSessions()
	e.lifecycle.Lock()
	defer e.lifecycle.Unlock()
	e.AbortOpenSessions()
	r := e.r
	r.wg.Wait()
	// Session operations are excluded by the lifecycle write lock and
	// the re-runs are done, but Stats/Inspect stay reachable (a draining
	// server still answers polls), so the final metrics are written and
	// snapshotted under the drain like every other r.met access.
	r.gate.drain()
	r.flushPending()
	r.met.Elapsed = time.Since(e.start)
	r.met.Wait = time.Duration(r.waitNs.Load())
	r.met.Events = r.rec.Len() + r.rec.Stats().Truncated
	r.met.Replayed = r.rec.Stats().Replayed
	met := r.met
	fatal := r.fatal
	r.gate.undrain()
	// Seal the durable store (if any): the clean-shutdown marker lets the
	// next Open skip torn-tail scanning and attests nothing was lost.
	if p := r.rec.Persister(); p != nil {
		if cerr := p.Close(); cerr != nil && fatal == nil {
			fatal = fmt.Errorf("runtime: sealing durable store: %w", cerr)
		}
	}
	if fatal != nil {
		return nil, fatal
	}
	sched := r.rec.Events()
	if !sched.Serializable(r.sys) {
		return nil, fmt.Errorf("runtime: committed schedule is NOT serializable under policy %q", r.cfg.Policy.Name())
	}
	return &Result{Metrics: met, Schedule: sched}, nil
}
