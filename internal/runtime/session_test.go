package runtime

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/workload"
)

// driveSession pushes the declared steps of tx through s, retrying from
// the first step on ErrAborted, and commits. Mirrors runner.runTxn's
// retry loop, client-side.
func driveSession(t *testing.T, s *Session) error {
	t.Helper()
	for {
		err := s.stepAll()
		if err == nil {
			err = s.Commit()
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrAborted) {
			continue
		}
		return err
	}
}

// stepAll submits every remaining declared step.
func (s *Session) stepAll() error {
	for s.pos < s.tx.Len() {
		if err := s.Step(s.tx.Steps[s.pos]); err != nil {
			return err
		}
	}
	return nil
}

func TestSessionBasicCommit(t *testing.T) {
	e := NewSessionEngine(model.NewState("a", "b"), Config{Policy: policy.TwoPhase{}, GateStripes: 4})
	txA := model.Txn{Name: "A", Steps: []model.Step{model.LX("a"), model.W("a"), model.LX("b"), model.W("b"), model.UX("a"), model.UX("b")}}
	txB := model.Txn{Name: "B", Steps: []model.Step{model.LX("a"), model.R("a"), model.UX("a")}}
	sa, err := e.OpenSession(txA)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := e.OpenSession(txB)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { done <- driveSession(t, sa) }()
	go func() { done <- driveSession(t, sb) }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Commits != 2 || res.Metrics.GaveUp != 0 {
		t.Fatalf("commits=%d gaveup=%d, want 2/0", res.Metrics.Commits, res.Metrics.GaveUp)
	}
	if res.Metrics.Events != txA.Len()+txB.Len() {
		t.Fatalf("events=%d, want %d", res.Metrics.Events, txA.Len()+txB.Len())
	}
}

func TestSessionOpenRejectsMalformed(t *testing.T) {
	e := NewSessionEngine(model.NewState("a"), Config{})
	// Unlock of a lock that is not held.
	if _, err := e.OpenSession(model.Txn{Steps: []model.Step{model.UX("a")}}); err == nil {
		t.Fatal("malformed body accepted")
	}
	// Entity locked twice.
	twice := model.Txn{Steps: []model.Step{model.LX("a"), model.UX("a"), model.LX("a"), model.UX("a")}}
	if _, err := e.OpenSession(twice); err == nil {
		t.Fatal("lock-twice body accepted")
	}
	if _, err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenSession(model.Txn{Steps: []model.Step{model.LX("a"), model.UX("a")}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after Close = %v, want ErrClosed", err)
	}
}

func TestSessionStepMismatch(t *testing.T) {
	e := NewSessionEngine(model.NewState("a", "b"), Config{Policy: policy.TwoPhase{}})
	s, err := e.OpenSession(model.Txn{Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(model.LX("b")); !errors.Is(err, ErrStepMismatch) {
		t.Fatalf("undeclared step = %v, want ErrStepMismatch", err)
	}
	if err := s.Commit(); !errors.Is(err, ErrStepMismatch) {
		t.Fatalf("early commit = %v, want ErrStepMismatch", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(model.LX("a")); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("step after abort = %v, want ErrSessionDone", err)
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.GaveUp != 1 || res.Metrics.Events != 0 {
		t.Fatalf("gaveup=%d events=%d, want 1/0", res.Metrics.GaveUp, res.Metrics.Events)
	}
}

// TestSessionPolicyAbortAndRetry pins the abort/retry contract: a
// non-two-phase body is vetoed under 2PL at its post-unlock lock, the
// whole attempt is erased, and the client's retry fails the same way
// until the budget runs out.
func TestSessionPolicyAbortAndRetry(t *testing.T) {
	e := NewSessionEngine(model.NewState("a", "b"), Config{Policy: policy.TwoPhase{}, MaxRetries: 2, Backoff: -1})
	bad := model.Txn{Steps: []model.Step{model.LX("a"), model.UX("a"), model.LX("b"), model.UX("b")}}
	s, err := e.OpenSession(bad)
	if err != nil {
		t.Fatal(err)
	}
	aborts := 0
	for {
		err := s.stepAll()
		if errors.Is(err, ErrAborted) {
			aborts++
			continue
		}
		if !errors.Is(err, ErrAbandoned) {
			t.Fatalf("want ErrAbandoned eventually, got %v", err)
		}
		break
	}
	if aborts != 2 { // MaxRetries=2: attempts 1 and 2 abort, attempt 3 abandons
		t.Fatalf("aborts=%d, want 2", aborts)
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PolicyAborts != 3 || res.Metrics.GaveUp != 1 || res.Metrics.Events != 0 {
		t.Fatalf("pol=%d gaveup=%d events=%d, want 3/1/0", res.Metrics.PolicyAborts, res.Metrics.GaveUp, res.Metrics.Events)
	}
}

// fakeClock is an atomically advanced time source for deterministic
// lease tests.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestSessionLeaseExpiry is the stalled-client scenario: a session that
// holds a lock and goes silent is aborted once its lease passes, its
// locks are released, and a session waiting on that lock proceeds.
// Deterministic: the clock is injected and Reap is called explicitly.
func TestSessionLeaseExpiry(t *testing.T) {
	clock := &fakeClock{}
	e := NewSessionEngine(model.NewState("a"), Config{
		Policy: policy.TwoPhase{},
		Lease:  time.Second,
		Clock:  clock.now,
	})
	body := model.Txn{Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}}
	stalled, err := e.OpenSession(body)
	if err != nil {
		t.Fatal(err)
	}
	// The stalled client acquires the lock, then goes silent.
	if err := stalled.Step(model.LX("a")); err != nil {
		t.Fatal(err)
	}
	if err := stalled.Step(model.W("a")); err != nil {
		t.Fatal(err)
	}
	waiter, err := e.OpenSession(body)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- driveSession(t, waiter) }()
	// Wait until the waiter's Step is in flight: it then parks on the
	// stalled session's lock and stays busy — and the reaper never
	// touches a busy session — so the upcoming Reap can only see the
	// stalled one.
	for !waiter.st.busy.Load() {
		time.Sleep(50 * time.Microsecond)
	}
	clock.advance(2 * time.Second)
	if n := e.Reap(); n != 1 {
		t.Fatalf("Reap() = %d, want 1 (the stalled session)", n)
	}
	if err := <-waited; err != nil {
		t.Fatalf("waiting session did not proceed after the lease expiry: %v", err)
	}
	if err := stalled.Step(model.UX("a")); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("stalled session step = %v, want ErrLeaseExpired", err)
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Commits != 1 || m.GaveUp != 1 || m.LeaseExpired != 1 {
		t.Fatalf("commits=%d gaveup=%d leaseexpired=%d, want 1/1/1", m.Commits, m.GaveUp, m.LeaseExpired)
	}
	if m.Events != body.Len() {
		t.Fatalf("events=%d, want %d (the stalled attempt must be erased)", m.Events, body.Len())
	}
}

// TestSessionTraceEquivalence drives the same randomized traces through
// (a) the batch reference drive and (b) in-process sessions opened on a
// grown engine, and requires identical digests: logs, states, monitor
// keys, serializability verdicts and abort accounting. This pins that
// growing the system session-by-session (monitor Grow, recovery-core
// Grow) is observably identical to constructing it up front.
func TestSessionTraceEquivalence(t *testing.T) {
	arms := []struct {
		name   string
		pol    policy.Policy
		wl     workload.Config
		commit bool
	}{
		{"2PL", policy.TwoPhase{}, func() workload.Config {
			c := workload.DefaultConfig()
			c.PStructural = 0
			return c
		}(), true},
		{"altruistic", policy.Altruistic{}, workload.DefaultConfig(), false},
	}
	for _, arm := range arms {
		for seed := int64(0); seed < 20; seed++ {
			sys, sched := workload.Random(rand.New(rand.NewSource(seed)), arm.wl)
			if len(sched) == 0 {
				continue
			}
			cfg := Config{Policy: arm.pol, GateStripes: 8, CheckpointEvery: 3}
			ref, err := ReplayTrace(sys, sched, cfg, arm.commit)
			if err != nil {
				t.Fatalf("%s seed %d: %v", arm.name, seed, err)
			}
			got, err := driveSessions(sys, sched, cfg, arm.commit, false)
			if err != nil {
				t.Fatalf("%s seed %d: %v", arm.name, seed, err)
			}
			if got != ref.Digest() {
				t.Fatalf("%s seed %d: sessions diverge from the batch drive:\n--- sessions ---\n%s\n--- batch ---\n%s",
					arm.name, seed, got, ref.Digest())
			}
		}
	}
}

// TestSessionGrowEquivalence is TestSessionTraceEquivalence with lazy
// opens: each session is opened just before its transaction's first
// event. Opens then interleave with checkpoints, so an abort compacts
// back to checkpoints taken before some replayed transactions existed,
// and the fork of such a checkpoint is grown only then. Every policy
// has an arm on bodies that follow its rules; the abort-heavy arms run
// random bodies under rules they mostly break, so victims and cascades
// are common.
func TestSessionGrowEquivalence(t *testing.T) {
	pc := workload.PolicyConfig{Txns: 12, OpsPerTxn: 3, Entities: 6, PRelease: 0.6, PStructural: 0.25}
	dc := workload.DDAGConfig{PolicyConfig: pc, Layers: 3, Width: 2}
	conforming := func(gen func(*rand.Rand) *model.System) func(*rand.Rand) (*model.System, model.Schedule) {
		return func(rng *rand.Rand) (*model.System, model.Schedule) {
			sys := gen(rng)
			return sys, randomLegalPrefix(rng, sys)
		}
	}
	twoPhase := conforming(func(rng *rand.Rand) *model.System { return workload.TwoPhaseSystemRandom(rng, pc) })
	ddag := conforming(func(rng *rand.Rand) *model.System {
		sys, _ := workload.DDAGSystem(rng, dc)
		return sys
	})
	ddagSX := conforming(func(rng *rand.Rand) *model.System {
		sys, _ := workload.DDAGSXSystem(rng, dc, 0.5)
		return sys
	})
	random := func(structural float64) func(*rand.Rand) (*model.System, model.Schedule) {
		c := workload.DefaultConfig()
		c.Txns, c.Steps, c.PStructural = 12, 60, structural
		return func(rng *rand.Rand) (*model.System, model.Schedule) { return workload.Random(rng, c) }
	}
	arms := []struct {
		name   string
		pol    policy.Policy
		gen    func(*rand.Rand) (*model.System, model.Schedule)
		commit bool
		aborts bool // the arm must abort some transactions
	}{
		{"2PL", policy.TwoPhase{}, twoPhase, true, false},
		// The tree policy runs DDAG walks; its static rules veto some.
		{"tree", policy.Tree{}, ddag, true, true},
		{"DDAG", policy.DDAG{}, ddag, true, false},
		{"DDAG-SX", policy.DDAGSX{}, ddagSX, true, false},
		{"altruistic", policy.Altruistic{}, conforming(func(rng *rand.Rand) *model.System { return workload.AltruisticSystem(rng, pc) }), false, false},
		{"DTR", policy.DTR{}, conforming(func(rng *rand.Rand) *model.System { return workload.DTRSystem(rng, pc) }), true, false},
		{"unrestricted", policy.Unrestricted{}, twoPhase, true, false},
		{"2PL-aborts", policy.TwoPhase{}, random(0), true, true},
		{"altruistic-aborts", policy.Altruistic{}, random(workload.DefaultConfig().PStructural), false, true},
	}
	for _, arm := range arms {
		aborts := 0
		for seed := int64(0); seed < 20; seed++ {
			sys, sched := arm.gen(rand.New(rand.NewSource(seed)))
			if len(sched) == 0 {
				continue
			}
			cfg := Config{Policy: arm.pol, GateStripes: 8, CheckpointEvery: 3}
			ref, err := ReplayTrace(sys, sched, cfg, arm.commit)
			if err != nil {
				t.Fatalf("%s seed %d: %v", arm.name, seed, err)
			}
			aborts += ref.Metrics.Aborts()
			got, err := driveSessions(sys, sched, cfg, arm.commit, true)
			if err != nil {
				t.Fatalf("%s seed %d: %v", arm.name, seed, err)
			}
			if got != ref.Digest() {
				t.Fatalf("%s seed %d: lazily opened sessions diverge from the batch drive:\n--- sessions ---\n%s\n--- batch ---\n%s",
					arm.name, seed, got, ref.Digest())
			}
		}
		if arm.aborts && aborts == 0 {
			t.Errorf("%s: no transaction was aborted in 20 seeds", arm.name)
		}
	}
}

// randomLegalPrefix executes random enabled steps of sys until every
// transaction has finished or none can move, and returns the legal,
// proper schedule prefix it built.
func randomLegalPrefix(rng *rand.Rand, sys *model.System) model.Schedule {
	rp := model.NewReplay(sys)
	var sched model.Schedule
	for {
		var enabled []model.Ev
		for i := range sys.Txns {
			if st, ok := rp.NextStep(model.TID(i)); ok {
				if ev := (model.Ev{T: model.TID(i), S: st}); rp.Check(ev) == nil {
					enabled = append(enabled, ev)
				}
			}
		}
		if len(enabled) == 0 {
			return sched
		}
		ev := enabled[rng.Intn(len(enabled))]
		if err := rp.Do(ev); err != nil {
			panic(err)
		}
		sched = append(sched, ev)
	}
}

// driveSessions replays a trace through in-process sessions, one Open
// per transaction, single-threaded, dropping a session on abort exactly
// as ReplayTrace drops a transaction. Sessions are opened in transaction
// order, so ids match the batch drive: all up front, or with lazy set,
// each just before its transaction's first event (and the rest at the
// end).
func driveSessions(sys *model.System, sched model.Schedule, cfg Config, commit, lazy bool) (string, error) {
	e := NewSessionEngine(sys.Init, cfg)
	var sess []*Session
	openTo := func(n int) error {
		for len(sess) < n {
			s, err := e.OpenSession(sys.Txns[len(sess)])
			if err != nil {
				return err
			}
			sess = append(sess, s)
		}
		return nil
	}
	if !lazy {
		if err := openTo(len(sys.Txns)); err != nil {
			return "", err
		}
	}
	dropped := make([]bool, len(sys.Txns))
	fed := make([]int, len(sys.Txns))
	for _, ev := range sched {
		tn := int(ev.T)
		if dropped[tn] {
			continue
		}
		if err := openTo(tn + 1); err != nil {
			return "", err
		}
		if err := sess[tn].Step(ev.S); err != nil {
			if errors.Is(err, ErrAborted) || errors.Is(err, ErrAbandoned) {
				dropped[tn] = true
				continue
			}
			return "", err
		}
		fed[tn]++
		if commit && fed[tn] == sys.Txns[tn].Len() {
			if err := sess[tn].Commit(); err != nil {
				return "", err
			}
		}
	}
	if err := openTo(len(sys.Txns)); err != nil {
		return "", err
	}
	ins := e.Inspect()
	m := ins.Metrics
	return (&TraceResult{
		Log:          ins.Log,
		State:        ins.State,
		MonitorKey:   ins.MonitorKey,
		Serializable: ins.Serializable,
		Metrics:      m,
	}).Digest(), nil
}
