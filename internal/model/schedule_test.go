package model

import (
	"math/rand"
	"strings"
	"testing"
)

// twoTxnSystem is the Section 2 example, with locks added so the
// transactions are well-formed.
func twoTxnSystem() *System {
	t1 := NewTxn("T1",
		LX("a"), I("a"), LX("b"), I("b"), UX("a"), UX("b"),
		LX("c"), W("c"), UX("c"), LX("d"), I("d"), UX("d"))
	t2 := NewTxn("T2",
		LS("a"), R("a"), US("a"), LX("b"), D("b"), UX("b"),
		LX("c"), I("c"), UX("c"))
	return NewSystem(nil, t1, t2)
}

func TestSystemWellFormed(t *testing.T) {
	if err := twoTxnSystem().WellFormed(); err != nil {
		t.Fatalf("system should be well-formed: %v", err)
	}
	bad := NewSystem(nil, NewTxn("T1", W("a")))
	if err := bad.WellFormed(); err == nil {
		t.Error("unlocked write must fail WellFormed")
	}
	twice := NewSystem(nil, NewTxn("T1", LX("a"), UX("a"), LX("a"), UX("a")))
	if err := twice.WellFormed(); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Errorf("double locking must fail WellFormed, got %v", err)
	}
}

func TestPreservesOrder(t *testing.T) {
	sys := twoTxnSystem()
	ok := Schedule{
		{0, LX("a")}, {0, I("a")}, {1, LS("a")},
	}
	if err := ok.PreservesOrder(sys); err != nil {
		t.Errorf("valid prefix rejected: %v", err)
	}
	bad := Schedule{{0, I("a")}} // skips T1's first step
	if err := bad.PreservesOrder(sys); err == nil {
		t.Error("out-of-order event accepted")
	}
	unknown := Schedule{{5, LX("a")}}
	if err := unknown.PreservesOrder(sys); err == nil {
		t.Error("unknown TID accepted")
	}
}

func TestSerialSystemLegalProperSerializable(t *testing.T) {
	// Serial execution of T1 then T2 of the two-transaction system is
	// legal but NOT proper (T1 writes c before anything inserts it).
	sys := twoTxnSystem()
	s := SerialSystem(sys)
	if !s.Legal(sys) {
		t.Error("serial schedules are always legal")
	}
	if s.Proper(sys) {
		t.Error("T1 alone is improper, so T1;T2 must be improper")
	}
}

// TestPaperInterleavingProper reproduces the Section 2 example: the
// interleaving in which T2 inserts c before T1 writes it is proper, legal
// and — as computed here — serializable or not according to D(S).
func TestPaperInterleavingProper(t *testing.T) {
	sys := twoTxnSystem()
	s := Schedule{
		{0, LX("a")}, {0, I("a")}, {0, LX("b")}, {0, I("b")}, {0, UX("a")}, {0, UX("b")},
		{1, LS("a")}, {1, R("a")}, {1, US("a")}, {1, LX("b")}, {1, D("b")}, {1, UX("b")},
		{1, LX("c")}, {1, I("c")}, {1, UX("c")},
		{0, LX("c")}, {0, W("c")}, {0, UX("c")}, {0, LX("d")}, {0, I("d")}, {0, UX("d")},
	}
	if err := s.PreservesOrder(sys); err != nil {
		t.Fatalf("bad test fixture: %v", err)
	}
	if !s.Legal(sys) {
		t.Error("interleaving should be legal")
	}
	if !s.Proper(sys) {
		t.Error("interleaving should be proper (T2 inserts c before T1 writes it)")
	}
	if !s.LegalAndProper(sys) {
		t.Error("LegalAndProper should agree with Legal && Proper")
	}
	// T1 -> T2 via entities a and b; T2 -> T1 via entity c: cycle.
	g := s.Graph(sys)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Errorf("expected cycle T1<->T2, got %v", g)
	}
	if s.Serializable(sys) {
		t.Error("schedule with a D(S) cycle must be nonserializable")
	}
}

func TestLegalRejectsConflictingLocks(t *testing.T) {
	sys := NewSystem(NewState("a"),
		NewTxn("T1", LX("a"), W("a"), UX("a")),
		NewTxn("T2", LS("a"), R("a"), US("a")))
	bad := Schedule{{0, LX("a")}, {1, LS("a")}}
	if bad.Legal(sys) {
		t.Error("S lock while another txn holds X must be illegal")
	}
	badX := Schedule{{1, LS("a")}, {0, LX("a")}}
	if badX.Legal(sys) {
		t.Error("X lock while another txn holds S must be illegal")
	}
	okShared := NewSystem(NewState("a"),
		NewTxn("T1", LS("a"), R("a"), US("a")),
		NewTxn("T2", LS("a"), R("a"), US("a")))
	s := Schedule{{0, LS("a")}, {1, LS("a")}, {0, R("a")}, {1, R("a")}, {0, US("a")}, {1, US("a")}}
	if !s.Legal(okShared) {
		t.Error("two shared locks must be legal")
	}
	if !s.Serializable(okShared) {
		t.Error("read-only schedule must be serializable")
	}
}

func TestReplayErrors(t *testing.T) {
	sys := NewSystem(nil, NewTxn("T1", LX("a"), W("a"), UX("a")))
	r := NewReplay(sys)
	// Write before insert: improper (a does not exist).
	if err := r.Do(Ev{0, LX("a")}); err != nil {
		t.Fatalf("lock should succeed: %v", err)
	}
	err := r.Do(Ev{0, W("a")})
	re, ok := err.(*ReplayError)
	if !ok || re.Kind != ErrImproper {
		t.Fatalf("expected ErrImproper, got %v", err)
	}
	// The improper W did not advance the position, so the transaction's
	// next step is still (W a) and executing (UX a) is an order violation.
	err = r.Do(Ev{0, UX("a")})
	re, ok = err.(*ReplayError)
	if !ok || re.Kind != ErrOrder {
		t.Fatalf("expected ErrOrder executing UX while W is pending, got %v", err)
	}
}

func TestReplayErrorStrings(t *testing.T) {
	e := &ReplayError{ErrIllegal, Ev{1, LX("a")}}
	if !strings.Contains(e.Error(), "illegal") {
		t.Errorf("error text %q should mention illegality", e)
	}
	for _, k := range []ErrKind{ErrOrder, ErrIllegal, ErrImproper} {
		if k.String() == "" {
			t.Error("empty ErrKind string")
		}
	}
}

func TestCompleteOver(t *testing.T) {
	sys := NewSystem(NewState("a"),
		NewTxn("T1", LS("a"), R("a"), US("a")),
		NewTxn("T2", LS("a"), R("a"), US("a")))
	full := SerialSystem(sys)
	if !full.CompleteOver(sys, []TID{0, 1}) {
		t.Error("full serial schedule is complete over both")
	}
	if full.CompleteOver(sys, []TID{0}) {
		t.Error("schedule containing T2 steps is not complete over {T1} alone")
	}
	first := Serial([]TID{0}, []Txn{sys.Txns[0]})
	if !first.CompleteOver(sys, []TID{0}) {
		t.Error("T1's serial schedule is complete over {T1}")
	}
	if first.CompleteOver(sys, []TID{0, 1}) {
		t.Error("T1 alone is not complete over both")
	}
}

func TestParticipants(t *testing.T) {
	s := Schedule{{2, R("a")}, {0, R("a")}, {2, R("b")}}
	got := s.Participants()
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("Participants = %v, want [2 0]", got)
	}
}

func TestFinalState(t *testing.T) {
	sys := twoTxnSystem()
	s := Schedule{
		{0, LX("a")}, {0, I("a")}, {0, LX("b")}, {0, I("b")}, {0, UX("a")}, {0, UX("b")},
	}
	st, ok := s.FinalState(sys)
	if !ok || !st.Equal(NewState("a", "b")) {
		t.Errorf("FinalState = %v, %v", st, ok)
	}
}

func TestGridRendering(t *testing.T) {
	sys := NewSystem(nil,
		NewTxn("T1", LX("a"), I("a"), UX("a")),
		NewTxn("T2", LX("b"), I("b"), UX("b")))
	s := Schedule{{0, LX("a")}, {1, LX("b")}, {0, I("a")}, {1, I("b")}, {0, UX("a")}, {1, UX("b")}}
	grid := s.Grid(sys)
	if !strings.Contains(grid, "T1:") || !strings.Contains(grid, "T2:") {
		t.Errorf("grid missing rows:\n%s", grid)
	}
	lines := strings.Split(strings.TrimRight(grid, "\n"), "\n")
	if len(lines) != 2 {
		t.Errorf("want 2 rows, got %d:\n%s", len(lines), grid)
	}
	if Schedule(nil).Grid(sys) != "(empty schedule)" {
		t.Error("empty schedule rendering")
	}
}

func TestScheduleStringAndSteps(t *testing.T) {
	s := Schedule{{0, LX("a")}, {1, R("b")}}
	if got := s.String(); got != "T0:(LX a) T1:(R b)" {
		t.Errorf("String = %q", got)
	}
	steps := s.Steps()
	if len(steps) != 2 || steps[0] != LX("a") || steps[1] != R("b") {
		t.Errorf("Steps = %v", steps)
	}
}

func TestSerialHelper(t *testing.T) {
	t1 := NewTxn("T1", LX("a"), UX("a"))
	t2 := NewTxn("T2", LX("b"), UX("b"))
	s := Serial([]TID{1, 0}, []Txn{t2.Prefix(1), t1})
	want := Schedule{{1, LX("b")}, {0, LX("a")}, {0, UX("a")}}
	if len(s) != len(want) {
		t.Fatalf("Serial = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Serial = %v, want %v", s, want)
		}
	}
}

func TestSystemNameDefaults(t *testing.T) {
	sys := NewSystem(nil, Txn{}, Txn{Name: "writer"})
	if sys.Name(0) != "T1" {
		t.Errorf("default name = %q, want T1", sys.Name(0))
	}
	if sys.Name(1) != "writer" {
		t.Errorf("explicit name = %q", sys.Name(1))
	}
}

// TestSerializableMatchesGraph pins the reduced-graph Serializable to
// the definition, acyclicity of the full D(S), on random step sequences
// over few entities and transactions, where cycles are common.
func TestSerializableMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ents := []Entity{"a", "b", "c"}
	cyclic := 0
	for trial := 0; trial < 3000; trial++ {
		sys := NewSystem(nil)
		for k := 1 + rng.Intn(5); k > 0; k-- {
			sys.Add(NewTxn("T"))
		}
		var s Schedule
		for k := rng.Intn(16); k > 0; k-- {
			s = append(s, Ev{T: TID(rng.Intn(len(sys.Txns))), S: Step{Op(rng.Intn(int(UnlockExclusive) + 1)), ents[rng.Intn(len(ents))]}})
		}
		want := s.Graph(sys).Acyclic()
		if !want {
			cyclic++
		}
		if got := s.Serializable(sys); got != want {
			t.Fatalf("Serializable(%s) = %v, D(S) acyclic = %v", s, got, want)
		}
	}
	if cyclic < 300 {
		t.Fatalf("only %d of 3000 random schedules were non-serializable", cyclic)
	}
}
