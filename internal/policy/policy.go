// Package policy implements the locking policies studied in the paper as
// runtime monitors: deterministic automata that accept or veto each next
// event of a schedule according to the policy's rules.
//
//   - TwoPhase: classic two-phase locking (baseline; always safe).
//   - Tree: the static tree policy of Silberschatz & Kedem [SK80]
//     (baseline for the dynamic policies).
//   - DDAG: the dynamic directed acyclic graph policy of Section 4
//     (rules L1–L5), exclusive locks only.
//   - Altruistic: altruistic locking of Salem, Garcia-Molina & Shands
//     [SGMS94] as presented in Section 5 (rules AL1–AL3).
//   - DTR: the dynamic tree policy of Croker & Maier [CM86] as presented
//     in Section 6 (rules DT0–DT3).
//   - Unrestricted: no rules at all (negative control).
//
// A monitor's Step is called only with events that already respect
// per-transaction order, legality (no conflicting locks) and properness
// (steps defined in the structural state); the monitor checks only the
// policy's own rules. Monitors are used by the safety checkers to restrict
// exploration to policy-admissible schedules and by the execution engine
// to reject (and abort) transactions that break the rules at run time.
package policy

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"locksafe/internal/model"
)

// Policy constructs runtime monitors for transaction systems.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// NewMonitor returns a fresh monitor for schedules of sys starting at
	// the system's initial state.
	NewMonitor(sys *model.System) model.Monitor
}

// Violation is the error returned when a step breaks a policy rule.
type Violation struct {
	Policy string
	Rule   string
	Ev     model.Ev
	Why    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s: rule %s violated by %s: %s", v.Policy, v.Rule, v.Ev, v.Why)
}

// tracker is the bookkeeping shared by all monitors: one row per
// transaction with its position, held locks and locked-ever set.
//
// The transaction population of a long-lived executor only grows, so
// neither growing nor forking may cost a pass over every row's
// contents. Rows are appended in place, and a row's maps stay nil until
// the transaction first locks. A fork copies the row headers only and
// shares the maps: both sides mark every row shared, and the first
// advance of a shared row copies its maps before writing.
type tracker struct {
	sys  *model.System
	rows []row
}

// row is one transaction's tracker bookkeeping. shared marks maps that
// another tracker may still read; advance copies them before writing.
type row struct {
	pos        int
	held       map[model.Entity]model.Mode
	lockedEver map[model.Entity]bool
	shared     bool
}

func newTracker(sys *model.System) *tracker {
	t := &tracker{sys: sys}
	t.grow()
	return t
}

// clone returns a tracker that shares every row's maps with t copy-on-
// write. It writes t's shared flags, so like advance it needs exclusive
// ownership of t.
func (t *tracker) clone() *tracker {
	for i := range t.rows {
		t.rows[i].shared = true
	}
	return &tracker{sys: t.sys, rows: slices.Clone(t.rows)}
}

// grow appends never-started rows for transactions added to the system
// since construction (or the last grow), leaving existing rows
// untouched. Each tracker owns its row slice — clone copies it — so
// appending in place is invisible to forks.
func (t *tracker) grow() {
	for len(t.rows) < len(t.sys.Txns) {
		t.rows = append(t.rows, row{})
	}
}

// advance applies the event's effect on positions, held locks and
// locked-ever sets. It must be called after a monitor accepts the event,
// and it writes only the event's own row.
func (t *tracker) advance(ev model.Ev) {
	r := &t.rows[ev.T]
	r.pos++
	lock, unlock := ev.S.Op.IsLock(), ev.S.Op.IsUnlock()
	if !lock && !unlock {
		return
	}
	if r.shared {
		r.held, r.lockedEver, r.shared = maps.Clone(r.held), maps.Clone(r.lockedEver), false
	}
	if unlock {
		delete(r.held, ev.S.Ent)
		return
	}
	if r.held == nil {
		r.held = make(map[model.Entity]model.Mode)
		r.lockedEver = make(map[model.Entity]bool)
	}
	r.held[ev.S.Ent] = ev.S.Op.LockMode()
	r.lockedEver[ev.S.Ent] = true
}

// holds reports whether transaction i currently holds a lock on e.
func (t *tracker) holds(i int, e model.Entity) bool {
	_, ok := t.rows[i].held[e]
	return ok
}

// released reports whether transaction i has released a lock: every
// entity it locked is held until its unlock, so some is missing from
// the held set exactly when an unlock has run.
func (t *tracker) released(i int) bool {
	return len(t.rows[i].held) < len(t.rows[i].lockedEver)
}

// donated reports whether transaction i has unlocked e. It relies on
// the lock-once rule of the policies that ask: a locked entity that is
// no longer held was unlocked and never locked again.
func (t *tracker) donated(i int, e model.Entity) bool {
	return t.rows[i].lockedEver[e] && !t.holds(i, e)
}

// started reports whether transaction i has executed at least one event.
func (t *tracker) started(i int) bool { return t.rows[i].pos > 0 }

// finished reports whether transaction i has executed all its events.
func (t *tracker) finished(i int) bool { return t.rows[i].pos >= t.sys.Txns[i].Len() }

// active reports whether transaction i has started but not finished.
func (t *tracker) active(i int) bool { return t.started(i) && !t.finished(i) }

// anyHolds reports whether any transaction other than self currently holds
// a lock on e (self < 0 checks all transactions).
func (t *tracker) anyHolds(e model.Entity, self int) bool {
	for i := range t.rows {
		if i != self && t.holds(i, e) {
			return true
		}
	}
	return false
}

// posKey serializes the position vector; for monitors whose entire state
// is a function of positions this is a complete memoization key.
func (t *tracker) posKey() string {
	var b strings.Builder
	for i, r := range t.rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(r.pos))
	}
	return b.String()
}

// DTRForest returns the current database forest of a DTR monitor, or nil
// if m is not one. The figure walkthroughs use it to display the forest.
func DTRForest(m model.Monitor) *forestView {
	if d, ok := m.(*dtrMonitor); ok {
		return &forestView{d}
	}
	return nil
}

// forestView renders a DTR monitor's forest.
type forestView struct{ d *dtrMonitor }

// String renders the forest in the graph.Forest format.
func (v *forestView) String() string { return v.d.forest.String() }

// DDAGGraph returns the current graph of a DDAG monitor, or nil if m is
// not one.
func DDAGGraph(m model.Monitor) fmt.Stringer {
	if d, ok := m.(*ddagMonitor); ok {
		return d.g
	}
	return nil
}

// All returns every implemented policy, in presentation order.
func All() []Policy {
	return []Policy{TwoPhase{}, Tree{}, DDAG{}, DDAGSX{}, Altruistic{}, DTR{}, Unrestricted{}}
}

// ByName resolves a policy by its Name (case-insensitive); lockd's
// -policy flag and similar front doors use it.
func ByName(name string) (Policy, bool) {
	for _, p := range All() {
		if strings.EqualFold(p.Name(), name) {
			return p, true
		}
	}
	return nil, false
}

// Names lists the recognized policy names, for usage messages.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name()
	}
	return out
}

// Unrestricted is the no-rules policy: every legal proper schedule is
// admissible. Randomly locked transaction systems run under Unrestricted
// are the negative control of the policy-safety experiment.
type Unrestricted struct{}

// Name returns "unrestricted".
func (Unrestricted) Name() string { return "unrestricted" }

// NewMonitor returns a monitor that admits everything.
func (Unrestricted) NewMonitor(*model.System) model.Monitor { return model.PermissiveMonitor{} }
