package policy

import (
	"slices"
	"strconv"
	"strings"

	"locksafe/internal/model"
)

// Altruistic is the basic altruistic locking policy of Section 5 (from
// Salem, Garcia-Molina & Shands [SGMS94]), with exclusive locks only.
//
// A transaction's *locked point* is the instant it acquires its last lock.
// Ti is *in the wake of* Tj if Ti has locked an item that Tj unlocked
// earlier, and Tj has not yet reached its own locked point. Rules:
//
//	AL1  A transaction must hold a lock on an item before an INSERT,
//	     DELETE or ACCESS on it.
//	AL2  If Ti is in the wake of an active Tj, then every item locked by
//	     Ti so far must have been unlocked by Tj in the past.
//	AL3  A transaction may lock an item only once.
//
// The monitor computes each transaction's locked point statically from its
// step sequence and tracks the wake relation as the schedule unfolds; a
// wake dissolves when the donor reaches its locked point.
type Altruistic struct{}

// Name returns "altruistic".
func (Altruistic) Name() string { return "altruistic" }

// NewMonitor returns a monitor enforcing AL1–AL3.
func (Altruistic) NewMonitor(sys *model.System) model.Monitor {
	m := &altruisticMonitor{t: newTracker(sys)}
	m.Grow()
	return m
}

// altruisticMonitor keeps, beside the tracker, each transaction's static
// locked point and the donors whose wake it has entered. What Tj has
// unlocked is read off the tracker (locked and no longer held: AL3 and
// exclusive locks rule out a relock), so no per-transaction set is kept
// for it.
type altruisticMonitor struct {
	t    *tracker
	rows []altRow
}

// altRow is one transaction's altruistic bookkeeping.
type altRow struct {
	// lockedPoint is the static index just after the transaction's last
	// lock step.
	lockedPoint int
	// wake lists, ascending, the donors Tj whose wake the transaction
	// has entered. An entry for a donor at its locked point is
	// dissolved: it is ignored rather than erased. The slice is never
	// written in place (a new donor reallocates it), so forks share it.
	wake []int
}

func (m *altruisticMonitor) Fork() model.Monitor {
	return &altruisticMonitor{t: m.t.clone(), rows: slices.Clone(m.rows)}
}

// atLockedPoint reports whether Tj has reached its locked point.
func (m *altruisticMonitor) atLockedPoint(j int) bool {
	return m.t.rows[j].pos >= m.rows[j].lockedPoint
}

// Check validates AL1–AL3 without mutating the monitor. Wake entry is
// evaluated hypothetically: a lock of an item donated by an active Tj
// would put Ti in Tj's wake, so AL2 is checked against the union of the
// current and entered wakes.
func (m *altruisticMonitor) Check(ev model.Ev) error {
	i := int(ev.T)
	st := ev.S
	viol := func(rule, why string) error {
		return &Violation{"altruistic", rule, ev, why}
	}
	switch st.Op {
	case model.LockShared, model.UnlockShared:
		return viol("X-only", "basic altruistic locking uses exclusive locks only")

	case model.LockExclusive:
		if m.t.rows[i].lockedEver[st.Ent] {
			return viol("AL3", "item locked twice")
		}
		// AL2: while in the wake of Tj — including the wakes this very
		// lock would enter — everything Ti has locked, including this
		// item, must have been unlocked by Tj.
		for j := range m.rows {
			if j == i || m.atLockedPoint(j) {
				continue
			}
			donated := m.t.donated(j, st.Ent)
			if _, inWake := slices.BinarySearch(m.rows[i].wake, j); !donated && !inWake {
				continue // not in Tj's wake, and this lock would not enter it
			}
			if !donated {
				return viol("AL2", "locked an item not donated by "+m.t.sys.Name(model.TID(j))+" while in its wake")
			}
			for e := range m.t.rows[i].lockedEver {
				if !m.t.donated(j, e) {
					return viol("AL2", "previously locked item "+string(e)+" was not donated by "+m.t.sys.Name(model.TID(j)))
				}
			}
		}

	case model.UnlockExclusive:
		// Always permitted.

	case model.Insert, model.Delete, model.Read, model.Write:
		if !m.t.holds(i, st.Ent) {
			return viol("AL1", "operation without a lock")
		}
	}
	return nil
}

func (m *altruisticMonitor) Step(ev model.Ev) error {
	if err := m.Check(ev); err != nil {
		return err
	}
	if ev.S.Op == model.LockExclusive {
		i := int(ev.T)
		// Entering wakes: locking an item donated by an active Tj puts
		// Ti in Tj's wake. A transaction reaching its locked point
		// dissolves the wakes it anchors without a write: Check and Key
		// skip donors at their locked point.
		for j := range m.rows {
			if j == i || m.atLockedPoint(j) || !m.t.donated(j, ev.S.Ent) {
				continue
			}
			w := m.rows[i].wake
			if k, in := slices.BinarySearch(w, j); !in {
				m.rows[i].wake = slices.Insert(w[:len(w):len(w)], k, j)
			}
		}
	}
	m.t.advance(ev)
	return nil
}

// Grow appends rows for appended transactions: their locked points are
// computed from the declared bodies and they are in nobody's wake.
func (m *altruisticMonitor) Grow() {
	m.t.grow()
	for i := len(m.rows); i < len(m.t.rows); i++ {
		m.rows = append(m.rows, altRow{lockedPoint: m.t.sys.Txns[i].LockedPoint()})
	}
}

// Footprint: LX is global — rule AL2 reads every transaction's held and
// locked-ever sets and position, and wake entry writes the requester's
// wake row. UX writes only the unlocker's own tracker row (read
// elsewhere solely by the global LX evaluations), data operations read
// only the event's own held set (AL1), and LS/US are vetoed by the
// X-only rule without reading mutable state — all local.
func (m *altruisticMonitor) Footprint(ev model.Ev) model.Footprint {
	if ev.S.Op == model.LockExclusive {
		return model.GlobalFootprint()
	}
	return model.LocalFootprint(ev)
}

// Key: positions determine locked points and held and locked-ever sets,
// but the wake relation depends on event order, so it is part of the key.
func (m *altruisticMonitor) Key() string {
	var b strings.Builder
	b.WriteString(m.t.posKey())
	b.WriteByte('|')
	for i := range m.rows {
		for _, j := range m.rows[i].wake {
			if !m.atLockedPoint(j) {
				b.WriteString(strconv.Itoa(i))
				b.WriteByte('w')
				b.WriteString(strconv.Itoa(j))
				b.WriteByte(';')
			}
		}
	}
	return b.String()
}
