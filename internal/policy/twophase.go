package policy

import "locksafe/internal/model"

// TwoPhase is classic two-phase locking: a transaction must acquire all its
// locks before releasing any. It is the baseline safe policy — by
// Theorem 1, a system in which every transaction is two-phase admits no
// canonical witness (condition 1 cannot hold).
type TwoPhase struct{}

// Name returns "2PL".
func (TwoPhase) Name() string { return "2PL" }

// NewMonitor returns a monitor enforcing the two-phase rule per
// transaction.
func (TwoPhase) NewMonitor(sys *model.System) model.Monitor {
	return &twoPhaseMonitor{t: newTracker(sys)}
}

// twoPhaseMonitor keeps nothing beyond the tracker: whether a
// transaction has released a lock is read off its held and locked-ever
// sets.
type twoPhaseMonitor struct {
	t *tracker
}

func (m *twoPhaseMonitor) Fork() model.Monitor {
	return &twoPhaseMonitor{t: m.t.clone()}
}

// Check vetoes a lock acquired after an unlock, without mutating the
// monitor.
func (m *twoPhaseMonitor) Check(ev model.Ev) error {
	if ev.S.Op.IsLock() && m.t.released(int(ev.T)) {
		return &Violation{"2PL", "two-phase", ev, "lock acquired after an unlock"}
	}
	return nil
}

func (m *twoPhaseMonitor) Step(ev model.Ev) error {
	if err := m.Check(ev); err != nil {
		return err
	}
	m.t.advance(ev)
	return nil
}

// Grow extends the tracker to cover appended transactions.
func (m *twoPhaseMonitor) Grow() { m.t.grow() }

// Footprint is local: the two-phase rule reads and writes only the
// event's own transaction's tracker row.
func (m *twoPhaseMonitor) Footprint(ev model.Ev) model.Footprint {
	return model.LocalFootprint(ev)
}

// Key is the position vector: held and locked-ever sets are a function
// of each transaction's executed prefix.
func (m *twoPhaseMonitor) Key() string { return m.t.posKey() }
