package model

// Monitor restricts schedules to those admissible under a locking policy's
// runtime rules (for example the altruistic wake rule or the DDAG policy's
// "present state of the graph" conditions). Checkers and executors drive a
// Monitor through the events of a schedule; the Monitor vetoes events that
// violate the policy.
//
// Check and Step are invoked only with events already known to respect
// per-transaction order, legality and properness.
//
// Check is the speculative half of the protocol: it reports whether ev
// would be admissible as the next event without mutating the monitor, so
// hot paths can probe candidate events without cloning monitor state.
// Step applies the event; it must veto exactly the events Check vetoes and
// must leave the monitor unchanged when it returns an error (validate
// first, then mutate). Fork returns an independent copy for search
// procedures that genuinely branch, such as checker state expansion, and
// for checkpoints. Neither side ever observes the other's later steps,
// but the copy may share per-transaction state copy-on-write, so Fork
// counts as a mutation of the original: it must not run concurrently
// with Step or with another Fork of the same monitor. Key
// returns a compact serialization of the monitor state for memoization, or
// "" to disable memoization across states containing this monitor.
//
// Footprint declares which transactions' bookkeeping and which entities'
// shared state evaluating ev (Check and Step) reads or writes, so
// concurrent executors can admit footprint-disjoint events in parallel.
// The declaration must be sound — everything the evaluation touches must
// be covered — and it must be *pure*: computable from the event and the
// monitor's static configuration (the transaction system, parsed entity
// names) alone, never from mutable monitor state, because executors call
// it before taking any lock. GlobalFootprint() is always a correct
// answer and is the expected fallback for cross-cutting rules.
//
// Grow supports long-lived executors whose transaction population is not
// known up front (the session runtime): after the caller appends
// transactions to the monitor's System (System.Add), Grow extends the
// monitor's per-transaction bookkeeping to cover them, with the new rows
// in their never-started state. Growing is append-only — existing rows
// are untouched — so a grown monitor behaves exactly like one
// constructed over the extended system with the same events applied,
// and so does a fork taken before the System.Add and grown after it. A
// monitor may be grown lazily: only one that is about to be used needs
// it. Grow costs time in the number of transactions added, not in the
// number that exist. Grow must be serialized with Check/Step/Fork by
// the caller; executors call it only while holding exclusive ownership
// of the monitor.
type Monitor interface {
	Check(ev Ev) error
	Step(ev Ev) error
	Footprint(ev Ev) Footprint
	Fork() Monitor
	Grow()
	Key() string
}

// PermissiveMonitor admits every schedule; it represents the absence of
// policy runtime rules and serves as the negative control in the policy
// experiments.
type PermissiveMonitor struct{}

// Check always succeeds.
func (PermissiveMonitor) Check(Ev) error { return nil }

// Step always succeeds.
func (PermissiveMonitor) Step(Ev) error { return nil }

// Footprint is local: the monitor reads no state at all, so only the
// executor's own per-event bookkeeping is covered.
func (PermissiveMonitor) Footprint(ev Ev) Footprint { return LocalFootprint(ev) }

// Fork returns the monitor itself (it is stateless).
func (PermissiveMonitor) Fork() Monitor { return PermissiveMonitor{} }

// Grow is a no-op: the monitor keeps no per-transaction state.
func (PermissiveMonitor) Grow() {}

// Key returns a constant: the monitor carries no state.
func (PermissiveMonitor) Key() string { return "-" }
