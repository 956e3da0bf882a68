// Package chaos injects faults into the lockd service under test: a
// TCP proxy that sits between pkg/client and a lockd server and can
// kill connections mid-body, delay traffic, truncate frames at exact
// byte granularity and stall the request stream past the session lease
// — all without touching the server — plus an in-process SessionPlan
// that inflicts the session-level analogues (mid-flight cancellation)
// on a runtime.Engine driven directly. The E18 chaos-corpus
// experiment (internal/experiments/e18.go) and the CI chaos job point
// the workload scenario corpus (internal/workload) through both.
//
// Fault plans are deterministic values: the proxy asks its PlanFor
// callback for the accepted connection's plan by accept index, and a
// plan's thresholds are byte counts on the stream its Direction selects
// (client→server by default, server→client for response-path faults),
// so a given (seed, plan) cuts the same byte of the same frame every
// run of the same schedule. The server needs no cooperation — a killed
// connection exercises exactly the teardown path a real client crash
// does, which is the point.
package chaos

import (
	"time"
)

// Direction selects which half of a relayed connection a plan's faults
// apply to. The zero value is the request stream (client→server), the
// original fault surface; ServerToClient turns the same kill/delay/
// stall machinery on the response stream, so a plan can cut a response
// frame mid-byte — the client-side analogue of a truncated request.
type Direction int

const (
	// ClientToServer injects faults on the request stream (default).
	ClientToServer Direction = iota
	// ServerToClient injects faults on the response stream; the request
	// stream relays transparently.
	ServerToClient
)

// Plan is one connection's fault schedule. All byte thresholds count
// relayed bytes in the plan's Direction (client→server by default);
// the zero value is a transparent relay.
type Plan struct {
	// Direction selects the faulty half of the connection; the other
	// half always relays transparently, so corruption on it is always
	// attributable to a cut on the faulty side.
	Direction Direction
	// KillAfter kills the connection — both directions, abruptly —
	// once this many client→server bytes have been relayed. The cut is
	// byte-exact and deliberately lands mid-frame when the threshold
	// falls inside one: the server sees a truncated frame (header-only,
	// or an array element cut short), the client sees its in-flight
	// requests die with unknown outcomes. 0 = never.
	KillAfter int64
	// Delay is inserted into the relay every DelayEvery client→server
	// bytes, simulating a slow or congested link. DelayEvery = 0
	// disables.
	DelayEvery int64
	Delay      time.Duration
	// Stall pauses the client→server relay once, after StallAfter
	// bytes. A stall longer than the server's session lease turns the
	// connection's idle sessions over to the lease reaper while the
	// client still believes them open. StallAfter = 0 disables.
	StallAfter int64
	Stall      time.Duration
}

// Faulty reports whether the plan injects anything.
func (p Plan) Faulty() bool {
	return p.KillAfter > 0 || (p.DelayEvery > 0 && p.Delay > 0) || (p.StallAfter > 0 && p.Stall > 0)
}

// String summarizes the plan for experiment tables.
func (p Plan) String() string {
	if !p.Faulty() {
		return "clean"
	}
	s := ""
	add := func(part string) {
		if s != "" {
			s += "+"
		}
		s += part
	}
	if p.KillAfter > 0 {
		add("kill")
	}
	if p.DelayEvery > 0 && p.Delay > 0 {
		add("delay")
	}
	if p.StallAfter > 0 && p.Stall > 0 {
		add("stall")
	}
	if p.Direction == ServerToClient {
		s = "s2c:" + s
	}
	return s
}

// SessionPlan is the in-process fault plan: when a harness drives
// scenarios straight into a runtime.Engine (no TCP, no proxy),
// the transport fault it can still inflict is the one the server
// inflicts on behalf of a dead connection — Session.Cancel from another
// goroutine, racing whatever the session is doing. Deterministic by
// opened-session index, like the proxy's accept-index plans.
type SessionPlan struct {
	// CancelEvery fates every Nth opened session (1-based multiples) to
	// be cancelled mid-flight. 0 = never.
	CancelEvery int
	// CancelDelay is how long after open the cancel fires.
	CancelDelay time.Duration
}

// ShouldCancel reports whether the i-th opened session (0-based) is
// fated to be cancelled.
func (p SessionPlan) ShouldCancel(i int) bool {
	return p.CancelEvery > 0 && i%p.CancelEvery == p.CancelEvery-1
}

// Arm schedules the fated cancellation of the i-th opened session and
// returns the timer (nil if the session is not fated), so a harness
// can Stop it after the session finishes naturally.
func (p SessionPlan) Arm(i int, cancel func()) *time.Timer {
	if !p.ShouldCancel(i) {
		return nil
	}
	return time.AfterFunc(p.CancelDelay, cancel)
}
