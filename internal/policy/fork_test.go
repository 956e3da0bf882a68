package policy_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/workload"
)

// forkFixtures gives every policy a generator of systems whose
// transactions follow its rules, so random interleavings get far.
func forkFixtures() map[string]func(*rand.Rand) *model.System {
	cfg := workload.PolicyConfig{Txns: 6, OpsPerTxn: 3, Entities: 6, PRelease: 0.6, PStructural: 0.25}
	dcfg := workload.DDAGConfig{PolicyConfig: cfg, Layers: 3, Width: 2}
	return map[string]func(*rand.Rand) *model.System{
		"2PL":          func(rng *rand.Rand) *model.System { return workload.TwoPhaseSystemRandom(rng, cfg) },
		"unrestricted": func(rng *rand.Rand) *model.System { return workload.TwoPhaseSystemRandom(rng, cfg) },
		"altruistic":   func(rng *rand.Rand) *model.System { return workload.AltruisticSystem(rng, cfg) },
		"DTR":          func(rng *rand.Rand) *model.System { return workload.DTRSystem(rng, cfg) },
		"DDAG": func(rng *rand.Rand) *model.System {
			sys, _ := workload.DDAGSystem(rng, dcfg)
			return sys
		},
		"DDAG-SX": func(rng *rand.Rand) *model.System {
			sys, _ := workload.DDAGSXSystem(rng, dcfg, 0.5)
			return sys
		},
		"tree": func(rng *rand.Rand) *model.System { return treeSystem(rng, cfg.Txns) },
	}
}

// treeSystem builds a complete binary tree of seven nodes and
// transactions that crab down it from a random node: lock a child while
// holding its parent, then release the parent.
func treeSystem(rng *rand.Rand, txns int) *model.System {
	node := func(i int) model.Entity { return model.Entity(fmt.Sprintf("n%d", i)) }
	init := model.NewState()
	for i := 0; i < 7; i++ {
		init[node(i)] = struct{}{}
		if i > 0 {
			init[model.Entity(fmt.Sprintf("n%d->n%d", (i-1)/2, i))] = struct{}{}
		}
	}
	sys := model.NewSystem(init)
	for k := 0; k < txns; k++ {
		at := rng.Intn(7)
		steps := []model.Step{model.LX(node(at)), model.W(node(at))}
		for at < 3 && rng.Intn(3) > 0 {
			child := 2*at + 1 + rng.Intn(2)
			steps = append(steps, model.LX(node(child)), model.UX(node(at)), model.W(node(child)))
			at = child
		}
		steps = append(steps, model.UX(node(at)))
		sys.Add(model.Txn{Name: fmt.Sprintf("T%d", k+1), Steps: steps})
	}
	return sys
}

// walker drives one monitor through random legal, proper and
// admissible events, remembering what it applied.
type walker struct {
	mon model.Monitor
	rp  *model.Replay
	evs model.Schedule
}

// enabled lists the next events the replay and the monitor both admit.
func (w *walker) enabled(sys *model.System) []model.Ev {
	var out []model.Ev
	for i := range sys.Txns {
		st, ok := w.rp.NextStep(model.TID(i))
		if !ok {
			continue
		}
		ev := model.Ev{T: model.TID(i), S: st}
		if w.rp.Check(ev) == nil && w.mon.Check(ev) == nil {
			out = append(out, ev)
		}
	}
	return out
}

// step applies one random enabled event; false when none is enabled.
func (w *walker) step(t *testing.T, rng *rand.Rand, sys *model.System) bool {
	t.Helper()
	en := w.enabled(sys)
	if len(en) == 0 {
		return false
	}
	ev := en[rng.Intn(len(en))]
	if err := w.mon.Step(ev); err != nil {
		t.Fatalf("Step(%s) after a clean Check: %v", ev, err)
	}
	if err := w.rp.Do(ev); err != nil {
		t.Fatalf("replay Do(%s): %v", ev, err)
	}
	w.evs = append(w.evs, ev)
	return true
}

// walk applies up to n random enabled events.
func (w *walker) walk(t *testing.T, rng *rand.Rand, sys *model.System, n int) {
	t.Helper()
	for ; n > 0 && w.step(t, rng, sys); n-- {
	}
}

// fork returns a walker over a fork of w's monitor and a copy of its
// replay and history.
func (w *walker) fork() *walker {
	return &walker{mon: w.mon.Fork(), rp: w.rp.Clone(), evs: slices.Clone(w.evs)}
}

// replayed builds a fresh monitor and replay over sys and applies evs.
func replayed(t *testing.T, p policy.Policy, sys *model.System, evs model.Schedule) *walker {
	t.Helper()
	w := &walker{mon: p.NewMonitor(sys), rp: model.NewReplay(sys)}
	for _, ev := range evs {
		if err := w.mon.Step(ev); err != nil {
			t.Fatalf("fresh monitor rejected %s: %v", ev, err)
		}
		if err := w.rp.Do(ev); err != nil {
			t.Fatalf("fresh replay rejected %s: %v", ev, err)
		}
		w.evs = append(w.evs, ev)
	}
	return w
}

// assertLikeFresh checks w's monitor against a fresh monitor over sys
// that replayed only w's events: same Key, and the same verdict (and
// rule) on every transaction's next legal, proper event.
func assertLikeFresh(t *testing.T, p policy.Policy, sys *model.System, w *walker, what string) {
	t.Helper()
	fresh := replayed(t, p, sys, w.evs)
	if got, want := w.mon.Key(), fresh.mon.Key(); got != want {
		t.Fatalf("%s after %d events: Key %q, fresh monitor %q", what, len(w.evs), got, want)
	}
	for i := range sys.Txns {
		st, ok := w.rp.NextStep(model.TID(i))
		if !ok {
			continue
		}
		ev := model.Ev{T: model.TID(i), S: st}
		if w.rp.Check(ev) != nil {
			continue
		}
		got, want := w.mon.Check(ev), fresh.mon.Check(ev)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s after %d events: Check(%s) = %v, fresh monitor %v", what, len(w.evs), ev, got, want)
		}
		if gv, ok := got.(*policy.Violation); ok && gv.Rule != want.(*policy.Violation).Rule {
			t.Fatalf("%s after %d events: Check(%s) rule %s, fresh monitor rule %s", what, len(w.evs), ev, gv.Rule, want.(*policy.Violation).Rule)
		}
	}
}

// TestMonitorForkDiverges steps a monitor and its forks (and a fork of
// a fork) with different random event sequences, interleaved one event
// at a time so copy-on-write rows are written from every side. Each
// must behave exactly like a fresh monitor that replayed only its own
// events.
func TestMonitorForkDiverges(t *testing.T) {
	fixtures := forkFixtures()
	for _, p := range policy.All() {
		gen := fixtures[p.Name()]
		if gen == nil {
			t.Fatalf("no fixture for policy %s", p.Name())
		}
		t.Run(p.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				sys := gen(rng)
				orig := &walker{mon: p.NewMonitor(sys), rp: model.NewReplay(sys)}
				orig.walk(t, rng, sys, rng.Intn(8))
				walkers := []*walker{orig, orig.fork()}
				for round := 0; round < 40; round++ {
					if round == 5 {
						walkers = append(walkers, walkers[1].fork())
					}
					w := walkers[rng.Intn(len(walkers))]
					w.step(t, rng, sys)
					for k, w := range walkers {
						assertLikeFresh(t, p, sys, w, fmt.Sprintf("seed %d walker %d", seed, k))
					}
				}
			}
		})
	}
}

// TestMonitorForkGrow takes forks of a monitor before System.Add and
// grows them after, at different times and in different orders. A
// grown monitor must behave exactly like one built over the extended
// system that replayed the same events, including on the new
// transactions' events.
func TestMonitorForkGrow(t *testing.T) {
	fixtures := forkFixtures()
	for _, p := range policy.All() {
		gen := fixtures[p.Name()]
		t.Run(p.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				full := gen(rng)
				split := 1 + rng.Intn(len(full.Txns)-1)
				sys := model.NewSystem(full.Init, slices.Clone(full.Txns[:split])...)
				orig := &walker{mon: p.NewMonitor(sys), rp: model.NewReplay(sys)}
				orig.walk(t, rng, sys, rng.Intn(8))
				early := orig.fork()
				for _, tx := range full.Txns[split:] {
					sys.Add(tx)
				}
				late := orig.fork() // taken after the Add, before any Grow
				// Each walker's replay is rebuilt over the extended
				// system; monitors are grown one at a time, with the
				// others stepped in between.
				walkers := []*walker{orig, early, late}
				grown := make([]bool, len(walkers))
				for round := 0; round < 40; round++ {
					k := rng.Intn(len(walkers))
					w := walkers[k]
					if !grown[k] {
						w.mon.Grow()
						w.rp = replayed(t, p, sys, w.evs).rp
						grown[k] = true
						assertLikeFresh(t, p, sys, w, fmt.Sprintf("seed %d walker %d just grown", seed, k))
					}
					w.step(t, rng, sys)
					for k, w := range walkers {
						if grown[k] {
							assertLikeFresh(t, p, sys, w, fmt.Sprintf("seed %d walker %d", seed, k))
						}
					}
				}
			}
		})
	}
}
