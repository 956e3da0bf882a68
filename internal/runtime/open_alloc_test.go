package runtime

import (
	"math"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
)

// TestOpenAllocsFlat pins that opening and running a session costs the
// same number of allocations however many transactions the engine has
// already served: the monitors, the recovery core and the lock-owner
// table grow by appending, so the count after 4,000 commits may exceed
// the count after 200 only by amortised slice doubling. Allocation
// counts, unlike timings, do not depend on the machine.
func TestOpenAllocsFlat(t *testing.T) {
	const slack = 2 // allocations per Open+Run
	arms := []struct {
		name  string
		pol   policy.Policy
		parts int
	}{
		{"2PL/1", policy.TwoPhase{}, 1},
		{"2PL/4", policy.TwoPhase{}, 4},
		{"altruistic/1", policy.Altruistic{}, 1},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			ents := spanningEntities(t, 4)
			e := NewSessionEngine(model.NewState(ents...), Config{Policy: arm.pol, Partitions: arm.parts})
			served := 0
			// Every fifth body spans two partitions; the rest stay in one.
			one := func() {
				a, b := ents[served%4], ents[(served+1)%4]
				tx := model.NewTxn("L", model.LX(a), model.W(a), model.UX(a))
				if served%5 == 4 {
					tx = model.NewTxn("G", model.LX(a), model.LX(b), model.W(a), model.W(b), model.UX(a), model.UX(b))
				}
				served++
				s, err := e.OpenSession(tx)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			serveTo := func(n int) {
				for served < n {
					one()
				}
			}
			serveTo(200)
			early := testing.AllocsPerRun(100, one)
			serveTo(4000)
			late := testing.AllocsPerRun(100, one)
			t.Logf("allocations per Open+Run: %.1f after 200 commits, %.1f after 4,000", early, late)
			if math.Abs(late-early) > slack {
				t.Errorf("allocations per Open+Run: %.1f after 200 commits but %.1f after 4,000 (allowed difference %d)", early, late, slack)
			}
			if _, err := e.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
