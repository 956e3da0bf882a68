package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7, 3}, 5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median modified its input: %v", in)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestRank(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want int
	}{
		{0.5, 1, 1}, {0.5, 2, 1}, {0.5, 3, 2}, {0.5, 10, 5},
		{0.99, 100, 99}, {0.99, 1000, 990}, {0.99, 1001, 991},
		{0, 5, 1}, {1, 5, 5},
	} {
		if got := rank(c.q, c.n); got != c.want {
			t.Errorf("rank(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

func TestPercentileSmallKnownInputs(t *testing.T) {
	q, err := percentile(seq(10), 0.5)
	if err != nil || q.Value != 5 || q.N != 10 || q.Beyond != 5 {
		t.Errorf("p50 of 1..10 = %+v, %v; want 5 with 5 beyond", q, err)
	}
	q, err = percentile(seq(1000), 0.99)
	if err != nil || q.Value != 990 || q.Beyond != 10 {
		t.Errorf("p99 of 1..1000 = %+v, %v; want 990 with 10 beyond", q, err)
	}
	var rep report
	rep.addQ("x_p99", "ms", q, true)
	if d := rep.metrics[0].detail; d != "n=1000, 10 beyond" {
		t.Errorf("reported p99 detail = %q, want its sample count", d)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// 999 samples leave 9 beyond the p99 rank: refused, not reported.
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was accepted with fewer than 10 beyond")
	}
	if _, err := percentile(seq(5), 0.5); err != nil {
		t.Errorf("a median needs no tail: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples was accepted")
	}
}

func TestRatioPrintsNumeratorAndBase(t *testing.T) {
	r := ratio{Num: 30, Base: 12}
	if r.Value() != 2.5 {
		t.Errorf("30/12 = %v", r.Value())
	}
	if (ratio{Num: 5}).Value() != 0 {
		t.Error("a ratio over an empty base should read 0")
	}
	var rep report
	rep.addRatio("x_per_commit", "count", r, true)
	if d := rep.metrics[0].detail; d != "30 / 12" {
		t.Errorf("reported ratio detail = %q, want numerator / base", d)
	}
}

func TestTailRate(t *testing.T) {
	// 8 commits, one per ms: the final quarter is 2 commits over the
	// 2 ms after the sixth.
	at := make([]time.Duration, 8)
	for i := range at {
		at[i] = time.Duration(i+1) * time.Millisecond
	}
	r := tailRate(at)
	if r.Num != 2 || r.Base != 0.002 || math.Abs(r.Value()-1000) > 1e-9 {
		t.Errorf("tailRate = %v, want 2 / 0.002", r)
	}
	if (tailRate(at[:3]) != ratio{}) {
		t.Error("tailRate of fewer than 4 commits should be empty")
	}
}

func TestRateSeries(t *testing.T) {
	// 10 commits: five in the first second, five in the next two.
	at := []time.Duration{}
	for i := 1; i <= 5; i++ {
		at = append(at, time.Duration(i)*200*time.Millisecond)
	}
	for i := 1; i <= 5; i++ {
		at = append(at, time.Second+time.Duration(i)*400*time.Millisecond)
	}
	got := rateSeries(at, 5)
	if len(got) != 2 || math.Abs(got[0]-5) > 1e-9 || math.Abs(got[1]-2.5) > 1e-9 {
		t.Errorf("rateSeries = %v, want [5 2.5]", got)
	}
}

func TestGrowth(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// First tenth {1,2} median 1.5, last tenth {19,20} median 19.5.
	g := growth(xs)
	if g.Num != 19.5 || g.Base != 1.5 {
		t.Errorf("growth = %v, want 19.5 / 1.5", g)
	}
	if (growth(xs[:9]) != ratio{}) {
		t.Error("growth of fewer than 10 samples should be empty")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: spTxn, start: 0, end: 100, id: 1},
		{kind: spStep, start: 10, end: 30, id: 2, parent: 1},
		{kind: spStep, start: 20, end: 50, id: 3, parent: 1},  // overlaps the first
		{kind: spStep, start: 90, end: 120, id: 4, parent: 1}, // runs past the root
		{kind: spClientWrite, start: 25, end: 45, id: 5, parent: 3},
	}
	st := selfTimes(spans)
	// root: 100 ns minus covered [10,50) and [90,100) = 50 ns.
	if got := st[spTxn.String()].SelfMS; math.Abs(got-50e-6) > 1e-12 {
		t.Errorf("txn self = %v ms, want 50 ns", got)
	}
	// kids: 20 + (30-20) + 30 = 60 ns of self time, 80 ns in total.
	if got := st[spStep.String()]; got.Spans != 3 || math.Abs(got.TotalMS-80e-6) > 1e-12 || math.Abs(got.SelfMS-60e-6) > 1e-12 {
		t.Errorf("step = %+v, want 3 spans, 80 ns total, 60 ns self", got)
	}
}
