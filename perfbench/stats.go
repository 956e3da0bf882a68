package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must
// have beyond it; a tail with fewer is refused rather than reported.
const minBeyond = 10

// median returns the median of xs (the mean of the two middle values
// for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// favourable returns the quartile of per-run figures on the better
// side: the 25th percentile (nearest rank) of a lower-is-better figure,
// the 75th of a higher-is-better one. The host's speed drifts in phases
// longer than a run, and this quartile estimates the program on the
// undisturbed machine where a median would follow the phases.
func favourable(xs []float64, lowerIsBetter bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	q := 0.75
	if lowerIsBetter {
		q = 0.25
	}
	return sortedCopy(xs)[rank(q, len(xs))-1]
}

// rank returns the 1-based nearest rank of quantile q in n samples:
// the smallest r with r >= q*n.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile is one reported percentile: its value, how many samples it
// was taken from, and how many samples lie beyond its rank.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank q-quantile of xs. It refuses a
// tail (q > 0.5) with fewer than minBeyond samples beyond its rank.
func percentile(xs []float64, q float64) (quantile, error) {
	n := len(xs)
	if n == 0 {
		return quantile{}, fmt.Errorf("percentile %g of no samples", q)
	}
	r := rank(q, n)
	out := quantile{Value: sortedCopy(xs)[r-1], N: n, Beyond: n - r}
	if q > 0.5 && out.Beyond < minBeyond {
		return out, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, out.Beyond, minBeyond)
	}
	return out, nil
}

// p50p99 returns the median and p99 of latencies, in ms.
func p50p99(ds []time.Duration) ([2]quantile, error) {
	xs := durs(ds, ms)
	p50, err := percentile(xs, 0.5)
	if err != nil {
		return [2]quantile{}, err
	}
	p99, err := percentile(xs, 0.99)
	return [2]quantile{p50, p99}, err
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a reported quotient with its numerator and base, so every
// per-commit figure can be traced back to the counts it came from.
type ratio struct {
	Num, Base float64
}

// Value returns Num/Base, or 0 for an empty base (nothing happened to
// divide by: no aborts for replayed-per-abort, no opens for growth).
func (r ratio) Value() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Num / r.Base
}

// ms and us convert durations to the float units the report uses.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durs converts durations to float samples in the given unit.
func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// tailRate returns the commit rate over the final quarter of a run's
// transactions, from the sorted offsets at which commits were
// acknowledged: commits after the three-quarter mark divided by the
// time from that mark to the last commit.
func tailRate(commitAt []time.Duration) ratio {
	n := len(commitAt)
	if n < 4 {
		return ratio{}
	}
	from := n - n/4 - 1
	return ratio{Num: float64(n - 1 - from), Base: (commitAt[n-1] - commitAt[from]).Seconds()}
}

// rateSeries returns the commit rate of each consecutive window of
// `window` commits, from sorted commit offsets: the lifetime-growth
// curve of one run.
func rateSeries(commitAt []time.Duration, window int) []float64 {
	var out []float64
	prev := time.Duration(0)
	for end := window; end <= len(commitAt); end += window {
		t := commitAt[end-1]
		if span := t - prev; span > 0 {
			out = append(out, float64(window)/span.Seconds())
		}
		prev = t
	}
	return out
}

// growth compares the median of the last tenth of xs (in the order
// given) to the median of the first tenth.
func growth(xs []float64) ratio {
	k := len(xs) / 10
	if k == 0 {
		return ratio{}
	}
	return ratio{Num: median(xs[len(xs)-k:]), Base: median(xs[:k])}
}
