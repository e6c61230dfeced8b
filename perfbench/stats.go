package main

import (
	"fmt"
	"runtime"
	"sort"
)

// Percentiles are handled in basis points (hundredths of a percent) so
// that rank arithmetic is exact: 9500 is p95, 9990 is p99.9.

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be reported at.
var tailCandidates = []int{5000, 7500, 9000, 9500, 9900, 9990, 9999}

// rank is the 1-based nearest-rank position of the bp percentile among n
// samples.
func rank(n, bp int) int {
	r := (bp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples of n that lie above the bp percentile.
func beyond(n, bp int) int { return n - rank(n, bp) }

// percentile returns the nearest-rank bp percentile of sorted samples.
func percentile(sorted []float64, bp int) float64 {
	return sorted[rank(len(sorted), bp)-1]
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it, and refuses samples too small
// for any candidate.
func tailPercentile(n int) (int, error) {
	best := -1
	for _, bp := range tailCandidates {
		if beyond(n, bp) >= minBeyond {
			best = bp
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%d samples are too few for a tail percentile (need %d beyond p50)", n, minBeyond)
	}
	return best, nil
}

// pctName renders a basis-point percentile as "p95" or "p99.9".
func pctName(bp int) string {
	if bp%100 == 0 {
		return fmt.Sprintf("p%d", bp/100)
	}
	return fmt.Sprintf("p%g", float64(bp)/100)
}

// latencySummary is a latency sample reduced to its median and one fixed
// tail percentile.
type latencySummary struct {
	N      int
	P50    float64
	TailBP int
	Tail   float64
}

// summarize reduces samples (any unit) to p50 and the tailBP percentile,
// refusing a sample too small to put minBeyond samples beyond the tail.
func summarize(samples []float64, tailBP int) (latencySummary, error) {
	best, err := tailPercentile(len(samples))
	if err != nil {
		return latencySummary{}, err
	}
	if best < tailBP {
		return latencySummary{}, fmt.Errorf("%d samples support at most %s, not the fixed %s",
			len(samples), pctName(best), pctName(tailBP))
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return latencySummary{
		N:      len(sorted),
		P50:    percentile(sorted, 5000),
		TailBP: tailBP,
		Tail:   percentile(sorted, tailBP),
	}, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// retainedHeapMB returns the live heap after two forced collections: the
// first moves sync.Pool contents to the victim cache, the second frees
// them, so only memory something still references is counted.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
