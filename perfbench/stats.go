package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to mean anything: with fewer, one unlucky sample moves it.
const minTail = 10

// percentile returns the nearest-rank p-quantile of sorted (0 < p ≤ 1):
// the smallest sample with at least p·n samples at or below it. An empty
// set reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[min(max(nearestRank(p, n), 1), n)-1]
}

// nearestRank is the 1-based rank of the p-quantile among n samples. The
// epsilon keeps p·n that is a whole number in theory (0.95·200) from
// rounding up a rank in floating point.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// highestTail picks the highest candidate percentile that leaves at least
// minTail samples beyond its nearest rank among n samples; 0 when even the
// median does not.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= minTail {
			return p
		}
	}
	return 0
}

// sample is one set of timings in milliseconds.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// opTally counts the user-visible operations of a run (exec, wait,
// migrate) and how many of them failed. An operation still unfinished
// when the run ends is counted as failed: the user never got an answer.
type opTally struct {
	Attempted, Failed int
}

// tally classifies the benchmark's own operation spans.
func tally(spans []span) opTally {
	var t opTally
	for _, s := range spans {
		if !s.userOp() {
			continue
		}
		t.Attempted++
		if s.failed() {
			t.Failed++
		}
	}
	return t
}

// share is Failed/Attempted (0 when nothing was attempted).
func (t opTally) share() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetricDefs rejects metric names and units outside the character
// sets the result format allows, and names used twice.
func checkMetricDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q: want a letter or digit, then up to 63 of [A-Za-z0-9_.-]", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}
