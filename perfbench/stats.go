package main

import (
	"math"
	"sort"
	"strconv"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pooledQuantile is the q-quantile of every round's samples together.
// The medians use it: they rest on all samples, and cold latencies,
// which cluster by the size of the run, leave gaps that a median of
// per-round medians jumps across.
func pooledQuantile(rounds [][]float64, q float64) float64 {
	var all []float64
	for _, xs := range rounds {
		all = append(all, xs...)
	}
	return quantile(all, q)
}

// roundQuantile returns the median over service rounds of each round's
// q-quantile.  The tails use it: a slow spell of the host then moves one
// round's tail instead of the pooled tail.  Rounds without samples are
// skipped.
func roundQuantile(rounds [][]float64, q float64) float64 {
	var qs []float64
	for _, xs := range rounds {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

// medianOf is the median of f over items.
func medianOf[T any](items []T, f func(T) float64) float64 {
	xs := make([]float64, len(items))
	for i, it := range items {
		xs[i] = f(it)
	}
	return median(xs)
}

// typicalPass assembles a pass from its runs' medians: the sum, over
// the slots the passes ran, of f's median over the slot's runs times
// the slot's mean number of runs per pass.  A pass-level median would
// rest on a handful of passes; this one rests on every run, so a slow
// spell of the host moves it less.
func typicalPass(passes []pass, f func(runCost) float64) float64 {
	bySlot := map[string][]float64{}
	for _, p := range passes {
		for _, r := range p.runs {
			bySlot[r.slot] = append(bySlot[r.slot], f(r))
		}
	}
	slots := make([]string, 0, len(bySlot))
	for s := range bySlot {
		slots = append(slots, s)
	}
	sort.Strings(slots) // a fixed summation order
	sum := 0.0
	for _, s := range slots {
		xs := bySlot[s]
		sum += median(xs) * float64(len(xs)) / float64(len(passes))
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histogramQuantile estimates the q-quantile, in the bounds' unit, of a
// cumulative histogram whose last bucket is +Inf, interpolating
// linearly inside the bucket that holds it.
func histogramQuantile(bounds []string, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	target := q * cum[len(cum)-1]
	lo, below := 0.0, 0.0
	for i, c := range cum {
		hi, err := strconv.ParseFloat(bounds[i], 64)
		if err != nil || math.IsInf(hi, 1) { // no upper edge to interpolate toward
			return lo
		}
		if c >= target {
			return lo + (hi-lo)*ratio(target-below, c-below)
		}
		lo, below = hi, c
	}
	return lo
}
