package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPercentile is the textbook nearest-rank definition, written the slow
// way: the smallest value with at least p % of the sample at or below it.
func refPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, v := range s {
		atOrBelow := 0
		for _, w := range s {
			if w <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= p/100*float64(len(s)) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestPercentileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(50)) // ties on purpose
		}
		s := sortedCopy(xs)
		for _, p := range []float64{1, 50, 90, 99, 99.9, 100} {
			if got, want := percentile(s, p), refPercentile(xs, p); got != want {
				t.Errorf("n=%d p=%v: got %v, reference %v", n, p, got, want)
			}
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must read 0")
	}
}

func TestSliceQuartileIgnoresASlowStretch(t *testing.T) {
	// 20,000 ops at 1 ms; a neighbour doubles every latency for 60 % of the
	// run — more than a median over slices would survive.
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 1
		if i >= 3000 && i < 15000 {
			xs[i] = 2
		}
	}
	for _, p := range []float64{50, 99} {
		if got, n := sliceQuartile(xs, 2000, p, nil); got != 1 || n != 10 {
			t.Errorf("p%v: %v over %d slices, want 1 over 10: the quietest quarter of the run sets the number", p, got, n)
		}
	}
	if got := percentile(sortedCopy(xs), 50); got != 2 {
		t.Errorf("whole-run median = %v: the slow stretch should be visible there", got)
	}
}

func TestSliceQuartileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 16500) // 8 slices; the remainder of 500 is left out
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	var vals []float64
	for s := 0; s < 8; s++ {
		vals = append(vals, refPercentile(xs[s*2000:(s+1)*2000], 99))
	}
	got, n := sliceQuartile(xs, 2000, 99, nil)
	if want := refPercentile(vals, 25); got != want || n != 8 {
		t.Errorf("got %v over %d slices, reference %v over 8", got, n, want)
	}
	if got, n := sliceQuartile(xs[:3], 2000, 50, nil); got != refPercentile(xs[:3], 50) || n != 1 {
		t.Errorf("fewer samples than a slice: got %v over %d, want the whole sample's percentile over 1", got, n)
	}
}

func TestSliceQuartileScalesEachSliceByItsOwnFactor(t *testing.T) {
	// The host runs at half speed through slices 1–3: every latency there
	// doubles, and so does the probe, so the factor for those slices is ½ and
	// no slice reads slower than another.
	xs := make([]float64, 8000)
	for i := range xs {
		xs[i] = 1
		if i >= 2000 {
			xs[i] = 2
		}
	}
	scale := func(lo, hi int) float64 {
		if hi-lo != 2000 || lo%2000 != 0 {
			t.Fatalf("scale asked about ops %d–%d, want whole slices of 2000", lo, hi)
		}
		if lo >= 2000 {
			return 0.5
		}
		return 1
	}
	if got, _ := sliceQuartile(xs, 2000, 50, scale); got != 1 {
		t.Errorf("scaled: %v, want 1", got)
	}
	if got, _ := sliceQuartile(xs[2000:], 2000, 50, nil); got != 2 {
		t.Errorf("unscaled: %v, want 2 as the clock read", got)
	}
}

// Values from Python: statistics.quantiles(v, n=4) on each sample.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		// quantiles → [2.75, 5.5, 8.25]; (8.25−2.75)/5.5 = 1
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1},
		// quantiles → [10.075, 10.25, 10.525]; 0.45/10.25
		{[]float64{10.4, 10.1, 9.9, 10.3, 10.0, 10.2, 11.0, 10.1, 10.6, 10.5}, 0.45 / 10.25},
		// three values: [1, 2, 4] → q1 = 1, q2 = 2, q3 = 4
		{[]float64{2, 4, 1}, 1.5},
	} {
		if got := spread(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if spread([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
}
