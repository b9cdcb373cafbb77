package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachVisitsEveryIndexOnce at item counts below, at and above the worker
// count; run under -race it also shows the per-index writes do not collide.
func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 7} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 8, 1000} {
			seen := make([]int, n)
			Each(n, func(i int) { seen[i]++ })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d visited %d times", procs, n, i, c)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestEachWithMakesOneStatePerWorker: never more states than workers or
// items, and a state is never shared by two goroutines at once.
func TestEachWithMakesOneStatePerWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	type state struct{ busy atomic.Bool }
	for _, n := range []int{0, 1, 3, 500} {
		var made atomic.Int64
		var total atomic.Int64
		EachWith(n, func() *state {
			made.Add(1)
			return new(state)
		}, func(s *state, i int) {
			if !s.busy.CompareAndSwap(false, true) {
				t.Errorf("n %d: state shared by two running calls", n)
			}
			total.Add(int64(i) + 1)
			s.busy.Store(false)
		})
		if got, limit := made.Load(), int64(min(4, n)); got > limit {
			t.Errorf("n %d: %d states made, want ≤ %d", n, got, limit)
		}
		if want := int64(n) * int64(n+1) / 2; total.Load() != want {
			t.Errorf("n %d: index sum %d, want %d", n, total.Load(), want)
		}
	}
}
