// Package par is the build's one index fan-out: n independent items, claimed
// one at a time from a shared counter by as many goroutines as there are
// CPUs, results written by index so the worker count cannot change a byte.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) once for every i in [0, n) from min(GOMAXPROCS, n)
// goroutines, the caller being one of them, and returns when every call has.
// Items are claimed in ascending order from one counter, so skewed item costs
// balance themselves; fn must write only what index i owns.
func Each(n int, fn func(i int)) {
	EachWith(n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// EachWith is Each for work that needs scratch memory: every goroutine makes
// one state with newState and hands it to each of its calls of fn.
func EachWith[S any](n int, newState func() S, fn func(state S, i int)) {
	var claimed atomic.Int64
	work := func() {
		state := newState()
		for {
			i := int(claimed.Add(1)) - 1
			if i >= n {
				return
			}
			fn(state, i)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	if n > 0 {
		work()
	}
	wg.Wait()
}
