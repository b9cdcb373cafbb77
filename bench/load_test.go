package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// An open-loop generator must charge a server stall to every op that was
// due while the server sat on both connections, and must not count that
// wait as its own lateness.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const (
		stall    = 200 * time.Millisecond
		interval = 5 * time.Millisecond
		n        = 120
		stallAt  = 20 // the op index that triggers the stall
	)
	var mu sync.Mutex
	var stalledUntil time.Time
	seen := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen++
		if seen == stallAt+1 {
			stalledUntil = time.Now().Add(stall)
		}
		until := stalledUntil
		mu.Unlock()
		// Every request in flight during the window waits it out: the
		// server is stalled, not one connection.
		if d := time.Until(until); d > 0 {
			time.Sleep(d)
		}
	}))
	defer srv.Close()

	client := newClient(openConns)
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(i) * int64(interval)
	}
	res, _, _ := openLoop(due, func(int) {
		if status, _, err := do(client, http.MethodGet, srv.URL, nil); err != nil || status != http.StatusOK {
			t.Errorf("status %d: %v", status, err)
		}
	})

	// Ops before the stall are fast.
	for i := 0; i < stallAt; i++ {
		if res[i].LatencyMs > 50 {
			t.Errorf("op %d before the stall took %.1f ms", i, res[i].LatencyMs)
		}
	}
	// An op due k intervals into the stall could not be sent until the
	// stall ended; measured from its due time it waited the remainder.
	for _, k := range []int{4, 10, 20} {
		i := stallAt + k
		want := float64(stall-time.Duration(k)*interval) / 1e6
		if got := res[i].LatencyMs; got < want-15 || got > want+80 {
			t.Errorf("op %d, due %d ms into the stall: latency %.1f ms, want about %.0f (the wait must be reported)", i, k*5, got, want)
		}
	}
	// The generator itself never fell behind: the ops that sat out the stall
	// waited for a connection, which is not lateness. (Median, so a stray
	// scheduling hiccup on the test machine cannot fail this.)
	var late []float64
	for i := stallAt + 2; i < stallAt+30; i++ {
		late = append(late, res[i].LateMs)
	}
	if m := median(late); m > 2 {
		t.Errorf("ops queued behind the stall report a median lateness of %.2f ms: the generator's own lag must stay near zero through a server stall", m)
	}
	// And it caught up: the tail of the run is fast again.
	for i := n - 10; i < n; i++ {
		if res[i].LatencyMs > 50 {
			t.Errorf("op %d, long after the stall, took %.1f ms", i, res[i].LatencyMs)
		}
	}
}

func TestSleepUntilIsExact(t *testing.T) {
	var over []float64
	for i := 0; i < 21; i++ {
		target := time.Now().Add(3300 * time.Microsecond)
		sleepUntil(target)
		if time.Now().Before(target) {
			t.Fatal("returned early")
		}
		over = append(over, float64(time.Since(target))/1e3)
	}
	// The median, not the worst: a busy test machine may deschedule the
	// spin once, but a plain time.Sleep overshoots by ~500 µs every time.
	if m := median(over); m > 200 {
		t.Errorf("median overshoot %.0f µs; sleepUntil must land within tens of microseconds", m)
	}
}

func TestClosedLoopRunsItsStretchInOrder(t *testing.T) {
	var ran []int
	lat := closedLoop(10, 40, func(i int) {
		ran = append(ran, i)
		if i == 12 {
			time.Sleep(5 * time.Millisecond)
		}
	}, nil)
	if len(lat) != 40 || len(ran) != 40 {
		t.Fatalf("ran %d ops (%d latencies), want exactly 40", len(ran), len(lat))
	}
	for k, i := range ran {
		if i != 10+k {
			t.Fatalf("op %d ran in position %d: one client sends the stream in order", i, k)
		}
	}
	if lat[2] < 5 || lat[3] > 4 {
		t.Errorf("latencies %.2f, %.2f ms around the one 5 ms op: each op is timed on its own", lat[2], lat[3])
	}
}

func TestOpenLoopRethrowsWorkerPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the worker's panic on the caller's goroutine", r)
		}
	}()
	openLoop(make([]int64, 10), func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
	t.Fatal("openLoop returned")
}
