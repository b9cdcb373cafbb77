package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns the load generator's HTTP client: keep-alive, at most
// conns connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

// do sends one request and returns status and body. body may be nil.
func do(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func classifyURL(base, q string) string {
	return fmt.Sprintf("%s/classify?top=%d&q=%s", base, top, url.QueryEscape(q))
}

// failures counts failed ops and keeps the first few reasons for the log.
type failures struct {
	mu      sync.Mutex
	n       int
	reasons []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.reasons) < 5 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
}

// panicBox carries a worker goroutine's panic back to the goroutine that
// started it. A panic on a worker would otherwise end the process without
// running main's deferred cleanup, leaving server children behind.
type panicBox struct {
	once sync.Once
	val  any
}

func (b *panicBox) catch() {
	if r := recover(); r != nil {
		b.once.Do(func() { b.val = r })
	}
}

func (b *panicBox) rethrow() {
	if b.val != nil {
		panic(b.val)
	}
}

// closedLoop is one client sending ops first … first+n−1 one after
// another, each only after the previous one answered; it returns the per-op
// latencies in milliseconds. One client, not one per core: with a single
// request in flight the server never queues behind the load generator for a
// CPU, so a median latency measures the request, not how the two cores were
// shared out that second — which on a shared host is the host's doing.
//
// The op sequence is fixed by the seed, so two commits answer the same
// stream; the faster one simply gets further down it. After every
// probeEvery-th op the client takes a host-speed sample (host may be nil):
// between two requests, so the server is idle and a sample neither feels the
// server's memory traffic nor disturbs a request.
func closedLoop(first, n int, op func(i int), host *hostProbe) []float64 {
	lat := make([]float64, n)
	for k := range lat {
		t0 := time.Now()
		op(first + k)
		lat[k] = float64(time.Since(t0)) / 1e6
		if host != nil && k%probeEvery == 0 {
			host.sample()
		}
	}
	return lat
}

// openResult is what openLoop measured for one scheduled op.
type openResult struct {
	LatencyMs float64 // answer − due time: includes any wait behind a stall
	LateMs    float64 // send − max(due, connection free): the generator's own lag
}

// openLoop sends ops on their schedule regardless of how the server is
// doing: openConns worker goroutines take the next op, sleep until it is
// due, send it. Latency is taken from the op's *due* time, so when a slow answer
// holds a connection the ops queued behind it report the wait — the
// coordinated-omission correction. LateMs isolates the generator's own
// share — oversleeping a due time, or being starved of CPU between taking
// an op and sending it. Time spent waiting for a busy connection is the
// server's doing and is not in it, so LateMs stays near zero through a
// server stall and rises only when the generator cannot keep its schedule.
func openLoop(due []int64, op func(i int)) (res []openResult, start time.Time, wall time.Duration) {
	res = make([]openResult, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	var caught panicBox
	start = time.Now()
	for w := 0; w < openConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer caught.catch()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					return
				}
				dueAt := start.Add(time.Duration(due[k]))
				ready := time.Now()
				if dueAt.After(ready) {
					sleepUntil(dueAt)
					ready = dueAt
				}
				sent := time.Now()
				op(k)
				res[k] = openResult{
					LatencyMs: float64(time.Since(dueAt)) / 1e6,
					LateMs:    float64(sent.Sub(ready)) / 1e6,
				}
			}
		}()
	}
	wg.Wait()
	caught.rethrow()
	return res, start, time.Since(start)
}

// sleepUntil returns at t, to within microseconds. time.Sleep alone
// overshoots by up to a millisecond when the process is otherwise idle (the
// runtime parks in epoll_wait, whose timeout has millisecond granularity);
// measured from due times, that would add half a millisecond of generator
// noise to ops that take a fifth of one. So sleep to just short of t, then
// yield-spin the rest.
func sleepUntil(t time.Time) {
	const spin = 1200 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
