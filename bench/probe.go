package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// hostProbe times a fixed piece of memory-bound work every few milliseconds
// for as long as a run lasts, so every duration the run measures can be read
// against how fast the host was while it was measured.
//
// The machine is a two-vCPU guest on a shared host. Its arithmetic speed is
// constant, but what a cache miss costs moves by tens of percent for minutes
// at a time with what the neighbours do to the shared L3 and the memory
// controllers, and every timing of schemaflow — latency, CPU time, build,
// set-up — moves with it, by more than any bound worth gating on. No
// statistic taken inside one run removes a shift that outlasts the run; a
// reference measured through the same seconds does. The probe sums 512 KB
// of a 64 MB table, a fresh stretch each time, so like the server's heap its
// lines are in the L3 while the host is quiet and come from DRAM when
// neighbours have evicted them. Over runs spanning quiet and busy regimes the
// logarithm of a classify latency follows the probe's with slope 1.1–1.3
// (correlation 0.7–0.9), and dividing by the probe cuts the run-to-run range
// of classify-wide's median from 27 % to 9 %.
//
// The probe is the benchmark's own code and does not change with the
// program under test: a faster commit reads faster by the same factor. Where
// the program runs beside the sampler (set-up, payg.Build, the open loop) its
// own memory traffic slows a sample a little, so a change in that traffic is
// under-read by a few percent; the closed loops, where that could matter
// most, sample between requests instead, while the server is idle.
type hostProbe struct {
	mu    sync.Mutex // held for the whole of a sample
	table []float64
	free  func() // unmaps table
	off   int
	sink  float64
	held  bool        // the sampler is paused: a closed loop samples between its ops
	at    []time.Time // when each sample was taken, ascending
	us    []float64   // what it took, microseconds

	stop, done chan struct{}
}

const (
	probeTable    = 8 << 20  // float64s: 64 MB
	probeStretch  = 64 << 10 // float64s summed per sample: 512 KB
	probeInterval = 10 * time.Millisecond
	probeEvery    = 16 // ops between a closed loop's samples: about 10 ms too

	// refProbeUs is the probe's time on a quiet host, the speed all
	// timings are stated at. Frozen with the baseline; changing it rescales
	// every timing metric.
	refProbeUs = 80.0
)

func startHostProbe() (*hostProbe, error) {
	table, free, err := offHeapFloats(probeTable)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	h := &hostProbe{
		table: table,
		free:  free,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range h.table {
		h.table[i] = float64(i & 7)
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.mu.Lock()
				if !h.held {
					h.sampleLocked()
				}
				h.mu.Unlock()
			}
		}
	}()
	return h, nil
}

func (h *hostProbe) sampleLocked() {
	t0 := time.Now()
	sum := 0.0
	for _, v := range h.table[h.off : h.off+probeStretch] {
		sum += v
	}
	h.us = append(h.us, float64(time.Since(t0))/1e3)
	h.at = append(h.at, t0)
	h.off = (h.off + probeStretch) % probeTable
	h.sink += sum // keeps the loop from being optimised away
}

// sample takes one sample now, on the caller's goroutine.
func (h *hostProbe) sample() {
	h.mu.Lock()
	h.sampleLocked()
	h.mu.Unlock()
}

// hold pauses the sampler until the returned function is called; in between
// the caller samples when it chooses.
func (h *hostProbe) hold() (release func()) {
	h.mu.Lock()
	h.held = true
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		h.held = false
		h.mu.Unlock()
	}
}

// close stops sampling, waits for the sampler to end and releases the
// table; the samples taken stay readable.
func (h *hostProbe) close() {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	h.table = nil
	h.free()
	h.mu.Unlock()
}

// medianUs is the median sample taken between t0 and t1. A window too short
// to hold five samples is widened to the nearest five.
func (h *hostProbe) medianUs(t0, t1 time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	lo := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(t0) })
	hi := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(t1) })
	for hi-lo < 5 && (lo > 0 || hi < len(h.at)) {
		if lo > 0 {
			lo--
		}
		if hi < len(h.at) {
			hi++
		}
	}
	if hi == lo {
		return refProbeUs // no sample at all: a run shorter than one interval
	}
	return median(h.us[lo:hi])
}

// factor is what a duration measured between t0 and t1 is multiplied by to
// read as it would on the reference host.
func (h *hostProbe) factor(t0, t1 time.Time) float64 {
	return refProbeUs / h.medianUs(t0, t1)
}
