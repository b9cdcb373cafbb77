package main

import (
	"testing"
	"time"
)

func TestHostProbeFactorFollowsItsWindow(t *testing.T) {
	// Samples as a sampler would have logged them: a quiet host for a second,
	// then one at two thirds of the speed.
	h := &hostProbe{}
	t0 := time.Now()
	for i := 0; i < 200; i++ {
		h.at = append(h.at, t0.Add(time.Duration(i)*probeInterval))
		us := refProbeUs
		if i >= 100 {
			us = refProbeUs * 1.5
		}
		if i%17 == 0 {
			us *= 4 // the sampler itself was descheduled: a median ignores it
		}
		h.us = append(h.us, us)
	}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	if got := h.factor(at(0), at(990)); got != 1 {
		t.Errorf("quiet second: factor %v, want 1", got)
	}
	if got := h.factor(at(1000), at(1990)); got != 1/1.5 {
		t.Errorf("slow second: factor %v, want 2/3 — a duration measured there reads a third shorter at the reference speed", got)
	}
	// A window between two samples is widened to its nearest five.
	if got := h.medianUs(at(1501), at(1502)); got != refProbeUs*1.5 {
		t.Errorf("2 ms window: median %v, want the neighbouring samples' %v", got, refProbeUs*1.5)
	}
	if got := (&hostProbe{}).factor(at(0), at(10)); got != 1 {
		t.Errorf("no samples: factor %v, want 1", got)
	}
}

func TestHostProbeSamplesUntilClosed(t *testing.T) {
	h, err := startHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * probeInterval)
	h.close()
	n := len(h.us)
	if n < 5 {
		t.Fatalf("%d samples in %v at one per %v", n, 20*probeInterval, probeInterval)
	}
	if us := h.medianUs(h.at[0], h.at[n-1]); us < refProbeUs/10 || us > refProbeUs*10 {
		t.Errorf("median sample %v us: refProbeUs = %v is not this machine's order of magnitude", us, refProbeUs)
	}
	time.Sleep(3 * probeInterval)
	if len(h.us) != n {
		t.Error("sampling went on after close returned")
	}
}

func TestClosedLoopSamplesBetweenOpsWhileSamplerIsHeld(t *testing.T) {
	h, err := startHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	release := h.hold()
	time.Sleep(3 * probeInterval)
	h.mu.Lock()
	before := len(h.us)
	h.mu.Unlock()
	closedLoop(0, 4*probeEvery, func(int) { time.Sleep(100 * time.Microsecond) }, h)
	h.mu.Lock()
	got := len(h.us) - before
	h.mu.Unlock()
	if got != 4 {
		t.Errorf("%d samples over %d ops with the sampler held, want one per %d ops and none from the ticker", got, 4*probeEvery, probeEvery)
	}
	release()
	time.Sleep(5 * probeInterval)
	h.mu.Lock()
	resumed := len(h.us) - before - got
	h.mu.Unlock()
	if resumed == 0 {
		t.Error("the sampler did not resume after release")
	}
}
