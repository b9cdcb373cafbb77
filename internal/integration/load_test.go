// Chaos and load scenarios: drive the real payg-server binary with the
// closed-loop driver of driver_test.go and hold it to explicit SLO gates —
// bounded error rate, bounded p99, every acked ingest served by name — while
// injecting the failures operators actually see (source blackouts,
// recluster storms, leader crashes). Gated behind PAYG_INTEGRATION=1 like
// the rest of this package.
package integration

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// SLO gates for the chaos scenarios. The p99 ceiling is deliberately
// generous: CI runs this on one shared CPU with the server, driver, and
// recluster storms all competing for it. The point is catching cliffs
// (timeouts, stalls, lost writes), not benchmarking.
const (
	sloMaxErrorRate = 0.01 // transport + 5xx
	sloMaxP99       = 2 * time.Second
)

var loadSecs = flag.Float64("load-secs", 4, "duration of each chaos load scenario in seconds")

// sharedBin compiles cmd/payg-server once for all load tests in the
// package run; the per-test t.TempDir would delete it out from under
// later tests. The directory lives until the OS cleans its temp space.
var sharedBin = struct {
	once sync.Once
	path string
	err  error
}{}

func loadTestBinary(t *testing.T) string {
	t.Helper()
	sharedBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "payg-loadtest")
		if err != nil {
			sharedBin.err = err
			return
		}
		sharedBin.path = buildServerBinary(t, dir)
	})
	if sharedBin.err != nil {
		t.Fatal(sharedBin.err)
	}
	return sharedBin.path
}

func integrationGate(t *testing.T) {
	t.Helper()
	if os.Getenv("PAYG_INTEGRATION") != "1" {
		t.Skip("set PAYG_INTEGRATION=1 to run integration tests")
	}
}

// startLoadServer starts a payg-server with synthetic data attached and
// drift-triggered rebuilds disabled (scenarios script their own
// reclusters), plus any extra flags.
func startLoadServer(t *testing.T, extra ...string) *serverProc {
	t.Helper()
	bin := loadTestBinary(t)
	work := t.TempDir()
	schemaPath := filepath.Join(work, "schemas.txt")
	if err := os.WriteFile(schemaPath, []byte(schemasFile), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	args := append([]string{
		"-in", schemaPath,
		"-addr", addr,
		"-tuples", "20",
		"-drift-threshold", "-1",
	}, extra...)
	p := startServer(t, bin, args...)
	t.Cleanup(p.stop)
	p.base = "http://" + addr
	waitHealthy(t, p)
	return p
}

// checkSLO applies the availability and latency gates to a finished
// scenario. Client errors (4xx) are reported but not gated — domain ids a
// recluster or a feedback renumbered are stale, and a 400 is correct.
func checkSLO(t *testing.T, r *loadRun) {
	t.Helper()
	requests, failed := 0, 0
	for k := range r.kinds {
		ks := &r.kinds[k]
		n := 0
		for status, c := range ks.status {
			n += c
			if status == 0 || status >= 500 {
				failed += c
			}
		}
		if n == 0 {
			continue
		}
		requests += n
		tail := p99(ks.latencies)
		t.Logf("  %-14s n=%-5d p99=%v statuses=%v", kindNames[k], n, tail.Round(time.Microsecond), ks.status)
		if tail > sloMaxP99 {
			t.Errorf("scenario %q %s: p99 %v breaches SLO %v", r.name, kindNames[k], tail, sloMaxP99)
		}
	}
	t.Logf("scenario %q: %d requests in %v (%.1f req/s), %d transport errors or 5xx",
		r.name, requests, r.elapsed.Round(time.Millisecond), float64(requests)/r.elapsed.Seconds(), failed)
	if requests == 0 {
		t.Fatalf("scenario %q sent no request", r.name)
	}
	if rate := float64(failed) / float64(requests); rate > sloMaxErrorRate {
		t.Errorf("scenario %q: error rate %.4f breaches SLO %v; logs may show why", r.name, rate, sloMaxErrorRate)
	}
}

// checkAckedByName forces a recluster, which folds every pending arrival
// into the served model, and requires each ingest the server answered 202
// to be a member of a domain in GET /domains, by name.
func checkAckedByName(t *testing.T, base string, r *loadRun) {
	t.Helper()
	if len(r.acked) == 0 {
		t.Fatalf("scenario %q acked no ingest; there is nothing to check", r.name)
	}
	resp, err := http.Post(base+"/admin/recluster", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Pending int `json:"pending_schemas"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || st.Pending != 0 {
		t.Fatalf("POST /admin/recluster after %q: status %d, %d pending, %v", r.name, resp.StatusCode, st.Pending, err)
	}
	var domains []wireDomain
	getJSON(t, base+"/domains", &domains)
	served := map[string]bool{}
	for _, d := range domains {
		for _, s := range d.Schemas {
			served[s.Name] = true
		}
	}
	var lost []string
	for _, name := range r.acked {
		if !served[name] {
			lost = append(lost, name)
		}
	}
	t.Logf("scenario %q: acked %d ingests, %d of them missing from /domains", r.name, len(r.acked), len(lost))
	if len(lost) > 0 {
		t.Errorf("scenario %q lost %d of %d acked ingests: %v", r.name, len(lost), len(r.acked), lost)
	}
}

// lostAcks is the count floor for the router, whose acks cannot all be
// checked by name: it journals an arrival no shard can take, and that one
// never reaches a domain. Every 202-acked ingest must still be held
// server-side, as a clustered schema, a pending arrival or a journaled
// one. The count can
// legitimately exceed the floor — a client-side timeout drops the response
// but the WAL kept the write — so only a deficit is a loss.
func lostAcks(t *testing.T, base string, initialSchemas int, r *loadRun) int {
	t.Helper()
	var st struct {
		Schemas int `json:"schemas"`
		Pending int `json:"pending_schemas"`
	}
	getJSON(t, base+"/healthz", &st)
	have, want := st.Schemas+st.Pending, initialSchemas+len(r.acked)
	t.Logf("scenario %q: acked %d ingests; server holds %d schemas+pending (floor %d)", r.name, len(r.acked), have, want)
	return max(want-have, 0)
}

// counterTotal sums a counter family's samples from GET /metrics?format=json.
func counterTotal(t *testing.T, base, family string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Families []struct {
			Name    string `json:"name"`
			Metrics []struct {
				Value *float64 `json:"value"`
			} `json:"metrics"`
		} `json:"families"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, f := range doc.Families {
		if f.Name != family {
			continue
		}
		for _, m := range f.Metrics {
			if m.Value != nil {
				total += *m.Value
			}
		}
	}
	return total
}

// TestLoadSteadyState is the baseline: a healthy server under the default
// mixed workload must hold every SLO gate with nothing going wrong.
func TestLoadSteadyState(t *testing.T) {
	integrationGate(t)
	p := startLoadServer(t)
	r := runLoad(t, p.base, "steady-state", defaultMix)
	checkSLO(t, r)
	checkAckedByName(t, p.base, r)
}

// TestLoadReclusterStorm forces a full background recluster every 300ms
// while mixed traffic runs. Swaps are atomic and the journal folds into
// each new model, so availability and acked writes must hold; 4xx from
// stale domain ids are expected and excluded from the gate.
func TestLoadReclusterStorm(t *testing.T) {
	integrationGate(t)
	p := startLoadServer(t)

	stop := make(chan struct{})
	var storms int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(300 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				resp, err := http.Post(p.base+"/admin/recluster", "application/json", nil)
				if err == nil {
					resp.Body.Close()
					storms++
				}
			}
		}
	}()

	r := runLoad(t, p.base, "recluster-storm", defaultMix)
	close(stop)
	wg.Wait()
	if storms == 0 {
		t.Fatal("storm goroutine never reclustered")
	}
	t.Logf("forced %d reclusters during load", storms)

	checkSLO(t, r)
	checkAckedByName(t, p.base, r)
	if gen := healthGeneration(t, p.base); gen < 2 {
		t.Errorf("generation %d after a recluster storm; swaps are not happening", gen)
	}
}

// TestLoadSourceBlackout scripts a total source outage mid-run via the
// server's -flake flag: every synthetic source goes hard-down from t=1s
// to t=3s. The resilience path must convert that into degraded 200s
// (partial results with a degraded report), not 5xx — so the error-rate
// gate still applies, and the degraded-queries counter must move.
func TestLoadSourceBlackout(t *testing.T) {
	integrationGate(t)
	p := startLoadServer(t, "-flake", "*:down=1s+2s")

	r := runLoad(t, p.base, "source-blackout", mix{20, 5, 65, 8, 2})
	checkSLO(t, r)
	checkAckedByName(t, p.base, r)
	if degraded := counterTotal(t, p.base, "schemaflow_queries_degraded_total"); degraded == 0 {
		t.Errorf("blackout ran but schemaflow_queries_degraded_total = 0; the outage never bit (query statuses %v)",
			r.kinds[kindQuery].status)
	}
}

// TestLoadFollowerPromotionUnderLoad kills the durable leader while a
// read-only workload runs against its follower. The follower must keep
// serving reads from its last shipped snapshot through the outage, and
// converge again once the leader restarts from its WAL.
func TestLoadFollowerPromotionUnderLoad(t *testing.T) {
	integrationGate(t)
	bin := loadTestBinary(t)
	work := t.TempDir()
	schemaPath := filepath.Join(work, "schemas.txt")
	if err := os.WriteFile(schemaPath, []byte(schemasFile), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(work, "leader-data")

	leaderAddr := freeAddr(t)
	leaderArgs := []string{
		"-in", schemaPath,
		"-addr", leaderAddr,
		"-data-dir", dataDir,
		"-tuples", "0",
		"-drift-threshold", "-1",
	}
	leader := startServer(t, bin, leaderArgs...)
	t.Cleanup(leader.stop)
	leader.base = "http://" + leaderAddr
	waitHealthy(t, leader)

	followerAddr := freeAddr(t)
	follower := startServer(t, bin,
		"-addr", followerAddr,
		"-follow", leader.base,
		"-poll-interval", "100ms",
	)
	t.Cleanup(follower.stop)
	follower.base = "http://" + followerAddr
	waitHealthy(t, follower)

	// Seed a write and a recluster so the follower has a generation to track.
	postSchema(t, leader.base, "cruise1", []string{"departure port", "destination port", "price"})
	resp, err := http.Post(leader.base+"/admin/recluster", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Kill the leader partway through the read load, restart it after a
	// beat. Reads against the follower must not notice.
	done := make(chan struct{})
	var restarted *serverProc
	go func() {
		defer close(done)
		time.Sleep(time.Duration(*loadSecs * float64(time.Second) / 3))
		leader.kill(t)
		time.Sleep(500 * time.Millisecond)
		restarted = startServer(t, bin, leaderArgs...)
		restarted.base = leader.base
	}()

	// Followers have no sources (/query is 503 there) and refuse writes,
	// so the follower-side mix is classify-only.
	r := runLoad(t, follower.base, "follower-promotion", mix{4, 1, 0, 0, 0})
	<-done
	if restarted == nil {
		t.Fatal("leader never restarted")
	}
	t.Cleanup(restarted.stop)
	waitHealthy(t, restarted)

	checkSLO(t, r)

	// Convergence: after the leader recovers, the follower must reach its
	// generation again.
	leaderGen := healthGeneration(t, restarted.base)
	deadline := time.Now().Add(10 * time.Second)
	for healthGeneration(t, follower.base) < leaderGen {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck below restarted leader generation %d; follower logs:\n%s",
				leaderGen, follower.logs.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
}
