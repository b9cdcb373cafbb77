// Sharded-topology end-to-end tests: split a real single-node data dir
// with -shard-split, serve the shards with real payg-server processes,
// front them with a -route router process, and hold the topology to the
// same SLO gates as a single node — including with one shard SIGKILLed
// mid-load. Gated behind PAYG_INTEGRATION=1 like the rest of the package.
package integration

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// routerMix omits feedback: feedback through a degraded topology is a
// deliberate 502 (divergence refusal), which the driver would count
// against the error-rate SLO.
var routerMix = mix{55, 5, 30, 10, 0}

// splitDataDir runs the binary in -shard-split mode and returns the
// shard dirs.
func splitDataDir(t *testing.T, bin, srcDir string, n int) []string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "shards")
	cmd := exec.Command(bin, "-data-dir", srcDir, "-shard-split", strconv.Itoa(n), "-shard-out", out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("shard-split: %v\n%s", err, b)
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(out, "shard-"+strconv.Itoa(i))
		if _, err := os.Stat(filepath.Join(dirs[i], "shard.json")); err != nil {
			t.Fatalf("shard dir %s missing manifest: %v", dirs[i], err)
		}
	}
	return dirs
}

// startTopology builds one seeded single-node data dir, splits it two
// ways, and starts 2 shard servers plus a router. It returns the router
// proc, the shard procs, and the shard data dirs (for restarts).
func startTopology(t *testing.T) (router *serverProc, shards []*serverProc, shardDirs []string) {
	t.Helper()
	bin := loadTestBinary(t)
	work := t.TempDir()
	schemaPath := filepath.Join(work, "schemas.txt")
	if err := os.WriteFile(schemaPath, []byte(schemasFile), 0o644); err != nil {
		t.Fatal(err)
	}

	// Seed: a durable single node builds the corpus and checkpoints it.
	srcDir := filepath.Join(work, "single-data")
	seedAddr := freeAddr(t)
	seed := startServer(t, bin,
		"-in", schemaPath, "-addr", seedAddr, "-data-dir", srcDir,
		"-tuples", "20", "-drift-threshold", "-1")
	seed.base = "http://" + seedAddr
	waitHealthy(t, seed)
	seed.stop()

	shardDirs = splitDataDir(t, bin, srcDir, 2)
	shardURLs := make([]string, len(shardDirs))
	for i, dir := range shardDirs {
		addr := freeAddr(t)
		p := startServer(t, bin, "-data-dir", dir, "-addr", addr, "-tuples", "20")
		t.Cleanup(p.stop)
		p.base = "http://" + addr
		waitHealthy(t, p)
		shards = append(shards, p)
		shardURLs[i] = p.base
	}

	routerAddr := freeAddr(t)
	router = startServer(t, bin,
		"-route", shardURLs[0]+","+shardURLs[1],
		"-addr", routerAddr,
		"-data-dir", filepath.Join(work, "router-data"))
	t.Cleanup(router.stop)
	router.base = "http://" + routerAddr
	h := waitHealthy(t, router)
	if h["router"] != true || h["shards_alive"].(float64) != 2 {
		t.Fatalf("router health %v", h)
	}
	return router, shards, shardDirs
}

func getBody(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestRouterSteadyState: the sharded topology, assembled purely from
// the shipped binary (split tool + shard mode + router mode), must be
// answer-identical to a single node on reads and hold every SLO gate
// under the standard load.
func TestRouterSteadyState(t *testing.T) {
	integrationGate(t)
	router, _, _ := startTopology(t)

	// Spot-check scatter-gather fidelity against a fresh single node over
	// the same corpus (the split source dir is busy no longer; rebuild
	// from the schema file for an independent reference).
	refAddr := freeAddr(t)
	work := t.TempDir()
	schemaPath := filepath.Join(work, "schemas.txt")
	if err := os.WriteFile(schemaPath, []byte(schemasFile), 0o644); err != nil {
		t.Fatal(err)
	}
	ref := startServer(t, loadTestBinary(t),
		"-in", schemaPath, "-addr", refAddr, "-tuples", "20", "-drift-threshold", "-1")
	t.Cleanup(ref.stop)
	ref.base = "http://" + refAddr
	waitHealthy(t, ref)
	for _, q := range []string{
		"/classify?q=departure+airline",
		"/classify?q=title+author+year&top=4",
		"/domains",
	} {
		wc, want := getBody(t, ref.base, q)
		gc, got := getBody(t, router.base, q)
		if wc != gc || want != got {
			t.Errorf("router %s diverges from single node:\nrouter: %d %s\nsingle: %d %s", q, gc, got, wc, want)
		}
	}

	r := runLoad(t, router.base, "router-steady-state", routerMix)
	checkSLO(t, r)
	if lost := lostAcks(t, router.base, 4, r); lost != 0 {
		t.Errorf("router steady state lost %d acked ingests", lost)
	}
}

// TestRouterShardBlackout SIGKILLs one shard mid-load. The router must
// degrade — 200s with degraded reports, journaled 202 acks — inside the
// same SLO gates, flip its health to degraded, and recover to full
// answers once the shard restarts on its data dir.
func TestRouterShardBlackout(t *testing.T) {
	integrationGate(t)
	router, shards, shardDirs := startTopology(t)

	victim := shards[1]
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(time.Duration(*loadSecs * float64(time.Second) / 3))
		// SIGKILL without t helpers: t.Fatal is not legal off the test
		// goroutine.
		victim.cmd.Process.Kill()
		victim.cmd.Wait()
	}()

	r := runLoad(t, router.base, "router-shard-blackout", routerMix)
	<-killed

	checkSLO(t, r)
	if degraded := counterTotal(t, router.base, "schemaflow_router_degraded_responses_total"); degraded == 0 {
		t.Error("shard blackout ran but schemaflow_router_degraded_responses_total = 0; the outage never bit")
	}
	_, health := getBody(t, router.base, "/healthz")
	if !strings.Contains(health, `"status":"degraded"`) {
		t.Errorf("router health after blackout not degraded: %s", health)
	}

	// Restart the dead shard on its own data dir; the topology must heal
	// and the zero-lost-acks invariant must hold across the outage (acks
	// during it live in shard WALs or the router journal).
	addr := victim.base[len("http://"):]
	revived := startServer(t, loadTestBinary(t), "-data-dir", shardDirs[1], "-addr", addr, "-tuples", "20")
	t.Cleanup(revived.stop)
	revived.base = victim.base
	waitHealthy(t, revived)

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, health = getBody(t, router.base, "/healthz")
		if strings.Contains(health, `"shards_alive":2`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never saw the shard come back: %s", health)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if lost := lostAcks(t, router.base, 4, r); lost != 0 {
		t.Errorf("shard blackout lost %d acked ingests", lost)
	}
}
