package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// resultLines returns the JSON result lines of a run's output, in order.
func resultLines(t *testing.T, out string) []result {
	t.Helper()
	var rs []result
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			t.Fatalf("result line is not JSON: %v\n%s", err, line)
		}
		if len(raw) != 4 {
			t.Fatalf("result line has keys %v, want exactly correct, attempted, failed, metrics", sortedKeys(raw))
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	return rs
}

// TestSmoke drives the whole harness at the smoke scale: the server is
// built, every workload runs against the real binary in both modes, every
// response is validated, and nothing is left behind. It is what keeps the
// benchmark compiling and running as the packages it calls into change.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs payg-server")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		trace string
		want  []metricSpec
	}{{"0", sp.EndToEnd}, {"1", sp.PerLayer}} {
		var stdout, stderr bytes.Buffer
		start := time.Now()
		code := run([]string{"-all", "-smoke", "-seconds", "0.5", "-seed", "3", "-trace", mode.trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace=%s: exit %d\nstderr:\n%s\nstdout:\n%s", mode.trace, code, stderr.String(), stdout.String())
		}
		if !strings.HasSuffix(strings.TrimSpace(stdout.String()), "}") {
			t.Errorf("trace=%s: the result must be the last line of standard output", mode.trace)
		}
		// classify-sharded is not among BENCHMARK.json's workloads (the
		// contract's time cap holds four), but it runs by name and must keep
		// running.
		var names []string
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
		names = append(names, "classify-sharded")
		if code := run([]string{"-workload", "classify-sharded", "-smoke", "-seconds", "0.5", "-seed", "3", "-trace", mode.trace}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace=%s classify-sharded: exit %d\nstderr:\n%s\nstdout:\n%s", mode.trace, code, stderr.String(), stdout.String())
		}
		t.Logf("trace=%s: all workloads in %v", mode.trace, time.Since(start).Round(time.Millisecond))
		rs := resultLines(t, stdout.String())
		if len(rs) != len(names) {
			t.Fatalf("trace=%s: %d result lines for %d workloads\n%s", mode.trace, len(rs), len(names), stdout.String())
		}
		for i, r := range rs {
			wl := names[i]
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("trace=%s %s: correct=%v attempted=%d failed=%d\n%s", mode.trace, wl, r.Correct, r.Attempted, r.Failed, stdout.String())
			}
			if len(r.Metrics) != len(mode.want) {
				t.Errorf("trace=%s %s: %d metrics, BENCHMARK.json lists %d", mode.trace, wl, len(r.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("trace=%s %s: metric %s missing", mode.trace, wl, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("trace=%s %s: %s in %q, want %q", mode.trace, wl, m.Name, got.Unit, m.Unit)
				case mode.trace == "0" && !(got.Value > 0):
					t.Errorf("trace=%s %s: end-to-end metric %s = %v, must never be 0", mode.trace, wl, m.Name, got.Value)
				}
			}
		}
		if mode.trace == "1" {
			checkLayerSeparation(t, names, rs)
		}
	}
	// Every child reaped, every scratch directory removed.
	if left, _ := filepath.Glob(filepath.Join(root, "bench", "out", "run-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	if out, err := exec.Command("pgrep", "-f", filepath.Join(root, "bench", "out", "run-")).Output(); err == nil && len(bytes.TrimSpace(out)) > 0 {
		t.Errorf("payg-server children left running: %s", out)
	}
	for wl := range workloads {
		if wl == "build-blocked" {
			continue // its traced run is the build replay only: no spans
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+wl+".json")); err != nil {
			t.Errorf("traced run wrote no span file for %s: %v", wl, err)
		}
	}
}

// checkLayerSeparation asserts what makes the per-layer table readable:
// a layer that is not on a workload's path reads 0 there, and the layers
// that are on it were measured.
func checkLayerSeparation(t *testing.T, names []string, rs []result) {
	t.Helper()
	by := map[string]result{}
	for i, r := range rs {
		by[names[i]] = r
	}
	zero := func(wl string, names ...string) {
		for _, n := range names {
			if v := by[wl].Metrics[n].Value; v != 0 {
				t.Errorf("%s: %s = %v, but that layer is not on this workload's path", wl, n, v)
			}
		}
	}
	positive := func(wl string, names ...string) {
		for _, n := range names {
			if v := by[wl].Metrics[n].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a measurement", wl, n, v)
			}
		}
	}
	zero("build-blocked", "classify.classify_us", "server.handler_us", "shard.router_us", "wal.append_us")
	positive("build-blocked", "feature.build_s", "candgen.pairs_s", "cluster.hac_s", "core.assign_s", "classify.new_s", "mediate.build_s", "payg.build_total_s")
	zero("classify-wide", "shard.router_us", "wal.append_us", "payg.cache_hit_us", "cluster.hac_dense_s")
	positive("classify-wide", "terms.extract_us", "feature.embed_us", "classify.classify_us", "payg.manager_miss_us", "server.handler_us", "classify.allocs", "cluster.hac_s")
	zero("classify-fuzzy", "shard.router_us", "candgen.pairs_s", "cluster.hac_s")
	positive("classify-fuzzy", "feature.embed_us", "classify.classify_us", "cluster.hac_dense_s", "feature.build_full_s")
	positive("classify-sharded", "shard.router_us", "shard.slowest_shard_us", "shard.partial_bytes", "classify.merge_us", "shard.skew")
	zero("mixed-ingest", "shard.router_us", "candgen.pairs_s")
	positive("mixed-ingest", "feature.extend_us", "ingest.assign_us", "payg.system_ingest_us", "payg.manager_ingest_us",
		"wal.append_us", "wal.bytes_per_ingest", "engine.execute_us", "payg.checkpoint_ms", "payg.recover_s", "payg.rebuild_s",
		"payg.cache_hit_us", "payg.cache_hit_ratio", "loadgen.ingest_p50_ms", "loadgen.recluster_s", "loadgen.achieved_rate", "feedback.apply_ms")
}

func TestSupervisorKillsChildrenAndRemovesScratch(t *testing.T) {
	sup, err := newSupervisor(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary")
	}
	var procs []*proc
	for i := 0; i < 2; i++ {
		p, err := sup.start("child", sleep, "60")
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	if err := os.WriteFile(sup.path("corpus.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if mb, err := procs[0].peakRSSMB(); err != nil || mb <= 0 {
		t.Errorf("peak RSS of a live child = %v MB, err %v", mb, err)
	}
	dir := sup.dir
	sup.close()
	sup.close() // every exit path may call it; the second call must be harmless
	for i, p := range procs {
		select {
		case <-p.waited:
		default:
			t.Errorf("child %d still running after close", i)
		}
		if err := p.cmd.Process.Signal(syscall.Signal(0)); err == nil {
			t.Errorf("child %d can still be signalled", i)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory survives close: %v", err)
	}
	if _, err := sup.start("late", sleep, "60"); err == nil {
		t.Error("a closed supervisor started a child")
	}
}

func TestWaitHealthyReportsEarlyExit(t *testing.T) {
	sup, err := newSupervisor(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sup.close()
	falseBin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false binary")
	}
	start := time.Now()
	if _, _, err := sup.startServer("dead", falseBin); err == nil {
		t.Fatal("a child that exits at once was reported healthy")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("an exited child must fail the health wait at once, not at the timeout")
	}
}

// The benchmark contract: in a directory holding only BENCHMARK.json and
// the benchmark's own files there is nothing to measure, and the command
// must fail without printing a result.
func TestNoResultOutsideACheckout(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "classify-wide", "-smoke"}, &stdout, &stderr); code == 0 {
		t.Error("exit 0 outside a checkout")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q outside a checkout", stdout.String())
	}
}
