package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"within bound", lower, steady, []float64{10.8, 10.9, 10.7, 10.85, 10.75}, "ok"},
		{"past bound", lower, steady, []float64{11.5, 11.6, 11.4, 11.55, 11.45}, "worse"},
		{"much better is ok", lower, steady, []float64{5, 5.1, 4.9, 5.05, 4.95}, "ok"},
		{"higher-better drop", higher, steady, []float64{8.5, 8.6, 8.4, 8.55, 8.45}, "worse"},
		{"higher-better rise", higher, steady, []float64{12, 12.1, 11.9, 12.05, 11.95}, "ok"},
		// Spread wider than the bound: a 5 % shift cannot be told from noise.
		{"noisy", lower, []float64{8, 10, 12, 9, 11}, []float64{8.5, 10.5, 12.5, 9.5, 11.5}, "unresolved"},
		// …unless every run of b beats every run of a.
		{"noisy but disjoint", lower, []float64{8, 10, 12, 9, 11}, []float64{4, 5, 6, 4.5, 5.5}, "ok"},
		{"noisy and disjointly worse", lower, []float64{4, 5, 6, 4.5, 5.5}, []float64{8, 10, 12, 9, 11}, "worse"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if ratio, _ := verdict(lower, []float64{10}, []float64{12}); ratio != 1.2 {
		t.Errorf("ratio = %v, want b/a = 1.2", ratio)
	}
}

func TestCompareFiles(t *testing.T) {
	sp := &spec{
		Workloads: []workloadSpec{{Name: "w1"}, {Name: "w2"}},
		EndToEnd: []metricSpec{
			{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	dir := t.TempDir()
	write := func(name string, p50 map[string][]float64, failed int) string {
		path := filepath.Join(dir, name)
		for wl, vals := range p50 {
			for i, v := range vals {
				rec := outRecord{Workload: wl, Seed: int64(i), Result: &result{
					Correct: true, Attempted: 100, Failed: failed,
					Metrics: map[string]metricValue{"p50_ms": {v, "ms"}, "ops_per_s": {1000 / v, "1/s"}},
				}}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A traced record must be ignored: it carries other metrics.
		if err := appendRecord(path, outRecord{Workload: "w1", Trace: true, Result: &result{Metrics: map[string]metricValue{"p50_ms": {999, "ms"}}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", map[string][]float64{"w1": {10, 10.1, 9.9}, "w2": {5, 5.05, 4.95}}, 0)
	same := write("same.jsonl", map[string][]float64{"w1": {10.2, 10.1, 10.0}, "w2": {5, 5.02, 4.97}}, 0)
	slow := write("slow.jsonl", map[string][]float64{"w1": {10.2, 10.1, 10.0}, "w2": {6, 6.05, 5.95}}, 0)
	failing := write("failing.jsonl", map[string][]float64{"w1": {10, 10.1, 9.9}, "w2": {5, 5.05, 4.95}}, 1)

	var out bytes.Buffer
	if worse, err := compareFiles(&out, sp, a, same); err != nil || worse {
		t.Fatalf("identical code judged worse (err %v):\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), " ok\n"); n != 6 {
		t.Errorf("want 6 ok rows (2 workloads × (2 metrics + failures)), got %d:\n%s", n, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, sp, a, slow)
	if err != nil || !worse {
		t.Fatalf("20%% slower w2 not judged worse (err %v):\n%s", err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "w2") && strings.Contains(line, "p50_ms") {
			if !strings.HasSuffix(line, "worse") || !strings.Contains(line, "1.2000") || !strings.Contains(line, "5.0000") {
				t.Errorf("w2 p50 row must give the ratio, its base and the verdict: %q", line)
			}
		}
		if strings.HasPrefix(line, "w1") && strings.HasSuffix(line, "worse") {
			t.Errorf("w1 did not change: %q", line)
		}
	}
	out.Reset()
	if worse, _ := compareFiles(&out, sp, a, failing); !worse {
		t.Errorf("new failed ops must regress:\n%s", out.String())
	}
	if _, err := compareFiles(&out, sp, a, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing file accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), []byte("{not json}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&out, sp, a, filepath.Join(dir, "bad.jsonl")); err == nil {
		t.Error("malformed file accepted")
	}
}
