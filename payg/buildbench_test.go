package payg

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"

	"schemaflow/internal/dataset"
	"schemaflow/internal/eval"
)

// buildBenchArtifact gates TestBuildBenchArtifact, which sweeps corpus
// sizes through the blocked (similarity floor + sparse HAC) and exact build paths and
// renders the comparison to BENCH_build.json (make bench-build).
var (
	buildBenchArtifact = flag.Bool("bench-build-artifact", false, "write the offline-build scaling artifact")
	buildBenchOut      = flag.String("bench-build-out", "../BENCH_build.json", "output path for the build benchmark artifact")
)

// exactBuildMaxN bounds the O(n²) exact arm of the sweep. Past 10k schemas
// the all-pairs build takes long enough that the sweep only runs the blocked
// arm and reports absolute time.
const exactBuildMaxN = 10000

type buildBenchRow struct {
	N                 int     `json:"n"`
	Domains           int     `json:"domains"`
	BlockedSeconds    float64 `json:"blocked_seconds"`
	CandidatePairs    int64   `json:"candidate_pairs"`
	CandidateFraction float64 `json:"candidate_fraction"`
	BlockedDomains    int     `json:"blocked_domains"`
	ExactSeconds      float64 `json:"exact_seconds,omitempty"`
	Speedup           float64 `json:"speedup,omitempty"`
	PairwiseF1        float64 `json:"pairwise_f1,omitempty"`
}

// TestBuildBenchArtifact measures the offline build at increasing corpus
// sizes. Both arms share the corpus and skip mediated-schema extraction so
// the comparison isolates features + candidates + clustering + domains.
//
//	go test ./payg -run TestBuildBenchArtifact -bench-build-artifact=true -timeout 2h
//
// By default only the smallest size runs (CI smoke); set
// PAYG_BENCH_BUILD_FULL=1 for the full {2k, 10k, 50k, 100k} sweep.
func TestBuildBenchArtifact(t *testing.T) {
	if !*buildBenchArtifact {
		t.Skip("set -bench-build-artifact to regenerate BENCH_build.json")
	}
	sizes := []int{2000}
	full := os.Getenv("PAYG_BENCH_BUILD_FULL") == "1"
	if full {
		sizes = []int{2000, 10000, 50000, 100000}
	}

	var rows []buildBenchRow
	for _, n := range sizes {
		set := dataset.Large(dataset.LargeConfig{N: n, Seed: 42})
		row := buildBenchRow{N: n, Domains: n / 200}

		start := time.Now()
		blocked, err := Build(set, Options{SkipMediation: true, CandidateGen: "lsh"})
		if err != nil {
			t.Fatalf("blocked build at n=%d: %v", n, err)
		}
		row.BlockedSeconds = time.Since(start).Seconds()
		row.CandidatePairs = int64(mBuildCandidatePairs.Value())
		row.CandidateFraction = mBuildCandidateFraction.Value()
		row.BlockedDomains = blocked.NumDomains()
		t.Logf("n=%d blocked: %.2fs, %d candidate pairs (%.4f%% of n²/2), %d domains",
			n, row.BlockedSeconds, row.CandidatePairs, 100*row.CandidateFraction, row.BlockedDomains)

		if n <= exactBuildMaxN {
			start = time.Now()
			exact, err := Build(set, Options{SkipMediation: true, CandidateGen: "exact"})
			if err != nil {
				t.Fatalf("exact build at n=%d: %v", n, err)
			}
			row.ExactSeconds = time.Since(start).Seconds()
			row.Speedup = row.ExactSeconds / row.BlockedSeconds
			row.PairwiseF1 = eval.PairwiseF1(
				blocked.Model().Clustering.Assign, exact.Model().Clustering.Assign)
			t.Logf("n=%d exact: %.2fs (%.1fx slower than blocked), pairwise F1 %.4f",
				n, row.ExactSeconds, row.Speedup, row.PairwiseF1)
			if row.PairwiseF1 < 0.95 {
				t.Errorf("n=%d: blocked-vs-exact pairwise F1 %.4f < 0.95", n, row.PairwiseF1)
			}
		}
		rows = append(rows, row)
	}

	artifact := struct {
		Description string          `json:"description"`
		GoVersion   string          `json:"go_version"`
		NumCPU      int             `json:"num_cpu"`
		Corpus      string          `json:"corpus"`
		FullSweep   bool            `json:"full_sweep"`
		Rows        []buildBenchRow `json:"rows"`
	}{
		Description: "Offline build scaling: blocked pipeline (pairs at or above the similarity floor) vs exact all-pairs pipeline (SkipMediation, defaults otherwise)",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Corpus:      "dataset.Large, domains = n/200, seed 42",
		FullSweep:   full,
		Rows:        rows,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*buildBenchOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d sizes)", *buildBenchOut, len(rows))
}

// blockedCorpus is the gated build-blocked workload's corpus: ~560 domains.
func blockedCorpus() []Schema {
	return dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
}

// BenchmarkBuildBlocked is that workload's operation in-package — the whole
// pipeline, mediation on — so it can run under -cpuprofile and -memprofile.
func BenchmarkBuildBlocked(b *testing.B) {
	set := blockedCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(set, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildExact is the exact build (every positive pair) at
// mixed-ingest's largest recluster, mediation off.
func BenchmarkBuildExact(b *testing.B) {
	set := dataset.Large(dataset.LargeConfig{N: 3700, Domains: 24, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(set, Options{SkipMediation: true, CandidateGen: "exact"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyFeedback moves one schema of that system to another domain:
// what a single correction costs while the whole system is assembled again
// for it (ROADMAP item 1c's baseline).
func BenchmarkApplyFeedback(b *testing.B) {
	sys, err := Build(blockedCorpus(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	assign := sys.Model().Clustering.Assign
	fb := Feedback{Moves: []Move{{Schema: 0, Domain: assign[len(assign)-1]}}}
	if assign[0] == fb.Moves[0].Domain {
		b.Fatal("first and last schema share a domain: the move would be a no-op")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ApplyFeedback(fb); err != nil {
			b.Fatal(err)
		}
	}
}
