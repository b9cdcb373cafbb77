package cluster

import (
	"context"
	"math/rand"
	"testing"

	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// benchSpace builds a feature space over n schemas drawn from k well-
// separated synthetic domains, so the agglomeration does real merging work.
func benchSpace(n, k int) *feature.Space {
	rng := rand.New(rand.NewSource(11))
	vocab := make([][]string, k)
	for d := range vocab {
		words := make([]string, 12)
		for w := range words {
			words[w] = string(rune('a'+d)) + "domain" + string(rune('a'+w)) + "term"
		}
		vocab[d] = words
	}
	set := make(schema.Set, n)
	for i := range set {
		d := i % k
		attrs := make([]string, 4+rng.Intn(4))
		for j := range attrs {
			attrs[j] = vocab[d][rng.Intn(len(vocab[d]))]
		}
		set[i] = schema.Schema{Name: "s", Attributes: attrs}
	}
	return feature.BuildLite(set, feature.DefaultConfig())
}

func benchAgglomerative(b *testing.B, method Method, n int) {
	sp := benchSpace(n, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Agglomerative(sp, NewLinkage(method), 0.2)
	}
}

func BenchmarkHACAvg300(b *testing.B)   { benchAgglomerative(b, AvgJaccard, 300) }
func BenchmarkHACMin300(b *testing.B)   { benchAgglomerative(b, MinJaccard, 300) }
func BenchmarkHACMax300(b *testing.B)   { benchAgglomerative(b, MaxJaccard, 300) }
func BenchmarkHACTotal300(b *testing.B) { benchAgglomerative(b, TotalJaccard, 300) }
func BenchmarkHACAvg1000(b *testing.B)  { benchAgglomerative(b, AvgJaccard, 1000) }

// BenchmarkAgglomerateBlocked is Algorithm 2 as the gated blocked build runs
// it — the benchmark's corpus and its pairs at or above feature.PairFloor,
// built outside the timer — so the build's `cluster` phase can be timed and
// profiled alone. It reports how the corpus split: a corpus that is one
// component gets nothing from a second core.
func BenchmarkAgglomerateBlocked(b *testing.B) {
	sp, ps := blockedPairSims(b, dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1}), feature.DefaultConfig())
	var res *Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = AgglomerativeSparse(context.Background(), sp, NewLinkage(AvgJaccard), 0.25, ps, SparseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Components), "components")
	b.ReportMetric(float64(res.LargestComponent), "largest")
}

// BenchmarkPairwiseSims is the benchmark trace's replay of the blocked
// build's `pairwise` phase: the exact similarities of the gated corpus' pairs
// at or above feature.PairFloor, verified and assembled into the CSR, with
// the space and the pair list built outside the timer.
func BenchmarkPairwiseSims(b *testing.B) {
	sp := feature.BuildLite(dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1}), feature.DefaultConfig())
	pairs := floorPairs(b, sp)
	var ps *PairSims
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps, err = PairwiseSims(context.Background(), sp, pairs, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ps.NumPairs()), "stored")
}

// BenchmarkCompletePairSims is the blocked build's `pairwise` phase as
// payg.Build runs it: every pair of the gated corpus at or above
// feature.PairFloor, read row by row off the space's postings, with the
// space built outside the timer. BenchmarkPairwiseSims times only the
// trace's replay of the same graph.
func BenchmarkCompletePairSims(b *testing.B) {
	sp := feature.BuildLite(dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1}), feature.DefaultConfig())
	var ps *PairSims
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps, err = CompletePairSims(context.Background(), sp, feature.PairFloor); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ps.NumPairs()), "stored")
}

// BenchmarkTauSweepDirect vs BenchmarkTauSweepDendrogram: the cost of
// evaluating 9 thresholds by re-running the agglomeration vs one full run
// plus 9 dendrogram cuts (provably identical output for reducible linkages).
func BenchmarkTauSweepDirect(b *testing.B) {
	sp := benchSpace(300, 5)
	taus := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tau := range taus {
			_, _ = Agglomerative(sp, NewLinkage(AvgJaccard), tau)
		}
	}
}

func BenchmarkTauSweepDendrogram(b *testing.B) {
	sp := benchSpace(300, 5)
	taus := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := dendrogram(b, sp, AvgJaccard)
		if err != nil {
			b.Fatal(err)
		}
		for _, tau := range taus {
			_ = d.CutAt(tau)
		}
	}
}

func BenchmarkKMeans300(b *testing.B) {
	sp := benchSpace(300, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = KMeans(sp, KMeansOptions{K: 5, Seed: 1})
	}
}

func BenchmarkDBSCAN300(b *testing.B) {
	sp := benchSpace(300, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DBSCAN(sp, DBSCANOptions{Eps: 0.6, MinPts: 3})
	}
}
