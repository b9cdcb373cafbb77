package candgen_test

import (
	"context"
	"testing"

	. "schemaflow/internal/candgen"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
)

// BenchmarkCandidatePairs is the banding alone on the gated build-blocked
// corpus (payg's blockedCorpus), signatures built once: the part of the
// build's `candidates` phase that runs in worker goroutines, where a
// cumulative profile of the build does not attribute it to candgen.
func BenchmarkCandidatePairs(b *testing.B) {
	set := dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
	sp := feature.BuildLite(set, feature.DefaultConfig())
	ss, err := Signatures(context.Background(), sp.Vectors, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, err := ss.Pairs(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(pairs)), "pairs")
	}
}

// BenchmarkSignatures is the other part of the `candidates` phase: MinHash
// signatures of the gated corpus, folded into band keys.
func BenchmarkSignatures(b *testing.B) {
	set := dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
	sp := feature.BuildLite(set, feature.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Signatures(context.Background(), sp.Vectors, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
