package payg

import (
	"testing"

	"schemaflow/internal/dataset"
)

// benchCorpus returns the DW stand-in corpus split into a base set and one
// held-out newcomer for the ingest path to assign. The newcomer comes from
// a populous label (hotels) so assignment succeeds; the tail of the corpus
// is unique singleton schemas that would arrive as "fresh".
func benchCorpus() (base []Schema, newcomer Schema) {
	set := dataset.DW(1)
	newcomer = set[1] // dw-hotels-01
	base = append(append([]Schema{}, set[:1]...), set[2:]...)
	return base, newcomer
}

func benchSystem(b *testing.B) *System {
	b.Helper()
	base, _ := benchCorpus()
	sys, err := Build(base, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkIngest measures the online path: assigning one arriving schema
// to the existing domains (feature vector vs centroids, Algorithm 3 gates)
// without touching the clustering or classifier tables. Compare against
// BenchmarkFullRebuild — the cost the journal+drift trigger amortizes.
func BenchmarkIngest(b *testing.B) {
	sys := benchSystem(b)
	_, newcomer := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := sys.Ingest(newcomer)
		if err != nil {
			b.Fatal(err)
		}
		if a.Fresh {
			b.Fatal("newcomer unexpectedly fresh")
		}
	}
}

// BenchmarkFullRebuild measures building the whole system from scratch over
// the same corpus plus the newcomer — what a synchronous AddSchema per
// arrival would pay, and what one background recluster pays for a whole
// batch of journaled arrivals.
func BenchmarkFullRebuild(b *testing.B) {
	base, newcomer := benchCorpus()
	union := append(append([]Schema{}, base...), newcomer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(union, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
