package mediate_test

import (
	"fmt"
	"math/rand"
	"testing"

	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
)

func benchSet(n int) schema.Set {
	concepts := [][]string{
		{"title", "paper title", "article title"},
		{"authors", "author", "author names"},
		{"year", "publication year", "year of publish"},
		{"venue", "conference name", "journal"},
		{"pages", "page numbers"},
		{"publisher", "published by"},
		{"abstract", "summary"},
		{"keywords", "index terms"},
	}
	rng := rand.New(rand.NewSource(2))
	set := make(schema.Set, n)
	for i := range set {
		perm := rng.Perm(len(concepts))[:4+rng.Intn(4)]
		attrs := make([]string, len(perm))
		for k, c := range perm {
			variants := concepts[c]
			attrs[k] = variants[rng.Intn(len(variants))]
		}
		set[i] = schema.Schema{Name: fmt.Sprintf("s%d", i), Attributes: attrs}
	}
	return set
}

func BenchmarkBuild50(b *testing.B) {
	set := benchSet(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mediate.Build(set, mediate.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild500(b *testing.B) {
	set := benchSet(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mediate.Build(set, mediate.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildUnfiltered500(b *testing.B) {
	set := benchSet(500)
	opts := mediate.DefaultOptions()
	opts.Negative = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mediate.Build(set, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildDomains mediates every domain of the benchmark's wide corpus
// once per iteration — what a build, a load or a recluster pays: like payg,
// through one lexicon over the whole corpus, the feature space's, and in one
// Scratch, a worker's. Its ~560 domains hold tens of distinct names each,
// mostly dissimilar; benchSet's single template, where every name is
// similar to two others, is the other extreme.
func BenchmarkBuildDomains(b *testing.B) {
	set := dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
	domains := domainsOf(b, set)
	lx := feature.NewLexicon(set, feature.DefaultConfig())
	sc := new(mediate.Scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, members := range domains {
			if _, err := mediate.BuildWith(members, mediate.DefaultOptions(), lx, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
