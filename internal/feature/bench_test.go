package feature

import (
	"math/rand"
	"testing"

	"schemaflow/internal/dataset"
	"schemaflow/internal/schema"
)

// benchCorpus synthesizes an n-schema corpus over a small realistic
// vocabulary.
func benchCorpus(n int) schema.Set {
	words := []string{
		"title", "authors", "publication", "year", "venue", "pages",
		"make", "model", "mileage", "price", "color", "transmission",
		"name", "phone", "email", "address", "city", "state",
		"genre", "director", "rating", "runtime", "course", "credits",
		"instructor", "room", "semester", "department", "enrollment",
	}
	rng := rand.New(rand.NewSource(7))
	set := make(schema.Set, n)
	for i := range set {
		attrs := make([]string, 4+rng.Intn(5))
		for j := range attrs {
			attrs[j] = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		}
		set[i] = schema.Schema{Name: "s", Attributes: attrs}
	}
	return set
}

func BenchmarkBuildLite315(b *testing.B) {
	set := benchCorpus(315)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildLite(set, DefaultConfig())
	}
}

// BenchmarkBuildLite6000 is the `features` phase of the gated blocked build:
// the wide corpus, ~12k vocabulary terms.
func BenchmarkBuildLite6000(b *testing.B) {
	set := dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sp := BuildLite(set, DefaultConfig()); sp.NumSchemas() != len(set) {
			b.Fatalf("space holds %d schemas", sp.NumSchemas())
		}
	}
}

// TestBuildLiteSplitsEachSpellingOnce: BuildLite splits every distinct
// attribute spelling into terms once, not every attribute occurrence, and
// keeps the result as the spelling table. On Large{N:1500,Domains:24} that is
// 15,998 allocations per build; splitting each schema's attributes
// (terms.Extract per schema) took 58,558.
func TestBuildLiteSplitsEachSpellingOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	set := dataset.Large(dataset.LargeConfig{N: 1500, Domains: 24, Seed: 1})
	if n := testing.AllocsPerRun(3, func() { BuildLite(set, DefaultConfig()) }); n > 20000 {
		t.Fatalf("BuildLite allocates %v times on Large{1500,24}, want at most 20,000", n)
	}
}

func BenchmarkBuildLite1000(b *testing.B) {
	set := benchCorpus(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildLite(set, DefaultConfig())
	}
}

func BenchmarkQueryVector(b *testing.B) {
	sp := BuildLite(benchCorpus(315), DefaultConfig())
	keywords := []string{"publication", "authors", "title"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.QueryVector(keywords)
	}
}

// BenchmarkQueryVectorCompound embeds a typo-carrying three-term query into
// a vocabulary of 8,000 glued 18-letter terms (compoundSet) — the shape on
// which g-gram candidates are plentiful and true matches few.
func BenchmarkQueryVectorCompound(b *testing.B) {
	set, term := compoundSet(50, 8, 20)
	sp := BuildLite(set, DefaultConfig())
	keywords := compoundQuery(term, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.QueryVector(keywords)
	}
}
