package feature

import (
	"context"
	"math"
	"testing"

	"schemaflow/internal/ann"
	"schemaflow/internal/candgen"
	"schemaflow/internal/dataset"
)

func TestTermVectorizerMatchesCandgen(t *testing.T) {
	// The build's candidate generator must be a bit-identical relocation of
	// the candgen call, not a reimplementation.
	set := dataset.Large(dataset.LargeConfig{N: 400, Domains: 8, Seed: 3})
	sp := BuildLite(set, DefaultConfig())
	cfg := candgen.Config{Bands: 64, Rows: 2, Threshold: 0.1}

	v := NewTermVectorizer(cfg)
	if err := v.Fit(sp); err != nil {
		t.Fatal(err)
	}
	got, err := v.CandidatePairs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := candgen.Pairs(context.Background(), sp.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pair count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNGramEmbedProperties(t *testing.T) {
	v := NewNGramVectorizer(NGramConfig{Dim: 128})
	a := v.Embed([]string{"title", "author", "year"})
	b := v.Embed([]string{"year", "author", "title"})
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("embedding depends on term order")
		}
	}
	var norm float64
	for _, x := range a {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Fatalf("embedding norm² = %v, want 1", norm)
	}
	if z := v.Embed(nil); len(z) != 128 {
		t.Fatalf("zero embedding has dim %d", len(z))
	}
	// Overlapping term sets must be closer than disjoint ones.
	c := v.Embed([]string{"title", "author", "publisher"})
	d := v.Embed([]string{"horsepower", "mileage", "transmission"})
	simAC := ann.Dot(a, c)
	simAD := ann.Dot(a, d)
	if simAC <= simAD {
		t.Fatalf("overlap sim %v not above disjoint sim %v", simAC, simAD)
	}
}

// TestNGramRecallOnLargeSamples is the ISSUE's ANN recall property test on
// real corpus samples: for schema-term-set queries against a fitted index,
// ANN top-10 must recover ≥95% of the exhaustive-cosine top-10.
func TestNGramRecallOnLargeSamples(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 2000, Domains: 25, Seed: 7})
	sp := BuildLite(set, DefaultConfig())
	v := NewNGramVectorizer(NGramConfig{Dim: 256, ANN: ann.Config{EfSearch: 128}})
	if err := v.Fit(sp); err != nil {
		t.Fatal(err)
	}

	const k = 10
	hits, total := 0, 0
	for qi := 0; qi < 200; qi++ {
		q := v.vecs[qi*7%len(v.vecs)]
		exact := ann.BruteForce(v.vecs, q, k)
		approx := v.index.Search(q, k, 0)
		in := make(map[int]bool, len(approx))
		for _, r := range approx {
			in[r.ID] = true
		}
		for _, r := range exact {
			total++
			if in[r.ID] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	t.Logf("recall@%d over dataset.Large samples: %.4f", k, recall)
	if recall < 0.95 {
		t.Fatalf("recall@%d = %.4f, want >= 0.95", k, recall)
	}
}

func TestNGramShortlistFindsOwnSchema(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 500, Domains: 10, Seed: 5})
	sp := BuildLite(set, DefaultConfig())
	v := NewNGramVectorizer(NGramConfig{Dim: 256})
	if err := v.Fit(sp); err != nil {
		t.Fatal(err)
	}
	// Querying with a schema's own term set must shortlist that schema
	// near the top (cosine 1 against itself).
	misses := 0
	for i := 0; i < len(set); i += 25 {
		terms := make([]string, 0, len(sp.TermSets[i]))
		for tm := range sp.TermSets[i] {
			terms = append(terms, tm)
		}
		found := false
		for _, id := range v.Shortlist(terms, 10) {
			if id == i {
				found = true
				break
			}
		}
		if !found {
			misses++
		}
	}
	if n := len(set) / 25; misses > n/10 {
		t.Fatalf("%d/%d self-queries missed their own schema", misses, n)
	}
}
