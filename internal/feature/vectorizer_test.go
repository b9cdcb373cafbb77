package feature

import (
	"context"
	"testing"

	"schemaflow/internal/candgen"
	"schemaflow/internal/dataset"
)

func TestTermVectorizerMatchesCandgen(t *testing.T) {
	// The build's candidate generator must be a bit-identical relocation of
	// the candgen call, not a reimplementation.
	set := dataset.Large(dataset.LargeConfig{N: 400, Domains: 8, Seed: 3})
	sp := BuildLite(set, DefaultConfig())
	cfg := candgen.Config{Bands: 64, Rows: 2}

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
