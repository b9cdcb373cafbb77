package feature_test

import (
	"context"
	"slices"
	"testing"

	"schemaflow/internal/candgen"
	"schemaflow/internal/cluster"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
)

// TestTermVectorizerListsTheBuildGraph: the pairs the benchmark's trace
// replays the blocked build from are the edges of the graph the build
// stores, cluster.CompletePairSims at feature.PairFloor — so a drift between
// the two fails here before the trace's domain-count check notices it.
func TestTermVectorizerListsTheBuildGraph(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 400, Domains: 8, Seed: 3})
	sp := feature.BuildLite(set, feature.DefaultConfig())
	v := feature.NewTermVectorizer(candgen.Config{Bands: 128, Rows: 2})
	if _, err := v.CandidatePairs(context.Background()); err == nil {
		t.Fatal("an unfitted vectorizer listed pairs")
	}
	if err := v.Fit(sp); err != nil {
		t.Fatal(err)
	}
	got, err := v.CandidatePairs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := cluster.CompletePairSims(context.Background(), sp, feature.PairFloor)
	if err != nil {
		t.Fatal(err)
	}
	var want []candgen.Pair
	for a := range sp.NumSchemas() {
		js, _ := ps.Row(a)
		for _, b := range js {
			if int(b) > a {
				want = append(want, candgen.Pair{A: int32(a), B: b})
			}
		}
	}
	if len(want) == 0 || len(want) == ps.Examined() {
		t.Fatalf("the floor keeps %d of %d positive pairs; the corpus should have both kept and dropped ones", len(want), ps.Examined())
	}
	if !slices.Equal(got, want) {
		t.Errorf("%d pairs listed, the build's graph has %d edges", len(got), len(want))
	}
}
