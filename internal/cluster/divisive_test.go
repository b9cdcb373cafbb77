package cluster

import (
	"context"
	"testing"

	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

func TestDivisiveSeparatesDomains(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	res := Divisive(sp, DivisiveOptions{MaxDiameter: 0.85})
	if res.Assign[0] != res.Assign[1] || res.Assign[1] != res.Assign[2] {
		t.Errorf("bibliography split: %v", res.Assign)
	}
	if res.Assign[3] != res.Assign[4] {
		t.Errorf("cars split: %v", res.Assign)
	}
	if res.Assign[0] == res.Assign[3] {
		t.Errorf("domains merged: %v", res.Assign)
	}
	// The unique schema is at distance 1 from everything → own cluster.
	if res.Assign[5] == res.Assign[0] || res.Assign[5] == res.Assign[3] {
		t.Errorf("unique schema absorbed: %v", res.Assign)
	}
}

func TestDivisiveRespectsMaxClusters(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	res := Divisive(sp, DivisiveOptions{MaxDiameter: 0.1, MaxClusters: 2})
	if res.NumClusters() > 2 {
		t.Fatalf("cap ignored: %d clusters", res.NumClusters())
	}
}

func TestDivisiveDegenerate(t *testing.T) {
	if got := Divisive(feature.BuildLite(nil, feature.DefaultConfig()), DivisiveOptions{}); got.NumClusters() != 0 {
		t.Fatal("empty input produced clusters")
	}
	// Identical schemas: diameter 0, no splitting.
	set := schema.Set{
		{Name: "a", Attributes: []string{"title", "author"}},
		{Name: "b", Attributes: []string{"title", "author"}},
	}
	res := Divisive(feature.BuildLite(set, feature.DefaultConfig()), DivisiveOptions{MaxDiameter: 0.5})
	if res.NumClusters() != 1 {
		t.Fatalf("identical schemas split: %v", res.Members)
	}
}

func TestTermFrequencyModeSeparates(t *testing.T) {
	// The §4.1 claim under test: counting instead of binary features
	// changes little. At minimum, the term-frequency rows must still
	// separate the domains.
	set := twoDomainSet()
	sp := feature.BuildLite(set, feature.DefaultConfig())
	tf, sim := tfRows(set, sp)
	ps, err := PairSimsFromRows(context.Background(), len(set), 0, tf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(AvgJaccard), 0.2, ps, SparseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[1] != res.Assign[2] {
		t.Errorf("bibliography split under TF: %v", res.Assign)
	}
	if res.Assign[0] == res.Assign[3] {
		t.Errorf("domains merged under TF: %v", res.Assign)
	}
	// TF similarities must still be symmetric probabilities.
	for i := 0; i < len(set); i++ {
		for j := 0; j < len(set); j++ {
			s := sim(i, j)
			if s < 0 || s > 1 || s != sim(j, i) {
				t.Fatalf("sim(%d,%d) = %v", i, j, s)
			}
		}
	}
}
