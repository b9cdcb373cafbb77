package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"schemaflow/internal/feature"
)

// dendrogram is BuildDendrogram over the complete pair set of sp.
func dendrogram(tb testing.TB, sp *feature.Space, method Method) (*Dendrogram, error) {
	tb.Helper()
	ps, err := CompletePairSims(context.Background(), sp, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return BuildDendrogram(sp, ps, method)
}

func TestDendrogramHeightsMonotone(t *testing.T) {
	sp := buildSpace(t, twoDomainSet())
	for _, method := range []Method{AvgJaccard, MinJaccard, MaxJaccard} {
		d, err := dendrogram(t, sp, method)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < d.NumMerges(); k++ {
			if d.Height(k) > d.Height(k-1)+1e-12 {
				t.Errorf("%s: merge heights not non-increasing at %d: %v → %v",
					method, k, d.Height(k-1), d.Height(k))
			}
		}
	}
}

func TestDendrogramRejectsTotalJaccard(t *testing.T) {
	sp := buildSpace(t, twoDomainSet())
	if _, err := dendrogram(t, sp, TotalJaccard); err == nil {
		t.Fatal("total-jaccard accepted")
	}
}

// TestDendrogramCutMatchesThresholdedRun: for reducible linkages, cutting
// the one-shot dendrogram at τ yields the same partition as running the
// thresholded algorithm at τ. Fixed seeds keep tie-breaking deterministic.
func TestDendrogramCutMatchesThresholdedRun(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set := randomSet(rng, 6+rng.Intn(10))
		sp := feature.BuildLite(set, feature.DefaultConfig())
		for _, method := range []Method{AvgJaccard, MinJaccard, MaxJaccard} {
			d, err := dendrogram(t, sp, method)
			if err != nil {
				t.Fatal(err)
			}
			for _, tau := range []float64{0.1, 0.25, 0.4, 0.7} {
				want := mustAgg(t, sp, NewLinkage(method), tau)
				got := d.CutAt(tau)
				if !samePartition(want, got) {
					t.Fatalf("seed %d %s tau %v: cut %v != run %v",
						seed, method, tau, got.Members, want.Members)
				}
			}
		}
	}
}

// samePartition compares two clusterings up to cluster relabeling.
func samePartition(a, b *Result) bool {
	if len(a.Assign) != len(b.Assign) || a.NumClusters() != b.NumClusters() {
		return false
	}
	mapping := make(map[int]int)
	for i := range a.Assign {
		if m, ok := mapping[a.Assign[i]]; ok {
			if m != b.Assign[i] {
				return false
			}
		} else {
			mapping[a.Assign[i]] = b.Assign[i]
		}
	}
	return true
}

func TestCutAtExtremes(t *testing.T) {
	sp := buildSpace(t, twoDomainSet())
	d, err := dendrogram(t, sp, AvgJaccard)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CutAt(0); got.NumClusters() != 1 {
		t.Fatalf("cut at 0: %d clusters", got.NumClusters())
	}
	if got := d.CutAt(1.01); got.NumClusters() != sp.NumSchemas() {
		t.Fatalf("cut above 1: %d clusters", got.NumClusters())
	}
}

// A NaN cut height compares false against every merge similarity; CutAt must
// conservatively apply no merges (all singletons), not all of them.
func TestCutAtNaNYieldsSingletons(t *testing.T) {
	sp := buildSpace(t, twoDomainSet())
	d, err := dendrogram(t, sp, AvgJaccard)
	if err != nil {
		t.Fatal(err)
	}
	res := d.CutAt(math.NaN())
	if res.NumClusters() != sp.NumSchemas() {
		t.Fatalf("NaN cut produced %d clusters, want %d singletons",
			res.NumClusters(), sp.NumSchemas())
	}
}
