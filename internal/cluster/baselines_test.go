package cluster

import (
	"math"
	"testing"

	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

func TestKMeansTwoClusters(t *testing.T) {
	set := twoDomainSet()[:5] // drop the singleton; k-means has no noise notion
	sp := buildSpace(t, set)
	res := KMeans(sp, KMeansOptions{K: 2, Seed: 42})
	if res.NumClusters() != 2 {
		t.Fatalf("NumClusters = %d, want 2", res.NumClusters())
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[1] != res.Assign[2] {
		t.Errorf("bibliography split: %v", res.Assign)
	}
	if res.Assign[3] != res.Assign[4] {
		t.Errorf("cars split: %v", res.Assign)
	}
	if res.Assign[0] == res.Assign[3] {
		t.Errorf("domains merged: %v", res.Assign)
	}
}

func TestKMeansDegenerate(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	if got := KMeans(sp, KMeansOptions{K: 0}).NumClusters(); got != 1 {
		t.Fatalf("K=0: %d clusters, want 1 (everything together)", got)
	}
	if got := KMeans(sp, KMeansOptions{K: 100, Seed: 1}).NumClusters(); got > len(set) {
		t.Fatalf("K>n produced %d clusters", got)
	}
	empty := KMeans(feature.BuildLite(nil, feature.DefaultConfig()), KMeansOptions{K: 3})
	if empty.NumClusters() != 0 {
		t.Fatal("empty input produced clusters")
	}
}

func TestKMeansDeterministicPerSeed(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	a := KMeans(sp, KMeansOptions{K: 3, Seed: 7})
	b := KMeans(sp, KMeansOptions{K: 3, Seed: 7})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestDBSCANFindsDenseGroups(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	res := DBSCAN(sp, DBSCANOptions{Eps: 0.8, MinPts: 2})
	if res.Assign[0] != res.Assign[1] || res.Assign[1] != res.Assign[2] {
		t.Errorf("bibliography split: %v", res.Assign)
	}
	if res.Assign[3] != res.Assign[4] {
		t.Errorf("cars split: %v", res.Assign)
	}
	if res.Assign[0] == res.Assign[3] {
		t.Errorf("domains merged: %v", res.Assign)
	}
	// odd1 is noise → its own singleton cluster.
	if res.Assign[5] == res.Assign[0] || res.Assign[5] == res.Assign[3] {
		t.Errorf("noise point absorbed: %v", res.Assign)
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	res := DBSCAN(sp, DBSCANOptions{Eps: 0.0001, MinPts: 3})
	if res.NumClusters() != len(set) {
		t.Fatalf("tiny eps: %d clusters, want all singletons", res.NumClusters())
	}
}

func TestModelBasedSeparatesDomains(t *testing.T) {
	// The chi-square homogeneity test needs enough observations per cluster
	// to reject merging disjoint domains (with a handful of schemas it
	// rightly cannot reject the null), so this test uses a larger corpus.
	var set schema.Set
	bibAttrs := [][]string{
		{"title", "authors", "publication year", "conference"},
		{"paper title", "author", "year", "venue name"},
		{"title", "author names", "publication year", "pages"},
		{"title", "authors", "pages", "publisher"},
	}
	carAttrs := [][]string{
		{"make", "model", "mileage", "price"},
		{"car make", "model", "color", "price"},
		{"make", "model", "year", "transmission"},
		{"make", "mileage", "color", "transmission"},
	}
	for rep := 0; rep < 3; rep++ {
		for _, a := range bibAttrs {
			set = append(set, schema.Schema{Name: "bib", Attributes: a})
		}
		for _, a := range carAttrs {
			set = append(set, schema.Schema{Name: "car", Attributes: a})
		}
	}
	sp := buildSpace(t, set)
	// Textbook α=0.05 over-separates (with replicated schemas every real
	// phrasing difference becomes statistically significant — the weakness
	// of the chi-square baseline the thesis moves away from); α=1e-4
	// recovers exactly the two domains on this corpus.
	res := ModelBased(sp, 1e-4)
	bibCluster := res.Assign[0]
	carCluster := res.Assign[4]
	if bibCluster == carCluster {
		t.Fatalf("domains merged: %v", res.Assign)
	}
	for i, s := range set {
		want := bibCluster
		if s.Name == "car" {
			want = carCluster
		}
		if res.Assign[i] != want {
			t.Errorf("schema %d (%s) in cluster %d", i, s.Name, res.Assign[i])
		}
	}
}

func TestModelBasedEmpty(t *testing.T) {
	res := ModelBased(feature.BuildLite(nil, feature.DefaultConfig()), 0.05)
	if res.NumClusters() != 0 {
		t.Fatal("empty input produced clusters")
	}
}

func TestChiSquareSimilarity(t *testing.T) {
	// Identical distributions → p near 1.
	a := map[int32]int{0: 5, 1: 5, 2: 5}
	p := chiSquareSimilarity(a, a, 15, 15)
	if p < 0.99 {
		t.Fatalf("identical distributions: p = %v", p)
	}
	// Disjoint term sets → p near 0.
	b := map[int32]int{10: 5, 11: 5, 12: 5}
	p = chiSquareSimilarity(a, b, 15, 15)
	if p > 0.01 {
		t.Fatalf("disjoint distributions: p = %v", p)
	}
	// Empty cluster → 0.
	if chiSquareSimilarity(a, map[int32]int{}, 15, 0) != 0 {
		t.Fatal("empty cluster should give 0")
	}
}

func TestGammaQ(t *testing.T) {
	// Reference values for the chi-square survival function.
	tests := []struct {
		x, df, want float64
	}{
		{0, 1, 1},
		{3.841459, 1, 0.05},   // 95th percentile, df=1
		{5.991465, 2, 0.05},   // df=2
		{18.307038, 10, 0.05}, // df=10
		{2.705543, 1, 0.10},
	}
	for _, tc := range tests {
		got := chiSquareSurvival(tc.x, tc.df)
		if math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("chi2 survival(%v, df=%v) = %v, want %v", tc.x, tc.df, got, tc.want)
		}
	}
	// Monotone decreasing in x.
	prev := 1.0
	for x := 0.5; x < 30; x += 0.5 {
		cur := chiSquareSurvival(x, 4)
		if cur > prev+1e-12 {
			t.Fatalf("survival not monotone at x=%v", x)
		}
		prev = cur
	}
	if !math.IsNaN(gammaQ(-1, 1)) {
		t.Fatal("gammaQ with invalid a should be NaN")
	}
}

func TestKMeansLiteralZeroIterations(t *testing.T) {
	// Negative MaxIter requests literally zero update rounds: the result is
	// each schema attached to its nearest k-means++ seed — a valid
	// assignment, never the -1 "unassigned" placeholder.
	set := twoDomainSet()[:5]
	sp := buildSpace(t, set)
	res := KMeans(sp, KMeansOptions{K: 2, MaxIter: -1, Seed: 42})
	for i, c := range res.Assign {
		if c < 0 || c >= 2 {
			t.Fatalf("schema %d assigned to %d under MaxIter=-1, want [0,2)", i, c)
		}
	}
	// Zero still means the default iteration budget, which must converge to
	// the same clustering as an explicit large budget.
	a := KMeans(sp, KMeansOptions{K: 2, MaxIter: 0, Seed: 42})
	b := KMeans(sp, KMeansOptions{K: 2, MaxIter: 100, Seed: 42})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("MaxIter 0 and 100 diverge at %d: %d vs %d", i, a.Assign[i], b.Assign[i])
		}
	}
}
