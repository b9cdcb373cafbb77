package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// mustAgg runs Agglomerative and fails the test on a validation error; the
// fixtures in this package always use real thresholds in [0,1].
func mustAgg(tb testing.TB, sp *feature.Space, link Linkage, tau float64) *Result {
	tb.Helper()
	res, err := Agglomerative(sp, link, tau)
	if err != nil {
		tb.Fatalf("Agglomerative: %v", err)
	}
	return res
}

// twoDomainSet has two obvious clusters plus one unrelated singleton.
func twoDomainSet() schema.Set {
	return schema.Set{
		{Name: "bib1", Attributes: []string{"title", "authors", "publication year", "conference"}},
		{Name: "bib2", Attributes: []string{"paper title", "author", "year", "venue name"}},
		{Name: "bib3", Attributes: []string{"title", "author names", "publication year", "pages"}},
		{Name: "car1", Attributes: []string{"make", "model", "mileage", "price"}},
		{Name: "car2", Attributes: []string{"car make", "model", "color", "price"}},
		{Name: "odd1", Attributes: []string{"telescope aperture", "seismograph reading"}},
	}
}

func buildSpace(t *testing.T, set schema.Set) *feature.Space {
	t.Helper()
	return feature.BuildLite(set, feature.DefaultConfig())
}

func TestAgglomerativeSeparatesDomains(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	res := mustAgg(t, sp, NewLinkage(AvgJaccard), 0.2)

	if res.NumClusters() != 3 {
		t.Fatalf("got %d clusters, want 3: %v", res.NumClusters(), res.Members)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[1] != res.Assign[2] {
		t.Errorf("bibliography schemas split: %v", res.Assign)
	}
	if res.Assign[3] != res.Assign[4] {
		t.Errorf("car schemas split: %v", res.Assign)
	}
	if res.Assign[0] == res.Assign[3] {
		t.Errorf("bibliography and cars merged: %v", res.Assign)
	}
	var singletons [][]int
	for _, m := range res.Members {
		if len(m) == 1 {
			singletons = append(singletons, m)
		}
	}
	if len(singletons) != 1 || singletons[0][0] != 5 {
		t.Errorf("odd1 should be the unique singleton, got %v", singletons)
	}
}

func TestAgglomerativeTauOneKeepsSingletons(t *testing.T) {
	// At τ just above every pairwise similarity, nothing merges except
	// exact duplicates.
	set := twoDomainSet()
	sp := buildSpace(t, set)
	res := mustAgg(t, sp, NewLinkage(AvgJaccard), 1.0)
	if res.NumClusters() != len(set) {
		t.Fatalf("τ=1.0 merged non-identical schemas: %d clusters", res.NumClusters())
	}
}

func TestAgglomerativeTauZeroMergesAll(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	res := mustAgg(t, sp, NewLinkage(AvgJaccard), 0.0)
	// τ=0 merges everything with any non-negative similarity — one cluster.
	if res.NumClusters() != 1 {
		t.Fatalf("τ=0 left %d clusters", res.NumClusters())
	}
	if len(res.Merges) != len(set)-1 {
		t.Fatalf("expected %d merges, got %d", len(set)-1, len(res.Merges))
	}
}

func TestAgglomerativeIdenticalSchemas(t *testing.T) {
	set := schema.Set{
		{Name: "a", Attributes: []string{"title", "author"}},
		{Name: "b", Attributes: []string{"title", "author"}},
	}
	sp := buildSpace(t, set)
	res := mustAgg(t, sp, NewLinkage(AvgJaccard), 0.99)
	if res.NumClusters() != 1 {
		t.Fatal("identical schemas did not merge at τ=0.99")
	}
	if res.Merges[0].Sim != 1 {
		t.Fatalf("merge sim = %v, want 1", res.Merges[0].Sim)
	}
}

func TestAgglomerativeEmptyAndSingle(t *testing.T) {
	res := mustAgg(t, feature.BuildLite(nil, feature.DefaultConfig()), NewLinkage(AvgJaccard), 0.5)
	if res.NumClusters() != 0 {
		t.Fatal("empty input produced clusters")
	}
	one := schema.Set{{Name: "x", Attributes: []string{"alpha"}}}
	res = mustAgg(t, feature.BuildLite(one, feature.DefaultConfig()), NewLinkage(AvgJaccard), 0.5)
	if res.NumClusters() != 1 || len(res.Members[0]) != 1 {
		t.Fatal("single input mishandled")
	}
}

func TestResultMembersSortedAndConsistent(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	res := mustAgg(t, sp, NewLinkage(AvgJaccard), 0.2)
	seen := make(map[int]bool)
	for c, members := range res.Members {
		for k, i := range members {
			if k > 0 && members[k-1] >= i {
				t.Fatalf("cluster %d members not sorted: %v", c, members)
			}
			if res.Assign[i] != c {
				t.Fatalf("Assign[%d]=%d but member of %d", i, res.Assign[i], c)
			}
			if seen[i] {
				t.Fatalf("schema %d in two clusters", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(set) {
		t.Fatalf("partition covers %d of %d schemas", len(seen), len(set))
	}
}

func TestFromAssignment(t *testing.T) {
	res := FromAssignment([]int{7, 7, 3, 7, 3, 9})
	if res.NumClusters() != 3 {
		t.Fatalf("NumClusters = %d", res.NumClusters())
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[0] != res.Assign[3] {
		t.Fatal("cluster 7 split")
	}
	if res.Assign[2] != res.Assign[4] {
		t.Fatal("cluster 3 split")
	}
	// Dense ids assigned in first-appearance order.
	if res.Assign[0] != 0 || res.Assign[2] != 1 || res.Assign[5] != 2 {
		t.Fatalf("ids not first-appearance dense: %v", res.Assign)
	}
}

func TestSchemaClusterSim(t *testing.T) {
	set := twoDomainSet()
	sp := buildSpace(t, set)
	// Average of sims to members, including self with sim 1.
	got := SchemaClusterSim(sp, 0, []int{0, 1})
	want := (1 + sp.Similarity(0, 1)) / 2
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("SchemaClusterSim = %v, want %v", got, want)
	}
	if SchemaClusterSim(sp, 0, nil) != 0 {
		t.Fatal("empty cluster should give 0")
	}
}

// fromScratch computes c_sim between two clusters directly from the
// definition, independent of the incremental update rules.
func fromScratch(sp *feature.Space, method Method, a, b []int) float64 {
	switch method {
	case AvgJaccard:
		sum := 0.0
		for _, i := range a {
			for _, j := range b {
				sum += sp.Similarity(i, j)
			}
		}
		return sum / float64(len(a)*len(b))
	case MinJaccard:
		best := math.Inf(1)
		for _, i := range a {
			for _, j := range b {
				if s := sp.Similarity(i, j); s < best {
					best = s
				}
			}
		}
		return best
	case MaxJaccard:
		best := math.Inf(-1)
		for _, i := range a {
			for _, j := range b {
				if s := sp.Similarity(i, j); s > best {
					best = s
				}
			}
		}
		return best
	case TotalJaccard:
		and := vectorOf(sp, a[0])
		or := vectorOf(sp, a[0])
		for _, i := range append(append([]int{}, a[1:]...), b...) {
			and.InPlaceAnd(vectorOf(sp, i))
			or.InPlaceOr(vectorOf(sp, i))
		}
		u := or.Count()
		if u == 0 {
			return 0
		}
		return float64(and.Count()) / float64(u)
	}
	panic("unknown method")
}

// randomSet builds a random schema set over a fixed word pool.
func randomSet(rng *rand.Rand, n int) schema.Set {
	words := []string{
		"title", "author", "year", "venue", "pages", "make", "model",
		"price", "color", "name", "phone", "email", "city", "genre",
		"director", "rating", "course", "credits", "professor", "room",
	}
	set := make(schema.Set, n)
	for i := range set {
		k := 2 + rng.Intn(5)
		attrs := make([]string, k)
		for j := range attrs {
			attrs[j] = words[rng.Intn(len(words))]
		}
		set[i] = schema.Schema{Name: "s", Attributes: attrs}
	}
	return set
}

// TestPropertyGreedyMaxAndThreshold replays every recorded merge and checks,
// against from-scratch linkage computation, that (1) the recorded similarity
// is correct, (2) it was ≥ τ, (3) no other pair at that moment was strictly
// more similar, and (4) at termination every remaining pair is below τ.
// This validates the O(1) merge-update rules and the stop condition for all
// four linkage measures without depending on tie-breaking order.
func TestPropertyGreedyMaxAndThreshold(t *testing.T) {
	const tol = 1e-9
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := randomSet(rng, 4+rng.Intn(8))
		sp := feature.BuildLite(set, feature.DefaultConfig())
		tau := 0.05 + rng.Float64()*0.6
		for _, method := range Methods() {
			res := mustAgg(t, sp, NewLinkage(method), tau)

			// Replay.
			clusters := make(map[int][]int)
			for i := range set {
				clusters[i] = []int{i}
			}
			for _, m := range res.Merges {
				got := fromScratch(sp, method, clusters[m.A], clusters[m.B])
				if math.Abs(got-m.Sim) > tol {
					t.Logf("seed %d %v: recorded sim %v, from-scratch %v", seed, method, m.Sim, got)
					return false
				}
				if m.Sim < tau {
					t.Logf("seed %d %v: merged below tau", seed, method)
					return false
				}
				// Optimality: no pair strictly better.
				for a := range clusters {
					for b := range clusters {
						if a >= b {
							continue
						}
						if s := fromScratch(sp, method, clusters[a], clusters[b]); s > got+tol {
							t.Logf("seed %d %v: pair (%d,%d)=%v beats merge %v", seed, method, a, b, s, got)
							return false
						}
					}
				}
				clusters[m.A] = append(clusters[m.A], clusters[m.B]...)
				delete(clusters, m.B)
			}
			// Termination: all remaining pairs below tau.
			for a := range clusters {
				for b := range clusters {
					if a >= b {
						continue
					}
					if s := fromScratch(sp, method, clusters[a], clusters[b]); s >= tau+tol {
						t.Logf("seed %d %v: stopped with pair (%d,%d)=%v >= tau=%v", seed, method, a, b, s, tau)
						return false
					}
				}
			}
			// Partition must match the replayed clusters.
			if res.NumClusters() != len(clusters) {
				t.Logf("seed %d %v: %d clusters, replay has %d", seed, method, res.NumClusters(), len(clusters))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParseMethod(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Method
	}{
		{"avg", AvgJaccard}, {"avg-jaccard", AvgJaccard}, {"average", AvgJaccard},
		{"min", MinJaccard}, {"max", MaxJaccard}, {"total", TotalJaccard},
	} {
		got, err := ParseMethod(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMethod(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range Methods() {
		if m.String() == "" || NewLinkage(m).Name() != m.String() {
			t.Errorf("method %d: String/Name mismatch", int(m))
		}
	}
}

func TestAgglomerativeRejectsBadTau(t *testing.T) {
	sp := buildSpace(t, twoDomainSet())
	for _, tau := range []float64{math.NaN(), -0.1, 1.01, math.Inf(1), math.Inf(-1)} {
		if _, err := Agglomerative(sp, NewLinkage(AvgJaccard), tau); err == nil {
			t.Errorf("tau %v accepted; a NaN threshold would merge everything", tau)
		}
	}
	// The boundary values are legal.
	for _, tau := range []float64{0, 1} {
		if _, err := Agglomerative(sp, NewLinkage(AvgJaccard), tau); err != nil {
			t.Errorf("tau %v rejected: %v", tau, err)
		}
	}
}
