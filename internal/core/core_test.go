package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"schemaflow/internal/cluster"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

func pipeline(t *testing.T, set schema.Set, tau, theta float64) *Model {
	t.Helper()
	sp := feature.BuildLite(set, feature.DefaultConfig())
	cl, err := cluster.Agglomerative(sp, cluster.NewLinkage(cluster.AvgJaccard), tau)
	if err != nil {
		t.Fatal(err)
	}
	m, err := AssignDomains(set, sp, cl, Options{TauCSim: tau, Theta: theta})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func clusteredSet() schema.Set {
	return schema.Set{
		{Name: "bib1", Attributes: []string{"title", "authors", "publication year", "conference"}},
		{Name: "bib2", Attributes: []string{"paper title", "author", "year", "venue name"}},
		{Name: "bib3", Attributes: []string{"title", "author names", "publication year", "pages"}},
		{Name: "car1", Attributes: []string{"make", "model", "mileage", "price"}},
		{Name: "car2", Attributes: []string{"car make", "model", "color", "price"}},
		{Name: "odd1", Attributes: []string{"telescope aperture", "seismograph reading"}},
	}
}

func TestDomainsMirrorClusters(t *testing.T) {
	m := pipeline(t, clusteredSet(), 0.2, 0.02)
	if m.NumDomains() != m.Clustering.NumClusters() {
		t.Fatalf("domains=%d clusters=%d", m.NumDomains(), m.Clustering.NumClusters())
	}
	for r := range m.Domains {
		if m.Domains[r].ID != r {
			t.Fatalf("domain %d has ID %d", r, m.Domains[r].ID)
		}
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	m := pipeline(t, clusteredSet(), 0.2, 0.02)
	for i := range m.Schemas {
		total := 0.0
		for _, a := range m.DomainsOf(i) {
			if a.Prob <= 0 || a.Prob > 1 {
				t.Fatalf("schema %d: probability %v out of range", i, a.Prob)
			}
			total += a.Prob
		}
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("schema %d: probabilities sum to %v", i, total)
		}
	}
}

func TestMostSchemasCertain(t *testing.T) {
	// Thesis: "In practice, most schemas will belong to one domain with
	// probability 1." On a cleanly separable set all should be certain.
	m := pipeline(t, clusteredSet(), 0.2, 0.02)
	if got := m.UncertainCount(); got != 0 {
		t.Fatalf("uncertain schemas = %d, want 0 on separable data", got)
	}
	for i := range m.Schemas {
		as := m.DomainsOf(i)
		if len(as) != 1 || as[0].Prob != 1 {
			t.Fatalf("schema %d assignments: %+v", i, as)
		}
	}
}

func TestSchemaStaysInOwnClusterDomain(t *testing.T) {
	m := pipeline(t, clusteredSet(), 0.2, 0.02)
	for i := range m.Schemas {
		own := m.Clustering.Assign[i]
		if m.Prob(i, own) == 0 {
			t.Fatalf("schema %d has zero probability in its own cluster's domain", i)
		}
	}
}

func TestUncertainAssignmentWithHighTheta(t *testing.T) {
	// A schema genuinely between two clusters: with a wide θ it must be
	// assigned to both domains with fractional probabilities.
	set := schema.Set{
		{Name: "a1", Attributes: []string{"alpha one", "alpha two", "alpha three"}},
		{Name: "a2", Attributes: []string{"alpha one", "alpha two", "alpha four"}},
		{Name: "b1", Attributes: []string{"beta one", "beta two", "beta three"}},
		{Name: "b2", Attributes: []string{"beta one", "beta two", "beta four"}},
		{Name: "mid", Attributes: []string{"alpha one", "beta one", "alpha two", "beta two"}},
	}
	sp := feature.BuildLite(set, feature.DefaultConfig())
	// Fix the hard clustering explicitly (running HAC here would let the
	// boundary schema chain the two clusters together, which is a different
	// phenomenon): mid sits in the alpha cluster but is nearly as close to
	// the beta cluster.
	cl := cluster.FromAssignment([]int{0, 0, 1, 1, 0})
	m, err := AssignDomains(set, sp, cl, Options{TauCSim: 0.25, Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	as := m.DomainsOf(4) // "mid"
	if len(as) != 2 {
		t.Fatalf("mid schema assigned to %d domains, want 2: %+v", len(as), as)
	}
	for _, a := range as {
		if a.Prob <= 0 || a.Prob >= 1 {
			t.Fatalf("mid membership probability %v not fractional", a.Prob)
		}
	}
	if m.UncertainCount() == 0 {
		t.Fatal("UncertainCount = 0")
	}
}

func TestThetaZeroStillAllowsExactTies(t *testing.T) {
	// θ=0 keeps only clusters at the exact maximum similarity; a perfectly
	// symmetric boundary schema still splits.
	set := schema.Set{
		{Name: "a1", Attributes: []string{"alpha one", "alpha two"}},
		{Name: "b1", Attributes: []string{"beta one", "beta two"}},
		{Name: "mid", Attributes: []string{"alpha one", "beta one"}},
	}
	sp := feature.BuildLite(set, feature.DefaultConfig())
	// Force a clustering where mid is its own cluster.
	cl := cluster.FromAssignment([]int{0, 1, 2})
	m, err := AssignDomains(set, sp, cl, Options{TauCSim: 0.1, Theta: 0})
	if err != nil {
		t.Fatal(err)
	}
	// mid's own singleton cluster has similarity 1 — strictly the max — so
	// θ=0 assigns it only there.
	as := m.DomainsOf(2)
	if len(as) != 1 || as[0].Schema != 2 {
		t.Fatalf("mid assignments: %+v", as)
	}
}

func TestFallbackWhenNothingPassesGate(t *testing.T) {
	// τ_c_sim = 1.0 means no cluster (other than a singleton's own, whose
	// self-average is 1) passes; multi-schema clusters with sim < 1 trigger
	// the documented fallback.
	set := schema.Set{
		{Name: "a1", Attributes: []string{"alpha one", "alpha two", "gamma"}},
		{Name: "a2", Attributes: []string{"alpha one", "alpha two", "delta"}},
	}
	sp := feature.BuildLite(set, feature.DefaultConfig())
	cl := cluster.FromAssignment([]int{0, 0})
	m, err := AssignDomains(set, sp, cl, Options{TauCSim: 1.0, Theta: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for i := range set {
		if m.Prob(i, 0) != 1 {
			t.Fatalf("schema %d: fallback probability = %v, want 1", i, m.Prob(i, 0))
		}
	}
}

func TestValidation(t *testing.T) {
	set := clusteredSet()
	sp := feature.BuildLite(set, feature.DefaultConfig())
	cl, err := cluster.Agglomerative(sp, cluster.NewLinkage(cluster.AvgJaccard), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssignDomains(set[:2], sp, cl, DefaultOptions()); err == nil {
		t.Fatal("mismatched set size accepted")
	}
	if _, err := AssignDomains(set, sp, cl, Options{TauCSim: 0.2, Theta: 2}); err == nil {
		t.Fatal("theta > 1 accepted")
	}
}

func TestSingletonDomains(t *testing.T) {
	m := pipeline(t, clusteredSet(), 0.2, 0.02)
	singles := m.SingletonDomains()
	if len(singles) != 1 {
		t.Fatalf("singleton domains = %v, want exactly one (odd1)", singles)
	}
	if got := m.Domains[singles[0]].Cluster; len(got) != 1 || got[0] != 5 {
		t.Fatalf("singleton cluster = %v", got)
	}
}

func TestCertainUncertainSplit(t *testing.T) {
	d := Domain{Members: []Membership{
		{Schema: 0, Prob: 1},
		{Schema: 1, Prob: 0.6},
		{Schema: 2, Prob: 1},
	}}
	if c := d.Certain(); len(c) != 2 {
		t.Fatalf("Certain = %v", c)
	}
	if u := d.Uncertain(); len(u) != 1 || u[0].Schema != 1 {
		t.Fatalf("Uncertain = %v", u)
	}
	if d.Prob(1) != 0.6 || d.Prob(9) != 0 {
		t.Fatal("Domain.Prob broken")
	}
}

func TestRestoreModelRoundTrip(t *testing.T) {
	m := pipeline(t, clusteredSet(), 0.2, 0.02)
	memberships := make([][]Membership, len(m.Schemas))
	for i := range m.Schemas {
		memberships[i] = m.DomainsOf(i)
	}
	m2, err := RestoreModel(m.Schemas, m.Space, m.Clustering, memberships, m.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumDomains() != m.NumDomains() {
		t.Fatalf("restored %d domains, want %d", m2.NumDomains(), m.NumDomains())
	}
	for r := range m.Domains {
		if len(m2.Domains[r].Members) != len(m.Domains[r].Members) {
			t.Fatalf("domain %d: %d members, want %d", r, len(m2.Domains[r].Members), len(m.Domains[r].Members))
		}
		for k, mem := range m.Domains[r].Members {
			if m2.Domains[r].Members[k] != mem {
				t.Fatalf("domain %d member %d differs", r, k)
			}
		}
	}
}

func TestRestoreModelValidation(t *testing.T) {
	m := pipeline(t, clusteredSet(), 0.2, 0.02)
	if _, err := RestoreModel(m.Schemas, m.Space, m.Clustering, nil, m.Opts); err == nil {
		t.Fatal("wrong membership count accepted")
	}
	bad := make([][]Membership, len(m.Schemas))
	bad[0] = []Membership{{Schema: 999, Prob: 1}}
	if _, err := RestoreModel(m.Schemas, m.Space, m.Clustering, bad, m.Opts); err == nil {
		t.Fatal("out-of-range domain id accepted")
	}
}

func TestPin(t *testing.T) {
	m := pipeline(t, clusteredSet(), 0.2, 0.02)
	carDomain := m.Clustering.Assign[3]
	bibDomain := m.Clustering.Assign[0]
	if carDomain == bibDomain {
		t.Fatal("premise broken")
	}
	// Pin a bibliography schema into the cars domain.
	if err := m.Pin(0, carDomain); err != nil {
		t.Fatal(err)
	}
	as := m.DomainsOf(0)
	if len(as) != 1 || as[0].Schema != carDomain || as[0].Prob != 1 {
		t.Fatalf("pinned assignments: %+v", as)
	}
	if m.Prob(0, bibDomain) != 0 {
		t.Fatal("old membership survived the pin")
	}
	// Target domain's member list stays sorted and contains the schema.
	d := &m.Domains[carDomain]
	found := false
	for k, mem := range d.Members {
		if k > 0 && d.Members[k-1].Schema >= mem.Schema {
			t.Fatal("members unsorted after pin")
		}
		if mem.Schema == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("pinned schema missing from target domain")
	}
	// Old domain no longer lists it.
	for _, mem := range m.Domains[bibDomain].Members {
		if mem.Schema == 0 {
			t.Fatal("pinned schema still in old domain")
		}
	}
	// Pinning is idempotent.
	if err := m.Pin(0, carDomain); err != nil {
		t.Fatal(err)
	}
	if got := m.DomainsOf(0); len(got) != 1 || got[0].Prob != 1 {
		t.Fatalf("re-pin broke assignments: %+v", got)
	}
}

func TestPinValidation(t *testing.T) {
	m := pipeline(t, clusteredSet(), 0.2, 0.02)
	if err := m.Pin(-1, 0); err == nil {
		t.Fatal("bad schema accepted")
	}
	if err := m.Pin(0, 999); err == nil {
		t.Fatal("bad domain accepted")
	}
}

// TestPropertyInvariants checks, over random corpora and parameters:
// per-schema probabilities sum to 1, every probability is in (0,1], every
// member of D(S_i) passed the τ gate or is the fallback, and domain members
// are sorted.
func TestPropertyInvariants(t *testing.T) {
	words := []string{
		"title", "author", "year", "venue", "pages", "make", "model",
		"price", "color", "name", "phone", "email", "city", "genre",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		set := make(schema.Set, n)
		for i := range set {
			k := 2 + rng.Intn(4)
			attrs := make([]string, k)
			for j := range attrs {
				attrs[j] = words[rng.Intn(len(words))]
			}
			set[i] = schema.Schema{Name: "s", Attributes: attrs}
		}
		tau := 0.1 + rng.Float64()*0.5
		theta := rng.Float64() * 0.5
		sp := feature.BuildLite(set, feature.DefaultConfig())
		cl, err := cluster.Agglomerative(sp, cluster.NewLinkage(cluster.AvgJaccard), tau)
		if err != nil {
			return false
		}
		m, err := AssignDomains(set, sp, cl, Options{TauCSim: tau, Theta: theta})
		if err != nil {
			return false
		}
		for i := range set {
			total := 0.0
			for _, a := range m.DomainsOf(i) {
				if a.Prob <= 0 || a.Prob > 1+1e-12 {
					return false
				}
				total += a.Prob
			}
			if math.Abs(total-1) > 1e-9 {
				return false
			}
		}
		for r := range m.Domains {
			for k := 1; k < len(m.Domains[r].Members); k++ {
				if m.Domains[r].Members[k-1].Schema >= m.Domains[r].Members[k].Schema {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAssignDomainsMatchesDefinition holds Algorithm 3's one implementation
// to the definition of s_c_sim from both of its similarity sources, the space
// read row by row (AssignDomains) and a pair adjacency holding every pair
// (AssignDomainsSparse): every membership probability must equal — with ==,
// not to a tolerance — what the gates produce from a plain
// cluster.SchemaClusterSim loop over every (schema, cluster) pair. Both sum
// the same terms; this pins that they sum them in the same order, self term
// included. θ is wide so
// that most schemas carry several memberships: a schema with one domain has
// probability 1 whatever the last bits of its similarities are.
func TestAssignDomainsMatchesDefinition(t *testing.T) {
	corpora := map[string]schema.Set{
		"dw+ss":      dataset.Union(dataset.DW(1), dataset.SS(1)),
		"ddh":        dataset.DDH(1),
		"large-1500": dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1}),
	}
	for name, set := range corpora {
		sp := feature.BuildLite(set, feature.DefaultConfig())
		for _, method := range cluster.Methods() {
			cl, err := cluster.Agglomerative(sp, cluster.NewLinkage(method), 0.25)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{TauCSim: 0.25, Theta: 0.3}
			fromSpace, err := AssignDomains(set, sp, cl, opts)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := cluster.CompletePairSims(context.Background(), sp, 0)
			if err != nil {
				t.Fatal(err)
			}
			fromPairs, err := AssignDomainsSparse(set, sp, cl, ps, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := newModel(set, sp, cl, opts)
			sims := make([]float64, cl.NumClusters())
			uncertain := 0
			for i := range set {
				for r := range sims {
					sims[r] = cluster.SchemaClusterSim(sp, i, cl.Members[r])
				}
				want.addMemberships(i, Gate(sims, nil, opts), cl.Assign[i])
				if len(want.DomainsOf(i)) > 1 {
					uncertain++
				}
			}
			for source, got := range map[string]*Model{"AssignDomains": fromSpace, "AssignDomainsSparse": fromPairs} {
				for i := range set {
					if g, w := got.DomainsOf(i), want.DomainsOf(i); !slices.Equal(g, w) {
						t.Fatalf("%s/%v: %s gives schema %d memberships %+v, the definition %+v", name, method, source, i, g, w)
					}
				}
			}
			t.Logf("%s/%v: %d of %d schemas in several domains", name, method, uncertain, len(set))
		}
	}
}

// TestPropertySparseGateIsTheDenseGate: from an adjacency, with τ_c_sim > 0,
// Algorithm 3 divides, gates and clears only the clusters a schema touches.
// Its memberships must equal — with == — those of the definition's loop over
// every cluster: sums over the stored pairs in ascending j with the self term
// in place, every slot divided, Gate over all of them. The adjacencies are
// the blocked build's, the pairs at or above feature.PairFloor (most
// clusters untouched by most schemas); τ takes 0.25, a stored
// schema-to-cluster similarity and its two float neighbours (the gate's ≥
// decided at the last bit). With τ ≤ 0 a zero similarity passes
// the gate, so every cluster must still be gated: at θ = 1 every schema is a
// member of every domain.
func TestPropertySparseGateIsTheDenseGate(t *testing.T) {
	ctx := context.Background()
	corpora := map[string]schema.Set{
		"dw+ss":      dataset.Union(dataset.DW(1), dataset.SS(1)),
		"large-1500": dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1}),
	}
	isolated := 0
	for name, set := range corpora {
		n := len(set)
		sp := feature.BuildLite(set, feature.DefaultConfig())
		ps, err := cluster.CompletePairSims(ctx, sp, feature.PairFloor)
		if err != nil {
			t.Fatal(err)
		}
		if ps.NumPairs() == 0 || ps.NumPairs() >= n*(n-1)/2 {
			t.Fatalf("%s: %d of %d pairs stored, want a proper subset", name, ps.NumPairs(), n*(n-1)/2)
		}
		for _, method := range cluster.Methods() {
			cl, err := cluster.AgglomerativeSparse(ctx, sp, cluster.NewLinkage(method), 0.25, ps, cluster.SparseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			nC := cl.NumClusters()
			// The definition, every slot of every row.
			sims := make([][]float64, n)
			stored, other := 0.0, false // a similarity to a cluster, not one's own where there is one
			for i := range sims {
				row, selfAdded := make([]float64, nC), false
				js, ss := ps.Row(i)
				for k, j := range js {
					if !selfAdded && int(j) > i {
						row[cl.Assign[i]]++
						selfAdded = true
					}
					row[cl.Assign[j]] += ss[k]
				}
				if !selfAdded {
					row[cl.Assign[i]]++
				}
				for r := range row {
					row[r] /= float64(len(cl.Members[r]))
					if foreign := r != cl.Assign[i]; row[r] > 0 && row[r] < 1 && !other && (stored == 0 || foreign) {
						stored, other = row[r], foreign
					}
				}
				sims[i] = row
			}
			if stored == 0 {
				t.Fatalf("%s/%v: no schema-to-cluster similarity inside (0,1)", name, method)
			}
			check := func(opts Options) *Model {
				got, err := AssignDomainsSparse(set, sp, cl, ps, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := newModel(set, sp, cl, opts)
				for i := range set {
					want.addMemberships(i, Gate(sims[i], nil, opts), cl.Assign[i])
					if g, w := got.DomainsOf(i), want.DomainsOf(i); !slices.Equal(g, w) {
						t.Fatalf("%s/%v %+v: schema %d memberships %+v, every cluster gated %+v", name, method, opts, i, g, w)
					}
				}
				return got
			}
			for _, theta := range []float64{0, 0.02, 0.3} {
				for _, tau := range []float64{0.25, stored, math.Nextafter(stored, 0), math.Nextafter(stored, 1)} {
					got := check(Options{TauCSim: tau, Theta: theta})
					for i := range set {
						if ps.Degree(i) > 0 {
							continue
						}
						isolated++
						if g := got.DomainsOf(i); len(g) != 1 || g[0] != (Membership{Schema: cl.Assign[i], Prob: 1}) {
							t.Fatalf("%s/%v: schema %d has no stored neighbour and memberships %+v, want its own cluster", name, method, i, g)
						}
					}
				}
			}
			for _, tau := range []float64{0, -1} {
				got := check(Options{TauCSim: tau, Theta: 1})
				for i := range set {
					if len(got.DomainsOf(i)) != nC {
						t.Fatalf("%s/%v τ=%v θ=1: schema %d is in %d of %d domains; a zero similarity passes this gate", name, method, tau, i, len(got.DomainsOf(i)), nC)
					}
				}
			}
		}
	}
	if isolated == 0 {
		t.Error("no corpus held a schema without a stored neighbour")
	}
}

// TestAssignDomainsIsWorkerCountInvariant: Algorithm 3 fans schemas out over
// the CPUs and records their memberships in schema order afterwards, so the
// model — domains, member order, per-schema lists — must be what one
// goroutine builds, at 1, 2 and 7 workers, through every entry point, over
// the complete pair set and the blocked build's, with τ_c_sim > 0 (only the
// touched clusters gated) and ≤ 0 (every cluster gated). AssignDomainsRows,
// which reads the graph off the space unstored, must build the model
// AssignDomainsSparse builds from the stored graph.
func TestAssignDomainsIsWorkerCountInvariant(t *testing.T) {
	ctx := context.Background()
	set := dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1})
	sp := feature.BuildLite(set, feature.DefaultConfig())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, source := range []string{"complete", "filtered"} {
		var floor float64
		if source == "filtered" {
			floor = feature.PairFloor
		}
		ps, err := cluster.CompletePairSims(ctx, sp, floor)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.AgglomerativeSparse(ctx, sp, cluster.NewLinkage(cluster.AvgJaccard), 0.25, ps, cluster.SparseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{TauCSim: 0.25, Theta: 0.02}, {TauCSim: 0.25, Theta: 0.3}, {TauCSim: 0, Theta: 0.02}} {
			entries := map[string]func() (*Model, error){
				"AssignDomains":       func() (*Model, error) { return AssignDomains(set, sp, cl, opts) },
				"AssignDomainsSparse": func() (*Model, error) { return AssignDomainsSparse(set, sp, cl, ps, opts) },
				"AssignDomainsRows":   func() (*Model, error) { return AssignDomainsRows(set, sp, cl, floor, opts) },
			}
			runtime.GOMAXPROCS(2)
			stored, err := entries["AssignDomainsSparse"]()
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := entries["AssignDomainsRows"]()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed, stored) {
				t.Fatalf("%s %+v: AssignDomainsRows differs from AssignDomainsSparse over the stored graph", source, opts)
			}
			for name, assign := range entries {
				if source == "filtered" && name == "AssignDomains" {
					continue // reads every positive pair, not ps
				}
				runtime.GOMAXPROCS(1)
				want, err := assign()
				if err != nil {
					t.Fatal(err)
				}
				if want.UncertainCount() == 0 {
					t.Fatalf("%s %s %+v: no uncertain membership; the corpus should have some", source, name, opts)
				}
				for _, procs := range []int{2, 7} {
					runtime.GOMAXPROCS(procs)
					got, err := assign()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s %+v, GOMAXPROCS %d: model differs from one worker's", source, name, opts, procs)
					}
				}
			}
		}
	}
}
