package feedback

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"schemaflow/internal/classify"
	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/engine"
	"schemaflow/internal/feature"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
)

func testSet() schema.Set {
	return schema.Set{
		{Name: "bib1", Attributes: []string{"title", "authors", "publication year", "conference"}},
		{Name: "bib2", Attributes: []string{"paper title", "author", "year", "venue name"}},
		{Name: "bib3", Attributes: []string{"title", "author names", "publication year", "pages"}},
		{Name: "car1", Attributes: []string{"make", "model", "mileage", "price"}},
		{Name: "car2", Attributes: []string{"car make", "model", "color", "price"}},
		{Name: "odd1", Attributes: []string{"telescope aperture", "seismograph reading"}},
	}
}

// exact is the pair floor of an exact build: every positive pair.
func exact(int) float64 { return 0 }

func buildModel(t *testing.T, set schema.Set) *core.Model {
	t.Helper()
	sp := feature.BuildLite(set, feature.DefaultConfig())
	cl, err := cluster.Agglomerative(sp, cluster.NewLinkage(cluster.AvgJaccard), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.AssignDomains(set, sp, cl, core.Options{TauCSim: 0.2, Theta: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMoveSchema(t *testing.T) {
	m := buildModel(t, testSet())
	bibDomain := m.Clustering.Assign[0]
	carDomain := m.Clustering.Assign[3]
	if bibDomain == carDomain {
		t.Fatal("premise broken: bib and cars merged")
	}

	s := NewSession(m)
	if err := s.MoveSchema(2, carDomain); err != nil { // bib3 → cars, against similarity
		t.Fatal(err)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	res, err := s.Apply(exact)
	if err != nil {
		t.Fatal(err)
	}
	newCar := res.DomainMap[carDomain]
	if newCar < 0 {
		t.Fatal("car domain vanished")
	}
	if res.Model.Clustering.Assign[2] != newCar {
		t.Fatalf("bib3 in domain %d, want %d", res.Model.Clustering.Assign[2], newCar)
	}
	// Pinned: certain membership despite being dissimilar to its cluster.
	as := res.Model.DomainsOf(2)
	if len(as) != 1 || as[0].Prob != 1 || as[0].Schema != newCar {
		t.Fatalf("moved schema assignments: %+v", as)
	}
	// The original model must be untouched.
	if m.Clustering.Assign[2] == carDomain {
		t.Fatal("input model mutated")
	}
}

func TestMergeDomains(t *testing.T) {
	m := buildModel(t, testSet())
	bibDomain := m.Clustering.Assign[0]
	carDomain := m.Clustering.Assign[3]

	s := NewSession(m)
	if err := s.MergeDomains(bibDomain, carDomain); err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(exact)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.NumDomains() != m.NumDomains()-1 {
		t.Fatalf("domains: %d → %d, want one fewer", m.NumDomains(), res.Model.NumDomains())
	}
	// Both old ids map to the same new domain.
	if res.DomainMap[bibDomain] != res.DomainMap[carDomain] {
		t.Fatalf("merge map: %v vs %v", res.DomainMap[bibDomain], res.DomainMap[carDomain])
	}
	merged := res.DomainMap[bibDomain]
	for _, i := range []int{0, 1, 2, 3, 4} {
		if res.Model.Clustering.Assign[i] != merged {
			t.Fatalf("schema %d not in merged domain", i)
		}
	}
}

func TestSplitSchema(t *testing.T) {
	m := buildModel(t, testSet())
	s := NewSession(m)
	if err := s.SplitSchema(2); err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(exact)
	if err != nil {
		t.Fatal(err)
	}
	fresh, ok := res.NewDomainOf[2]
	if !ok {
		t.Fatal("no fresh domain recorded")
	}
	members := res.Model.Clustering.Members[fresh]
	if len(members) != 1 || members[0] != 2 {
		t.Fatalf("fresh domain members = %v", members)
	}
	as := res.Model.DomainsOf(2)
	if len(as) != 1 || as[0].Prob != 1 {
		t.Fatalf("split schema assignments: %+v", as)
	}
}

func TestSessionValidation(t *testing.T) {
	m := buildModel(t, testSet())
	s := NewSession(m)
	if err := s.MoveSchema(99, 0); err == nil {
		t.Fatal("bad schema accepted")
	}
	if err := s.MoveSchema(0, 99); err == nil {
		t.Fatal("bad domain accepted")
	}
	if err := s.MergeDomains(0, 0); err == nil {
		t.Fatal("self-merge accepted")
	}
	if err := s.SplitSchema(-1); err == nil {
		t.Fatal("negative schema accepted")
	}
}

func TestMoveThenSplitLastWins(t *testing.T) {
	m := buildModel(t, testSet())
	s := NewSession(m)
	carDomain := m.Clustering.Assign[3]
	if err := s.MoveSchema(0, carDomain); err != nil {
		t.Fatal(err)
	}
	if err := s.SplitSchema(0); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (split replaced move)", s.Pending())
	}
	res, err := s.Apply(exact)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.NewDomainOf[0]; !ok {
		t.Fatal("split did not win")
	}
}

func TestAddSchemaJoinsSimilarDomain(t *testing.T) {
	m := buildModel(t, testSet())
	bibDomain := m.Clustering.Assign[0]
	newModel, domain, err := AddSchema(m, schema.Schema{
		Name:       "bib4",
		Attributes: []string{"title", "authors", "publication year", "publisher"},
	}, exact)
	if err != nil {
		t.Fatal(err)
	}
	if domain != bibDomain {
		t.Fatalf("new bibliography schema joined domain %d, want %d", domain, bibDomain)
	}
	if len(newModel.Schemas) != len(m.Schemas)+1 {
		t.Fatal("schema not added")
	}
	// Existing schemas keep their clusters.
	for i := range m.Schemas {
		if newModel.Clustering.Assign[i] != m.Clustering.Assign[i] {
			t.Fatalf("schema %d moved from %d to %d during incremental add",
				i, m.Clustering.Assign[i], newModel.Clustering.Assign[i])
		}
	}
}

func TestAddSchemaDissimilarBecomesSingleton(t *testing.T) {
	m := buildModel(t, testSet())
	newModel, domain, err := AddSchema(m, schema.Schema{
		Name:       "weird",
		Attributes: []string{"glacier thickness", "beekeeping yield"},
	}, exact)
	if err != nil {
		t.Fatal(err)
	}
	members := newModel.Clustering.Members[domain]
	if len(members) != 1 {
		t.Fatalf("dissimilar schema joined %v", members)
	}
	if newModel.NumDomains() != m.NumDomains()+1 {
		t.Fatal("no fresh domain created")
	}
}

func TestAddSchemaValidates(t *testing.T) {
	m := buildModel(t, testSet())
	if _, _, err := AddSchema(m, schema.Schema{Name: "empty"}, exact); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestClickLogRerank(t *testing.T) {
	m := buildModel(t, testSet())
	cls, err := classify.New(m, classify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// An ambiguous query: "price" occurs in both car schemas only, so cars
	// should win initially; clicks on the bibliography domain must be able
	// to flip a *nearby* ranking but leave confident rankings intact.
	scores := cls.Classify([]string{"price"})
	cl := NewClickLog(m.NumDomains())

	// No clicks: ranking unchanged.
	rr := cl.Rerank(scores)
	for i := range scores {
		if rr[i].Domain != scores[i].Domain {
			t.Fatal("empty click log changed the ranking")
		}
	}

	// Hammer clicks on the runner-up until it overtakes.
	runnerUp := scores[1].Domain
	for i := 0; i < 1000; i++ {
		cl.Record(runnerUp)
	}
	rr = cl.Rerank(scores)
	if rr[0].Domain != runnerUp {
		t.Fatalf("click-heavy domain did not rise: %+v", rr[:2])
	}
	// Posteriors stay normalized.
	sum := 0.0
	for _, s := range rr {
		sum += s.Posterior
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posteriors sum to %v", sum)
	}
}

func TestClickLogIgnoresUnknownDomains(t *testing.T) {
	cl := NewClickLog(2)
	cl.Record(-1)
	cl.Record(5)
	if cl.Clicks(0) != 0 || cl.Clicks(5) != 0 {
		t.Fatal("unknown domain recorded")
	}
}

func TestCheckConsistency(t *testing.T) {
	// Two name/city sources with overlapping values, one "biology" source
	// whose 'family name' values are taxonomic ranks — inconsistent.
	set := schema.Set{
		{Name: "people1", Attributes: []string{"family name", "city"}},
		{Name: "people2", Attributes: []string{"family name", "city"}},
		{Name: "biology", Attributes: []string{"family name", "city"}},
	}
	opts := mediate.DefaultOptions()
	opts.Negative = true
	med, err := mediate.Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	sources := []engine.Source{
		{Schema: set[0], Tuples: []engine.Tuple{{"Okafor", "Lima"}, {"Silva", "Oslo"}}},
		{Schema: set[1], Tuples: []engine.Tuple{{"Okafor", "Lima"}, {"Tanaka", "Perth"}}},
		{Schema: set[2], Tuples: []engine.Tuple{{"Felidae", "Savanna"}, {"Canidae", "Tundra"}}},
	}
	sugg, err := CheckConsistency(med, sources, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) == 0 {
		t.Fatal("no suggestions; biology source should be flagged")
	}
	if sugg[0].Name != "biology" {
		t.Fatalf("worst source = %q, want biology", sugg[0].Name)
	}
	if sugg[0].Overlap >= 0.4 {
		t.Fatalf("flagged overlap %v not below threshold", sugg[0].Overlap)
	}
	// The consistent people sources must not be flagged: they overlap on
	// "Okafor"/"Lima". (Their overlap with biology is 0, but their overlap
	// with *each other* is counted as the best peer.)
	for _, s := range sugg {
		if s.Name == "people1" || s.Name == "people2" {
			t.Fatalf("consistent source flagged: %+v", s)
		}
	}
}

func TestCheckConsistencyNoData(t *testing.T) {
	set := schema.Set{{Name: "a", Attributes: []string{"x y z"}}}
	opts := mediate.DefaultOptions()
	opts.Negative = true
	med, _ := mediate.Build(set, opts)
	sugg, err := CheckConsistency(med, []engine.Source{{Schema: set[0]}}, 0.5)
	if err != nil || len(sugg) != 0 {
		t.Fatalf("no-data check: %v %v", sugg, err)
	}
	if _, err := CheckConsistency(med, nil, 0.5); err == nil {
		t.Fatal("source count mismatch accepted")
	}
}

// AddSchema renumbers the extended assignment through cluster.FromAssignment,
// which assigns dense ids by first appearance. Because the incumbent model's
// ids are already dense in first-appearance order and the newcomer is
// appended last, every existing domain id must survive verbatim — for both a
// joining arrival and a fresh singleton — so callers holding domain ids
// (journals, UIs, click logs) are not invalidated by an incremental add.
func TestAddSchemaPreservesDomainIDs(t *testing.T) {
	m := buildModel(t, testSet())
	arrivals := []schema.Schema{
		{Name: "bib-new", Attributes: []string{"title", "authors", "publication year", "publisher"}},
		{Name: "weird-new", Attributes: []string{"glacier thickness", "beekeeping yield"}},
	}
	for _, s := range arrivals {
		newModel, domain, err := AddSchema(m, s, exact)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Schemas {
			if got, want := newModel.Clustering.Assign[i], m.Clustering.Assign[i]; got != want {
				t.Fatalf("%s: schema %d moved from domain %d to %d", s.Name, i, want, got)
			}
		}
		for r := 0; r < m.NumDomains(); r++ {
			if newModel.Domains[r].Members == nil {
				t.Fatalf("%s: domain %d lost its members", s.Name, r)
			}
		}
		if domain >= m.NumDomains() && domain != m.NumDomains() {
			t.Fatalf("%s: fresh domain id %d, want %d", s.Name, domain, m.NumDomains())
		}
	}
}

// TestAddSchemaGrowsTheSpaceByExtend: the arrival is compared on the model's
// own space, and the model AddSchema returns holds the space Extend builds —
// N+1 schemas, Extend's vocabulary in Extend's order, and its vectors bit for
// bit — along a chain of arrivals with known, novel and no matching terms.
func TestAddSchemaGrowsTheSpaceByExtend(t *testing.T) {
	m := buildModel(t, testSet())
	arrivals := []schema.Schema{
		{Name: "bib-new", Attributes: []string{"title", "authors", "publication year", "publisher"}},
		{Name: "car-new", Attributes: []string{"car makes", "models", "mileage"}},
		{Name: "weird-new", Attributes: []string{"glacier thickness", "beekeeping yield"}},
		{Name: "known", Attributes: testSet()[3].Attributes},
	}
	for _, s := range arrivals {
		want, newIdx := m.Space.Extend(s)
		grown, _, err := AddSchema(m, s, exact)
		if err != nil {
			t.Fatal(err)
		}
		got := grown.Space
		if got.NumSchemas() != len(m.Schemas)+1 || newIdx != len(m.Schemas) || len(grown.Schemas) != got.NumSchemas() {
			t.Fatalf("%s: model of %d schemas grew to a space of %d (model %d), want %d", s.Name, len(m.Schemas), got.NumSchemas(), len(grown.Schemas), len(m.Schemas)+1)
		}
		if got.Dim() != want.Dim() || !slices.Equal(got.Vocab, want.Vocab) {
			t.Fatalf("%s: vocabulary %v, Extend's %v", s.Name, got.Vocab, want.Vocab)
		}
		for i, v := range want.Vectors {
			if !got.Vectors[i].Equal(v) {
				t.Fatalf("%s: schema %d's vector %v, Extend's %v", s.Name, i, got.Vectors[i], v)
			}
		}
		m = grown
	}
}

// TestServingPathAllocatesPerClusterNotPerPair holds AddSchema and Apply —
// what POST /feedback and ingest run, on the served space, which can be any
// size — to working memory that does not grow with the number of schema
// pairs. DDH is the corpus to check it on: 89% of its 2.7M pairs have positive
// similarity, so a pair adjacency (12 B per pair and direction) would be 58 MB.
func TestServingPathAllocatesPerClusterNotPerPair(t *testing.T) {
	set := dataset.DDH(1)
	sp := feature.BuildLite(set, feature.DefaultConfig())
	assign := make([]int, len(set))
	for i := range assign {
		assign[i] = i % 40
	}
	m, err := core.AssignDomains(set, sp, cluster.FromAssignment(assign), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const limit = 16 << 20
	if got := allocated(func() {
		if _, _, err := AddSchema(m, schema.Schema{Name: "late", Attributes: set[0].Attributes}, exact); err != nil {
			t.Fatal(err)
		}
	}); got > limit {
		t.Errorf("AddSchema over %d schemas allocated %d MB, want under %d MB", len(set), got>>20, limit>>20)
	}
	s := NewSession(m)
	if err := s.SplitSchema(0); err != nil {
		t.Fatal(err)
	}
	if got := allocated(func() {
		if _, err := s.Apply(exact); err != nil {
			t.Fatal(err)
		}
	}); got > limit {
		t.Errorf("Apply over %d schemas allocated %d MB, want under %d MB", len(set), got>>20, limit>>20)
	}
}
