package engine

import (
	"math"
	"testing"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/feature"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
)

// mediatedFixture builds a two-source travel domain with overlapping
// attribute vocabularies and hand-checkable mappings.
func mediatedFixture(t *testing.T) (*mediate.Mediated, []Source) {
	t.Helper()
	set := schema.Set{
		{Name: "air1", Attributes: []string{"departure", "destination", "airline"}},
		{Name: "air2", Attributes: []string{"departure city", "destination city", "carrier name"}},
	}
	opts := mediate.DefaultOptions()
	opts.Negative = true
	med, err := mediate.Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	sources := []Source{
		{Schema: set[0], Tuples: []Tuple{
			{"Toronto", "Cairo", "AirNorth"},
			{"Lima", "Oslo", "SkyWays"},
		}},
		{Schema: set[1], Tuples: []Tuple{
			{"Toronto", "Cairo", "BlueJet"},
		}},
	}
	return med, sources
}

func TestExecuteSelectsAndFilters(t *testing.T) {
	med, sources := mediatedFixture(t)
	ex, err := NewDomainExecutor(med, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	dst := med.Attrs[med.AttrIndex("destination")].Name
	res, err := ex.Execute(Query{
		Select: []string{dep, dst},
		Where:  map[string]string{dep: "toronto"}, // case-insensitive
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for _, r := range res {
		if r.Values[0] != "Toronto" {
			t.Fatalf("Where not applied: %+v", r)
		}
		if r.Prob <= 0 || r.Prob > 1 {
			t.Fatalf("tuple probability %v", r.Prob)
		}
	}
	// Results sorted descending by probability.
	for i := 1; i < len(res); i++ {
		if res[i-1].Prob < res[i].Prob {
			t.Fatal("results not sorted")
		}
	}
}

func TestMembershipProbabilityScalesTuples(t *testing.T) {
	med, sources := mediatedFixture(t)
	full, err := NewDomainExecutor(med, sources, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	half, err := NewDomainExecutor(med, sources, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	q := Query{Select: []string{dep}}
	rf, _ := full.Execute(q)
	rh, _ := half.Execute(q)
	if len(rf) == 0 || len(rh) == 0 {
		t.Fatal("no results")
	}
	// Halving Pr(S ∈ D) must strictly lower every tuple probability.
	probs := func(rs []ResultTuple) map[string]float64 {
		out := make(map[string]float64)
		for _, r := range rs {
			out[r.Values[0]] = r.Prob
		}
		return out
	}
	pf, ph := probs(rf), probs(rh)
	for k, v := range ph {
		if v >= pf[k] {
			t.Fatalf("tuple %q: prob %v with membership 0.5, %v with 1", k, v, pf[k])
		}
	}
}

func TestZeroMembershipSkipsSource(t *testing.T) {
	med, sources := mediatedFixture(t)
	ex, err := NewDomainExecutor(med, sources, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	res, err := ex.Execute(Query{Select: []string{dep}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		for _, src := range r.Sources {
			if src == "air2" {
				t.Fatalf("zero-probability source contributed: %+v", r)
			}
		}
	}
}

func TestCrossSourceConsolidationNoisyOr(t *testing.T) {
	// Two sources each contributing the identical projected tuple with
	// probabilities p1, p2 must consolidate to 1-(1-p1)(1-p2).
	set := schema.Set{
		{Name: "a", Attributes: []string{"city"}},
		{Name: "b", Attributes: []string{"city"}},
	}
	opts := mediate.DefaultOptions()
	opts.Negative = true
	med, err := mediate.Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	sources := []Source{
		{Schema: set[0], Tuples: []Tuple{{"Toronto"}}},
		{Schema: set[1], Tuples: []Tuple{{"Toronto"}}},
	}
	ex, err := NewDomainExecutor(med, sources, []float64{0.8, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Execute(Query{Select: []string{"city"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d tuples, want 1 consolidated", len(res))
	}
	// Single-attribute schemas map with probability 1 to the lone mediated
	// attribute candidate... the beam also carries an unmapped alternative,
	// so extract the actual mapping probabilities.
	p1 := mappingProbTo(med, 0, med.AttrIndex("city")) * 0.8
	p2 := mappingProbTo(med, 1, med.AttrIndex("city")) * 0.5
	want := 1 - (1-p1)*(1-p2)
	if math.Abs(res[0].Prob-want) > 1e-12 {
		t.Fatalf("consolidated prob = %v, want %v", res[0].Prob, want)
	}
	if len(res[0].Sources) != 2 {
		t.Fatalf("sources = %v", res[0].Sources)
	}
}

// mappingProbTo sums the probabilities of the mappings of schema i that send
// its attribute 0 to mediated attribute mi.
func mappingProbTo(med *mediate.Mediated, i, mi int) float64 {
	total := 0.0
	for _, mp := range med.Mappings[i] {
		if mp.AttrTo[0] == mi {
			total += mp.Prob
		}
	}
	return total
}

func TestSameRawTupleConsolidationBySum(t *testing.T) {
	// Two different mappings of one raw tuple that project identically must
	// consolidate by *summing* mapping probabilities (Section 4.4). With a
	// Select that no mapping populates, every mapping projects the empty
	// value — forcing the collision.
	med, sources := mediatedFixture(t)
	ex, err := NewDomainExecutor(med, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	res, err := ex.Execute(Query{Select: []string{dep}})
	if err != nil {
		t.Fatal(err)
	}
	// Multiple mappings of one raw tuple projecting to the same value sum
	// their mapping probabilities; the result must stay a probability.
	for _, r := range res {
		if r.Prob > 1+1e-12 || r.Prob <= 0 {
			t.Fatalf("probability out of range: %+v", r)
		}
		if r.Values[0] == "" {
			t.Fatalf("all-empty projection surfaced: %+v", r)
		}
	}
}

func TestQueryLimit(t *testing.T) {
	med, sources := mediatedFixture(t)
	ex, err := NewDomainExecutor(med, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	full, err := ex.Execute(Query{Select: []string{dep}})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Fatalf("fixture too small: %d tuples", len(full))
	}
	limited, err := ex.Execute(Query{Select: []string{dep}, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 {
		t.Fatalf("Limit=1 returned %d tuples", len(limited))
	}
	// The survivor is the top tuple of the unlimited run, with the same
	// probability (Limit truncates; it never rescales).
	if limited[0].Prob != full[0].Prob || limited[0].Values[0] != full[0].Values[0] {
		t.Fatalf("limited top %+v != full top %+v", limited[0], full[0])
	}
}

func TestFromModel(t *testing.T) {
	set := schema.Set{
		{Name: "air1", Attributes: []string{"departure", "destination", "airline"}},
		{Name: "air2", Attributes: []string{"departure city", "destination city", "carrier"}},
		{Name: "bib1", Attributes: []string{"title", "authors", "pages"}},
	}
	sp := feature.BuildLite(set, feature.DefaultConfig())
	cl := cluster.FromAssignment([]int{0, 0, 1})
	memberships := [][]core.Membership{
		{{Schema: 0, Prob: 1}},
		{{Schema: 0, Prob: 0.8}, {Schema: 1, Prob: 0.2}},
		{{Schema: 1, Prob: 1}},
	}
	m, err := core.RestoreModel(set, sp, cl, memberships, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := mediate.DefaultOptions()
	opts.Negative = true
	mediated := make([]*mediate.Mediated, m.NumDomains())
	for r := range m.Domains {
		var members schema.Set
		for _, mem := range m.Domains[r].Members {
			members = append(members, set[mem.Schema])
		}
		mediated[r], err = mediate.Build(members, opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	sources := []Source{
		{Schema: set[0], Tuples: []Tuple{{"YYZ", "CAI", "AirNorth"}}},
		{Schema: set[1], Tuples: []Tuple{{"YYZ", "CAI", "BlueJet"}}},
		{Schema: set[2]},
	}
	executors, err := FromModel(m, mediated, sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(executors) != m.NumDomains() {
		t.Fatalf("%d executors for %d domains", len(executors), m.NumDomains())
	}
	// The travel domain answers with both sources; air2's tuple carries its
	// 0.8 membership discount.
	travel := cl.Assign[0]
	dep := mediated[travel].Attrs[mediated[travel].AttrIndex("departure")].Name
	res, err := executors[travel].Execute(Query{Select: []string{dep}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no tuples from model-built executor")
	}

	// Validation: wrong slice lengths are rejected.
	if _, err := FromModel(m, mediated[:1], sources); err == nil {
		t.Fatal("mediated-count mismatch accepted")
	}
	if _, err := FromModel(m, mediated, sources[:1]); err == nil {
		t.Fatal("source-count mismatch accepted")
	}
}

func TestExecuteErrors(t *testing.T) {
	med, sources := mediatedFixture(t)
	ex, _ := NewDomainExecutor(med, sources, nil)
	if _, err := ex.Execute(Query{Select: []string{"nonexistent"}}); err == nil {
		t.Fatal("unknown Select attribute accepted")
	}
	if _, err := ex.Execute(Query{Where: map[string]string{"nonexistent": "x"}}); err == nil {
		t.Fatal("unknown Where attribute accepted")
	}
}

func TestNewDomainExecutorValidation(t *testing.T) {
	med, sources := mediatedFixture(t)
	if _, err := NewDomainExecutor(med, sources[:1], nil); err == nil {
		t.Fatal("source/schema count mismatch accepted")
	}
	if _, err := NewDomainExecutor(med, sources, []float64{1}); err == nil {
		t.Fatal("membership count mismatch accepted")
	}
	bad := []Source{sources[0], {Schema: sources[1].Schema, Tuples: []Tuple{{"only one value"}}}}
	if _, err := NewDomainExecutor(med, bad, nil); err == nil {
		t.Fatal("ragged tuple accepted")
	}
}

func TestSourceValidate(t *testing.T) {
	s := Source{
		Schema: schema.Schema{Name: "x", Attributes: []string{"a", "b"}},
		Tuples: []Tuple{{"1", "2"}, {"3"}},
	}
	if err := s.Validate(); err == nil {
		t.Fatal("ragged source accepted")
	}
}
