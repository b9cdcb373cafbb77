package engine

import (
	"context"
	"math"
	"testing"

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

// asFetchers lists in-memory sources as the TupleSources NewFetchExecutor
// takes.
func asFetchers(sources []Source) []TupleSource {
	out := make([]TupleSource, len(sources))
	for i, s := range sources {
		out[i] = s
	}
	return out
}

// execute runs q through ExecuteContext and returns its tuples.
func execute(ex *DomainExecutor, q Query) ([]ResultTuple, error) {
	res, err := ex.ExecuteContext(context.Background(), q)
	if err != nil {
		return nil, err
	}
	return res.Tuples, nil
}

func TestExecuteSelectsAndFilters(t *testing.T) {
	med, sources := mediatedFixture(t)
	ex, err := NewFetchExecutor(med, asFetchers(sources), nil)
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	dst := med.Attrs[med.AttrIndex("destination")].Name
	res, err := execute(ex, Query{
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
	full, err := NewFetchExecutor(med, asFetchers(sources), []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	half, err := NewFetchExecutor(med, asFetchers(sources), []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	q := Query{Select: []string{dep}}
	rf, _ := execute(full, q)
	rh, _ := execute(half, q)
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
	ex, err := NewFetchExecutor(med, asFetchers(sources), []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	res, err := execute(ex, Query{Select: []string{dep}})
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
	ex, err := NewFetchExecutor(med, asFetchers(sources), []float64{0.8, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(ex, Query{Select: []string{"city"}})
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
	ex, err := NewFetchExecutor(med, asFetchers(sources), nil)
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	res, err := execute(ex, Query{Select: []string{dep}})
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
	ex, err := NewFetchExecutor(med, asFetchers(sources), nil)
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	full, err := execute(ex, Query{Select: []string{dep}})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Fatalf("fixture too small: %d tuples", len(full))
	}
	limited, err := execute(ex, Query{Select: []string{dep}, Limit: 1})
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

func TestExecuteErrors(t *testing.T) {
	med, sources := mediatedFixture(t)
	ex, _ := NewFetchExecutor(med, asFetchers(sources), nil)
	if _, err := execute(ex, Query{Select: []string{"nonexistent"}}); err == nil {
		t.Fatal("unknown Select attribute accepted")
	}
	if _, err := execute(ex, Query{Where: map[string]string{"nonexistent": "x"}}); err == nil {
		t.Fatal("unknown Where attribute accepted")
	}
}

// TestNewDomainExecutorValidation holds NewFetchExecutor to its counts: one
// source and one membership probability per mediated schema. A tuple's width
// is checked when a query reads it (TestPropertyExecuteIsTheDefinition).
func TestNewDomainExecutorValidation(t *testing.T) {
	med, sources := mediatedFixture(t)
	if _, err := NewFetchExecutor(med, asFetchers(sources[:1]), nil); err == nil {
		t.Fatal("source/schema count mismatch accepted")
	}
	if _, err := NewFetchExecutor(med, asFetchers(sources), []float64{1}); err == nil {
		t.Fatal("membership count mismatch accepted")
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
