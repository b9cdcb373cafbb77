package payg

import (
	"context"
	"strings"
	"testing"
	"time"

	"schemaflow/internal/engine"
	"schemaflow/internal/resilience"
)

// executorFixture builds a system over demoSchemas with every source
// in-memory except schema 0, which is wrapped in a fault injector.
func executorFixture(t *testing.T, policy Policy) (*Executor, *engine.FlakeSource, int, string) {
	t.Helper()
	sys := build(t, Options{})
	schemas := demoSchemas()
	flake := engine.NewFlakeSource(schemas[0].Name,
		[]Tuple{{"YYZ", "CAI", "AirNorth", "economy"}}, 7)
	fetchers := make([]TupleSource, len(schemas))
	fetchers[0] = flake
	for i := 1; i < len(schemas); i++ {
		fetchers[i] = Source{Schema: schemas[i]}
	}
	ex, err := sys.NewExecutor(fetchers, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	travelDomain := sys.Model().Clustering.Assign[0]
	attrs, err := sys.MediatedAttributes(travelDomain)
	if err != nil {
		t.Fatal(err)
	}
	var dep string
	for _, a := range attrs {
		if strings.Contains(a, "departure") {
			dep = a
			break
		}
	}
	if dep == "" {
		t.Fatalf("no departure attribute in %v", attrs)
	}
	return ex, flake, travelDomain, dep
}

func TestExecutorHealthyPath(t *testing.T) {
	ex, _, domain, dep := executorFixture(t, DefaultPolicy())
	res, err := ex.Execute(context.Background(), domain, Query{Select: []string{dep}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Fatalf("degraded: %+v", res.Failures)
	}
	seen := false
	for _, r := range res.Tuples {
		if r.Values[0] == "YYZ" {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("flake source's tuple missing from %+v", res.Tuples)
	}
}

func TestExecutorBreakerPersistsAcrossQueries(t *testing.T) {
	policy := Policy{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	}
	ex, flake, domain, dep := executorFixture(t, policy)
	flake.SetDown(true)
	q := Query{Select: []string{dep}}

	for i := 0; i < 2; i++ {
		res, err := ex.Execute(context.Background(), domain, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded() {
			t.Fatalf("query %d: not degraded", i)
		}
	}
	// Breaker state survives into the next query: the source is skipped
	// without a fetch.
	calls := flake.Calls()
	res, err := ex.Execute(context.Background(), domain, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || !res.Failures[0].Skipped {
		t.Fatalf("failures = %+v, want a breaker skip", res.Failures)
	}
	if flake.Calls() != calls {
		t.Fatal("open breaker did not persist across Executor queries")
	}
}

func TestExecutorValidation(t *testing.T) {
	sys := build(t, Options{})
	if _, err := sys.NewExecutor(make([]TupleSource, 2), DefaultPolicy(), nil); err == nil {
		t.Fatal("wrong fetcher count accepted")
	}
	fetchers := make([]TupleSource, len(demoSchemas()))
	if _, err := sys.NewExecutor(fetchers, DefaultPolicy(), nil); err == nil {
		t.Fatal("nil fetcher accepted")
	}

	skip := build(t, Options{SkipMediation: true})
	srcs := make([]TupleSource, len(demoSchemas()))
	for i, s := range demoSchemas() {
		srcs[i] = Source{Schema: s}
	}
	if _, err := skip.NewExecutor(srcs, DefaultPolicy(), nil); err == nil {
		t.Fatal("SkipMediation system accepted")
	}

	ex, _, _, _ := executorFixture(t, resilience.Policy{})
	if _, err := ex.Execute(context.Background(), 99, Query{Select: []string{"x"}}); err == nil {
		t.Fatal("bad domain accepted")
	}
}
