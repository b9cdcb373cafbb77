package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"schemaflow/internal/obs"
	"schemaflow/internal/resilience"
)

// flakyExecutor builds the two-source travel domain from mediatedFixture
// with source air2 wrapped in a fault injector, under the given policy.
func flakyExecutor(t *testing.T, p resilience.Policy) (*DomainExecutor, *FlakeSource, string) {
	t.Helper()
	med, sources := mediatedFixture(t)
	flake := NewFlakeSource("air2", sources[1].Tuples, 1)
	ex, err := NewFetchExecutor(med, []TupleSource{sources[0], flake}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex.SetPolicy(p, func(string) *resilience.Breaker { return p.NewBreaker() })
	dep := med.Attrs[med.AttrIndex("departure")].Name
	return ex, flake, dep
}

func TestHardDownSourceDegradesInsteadOfFailing(t *testing.T) {
	p := resilience.Policy{Timeout: time.Second} // no retries, no breaker
	ex, flake, dep := flakyExecutor(t, p)
	flake.SetDown(true)

	res, err := ex.ExecuteContext(context.Background(), Query{Select: []string{dep}})
	if err != nil {
		t.Fatalf("ExecuteContext: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("result not marked degraded")
	}
	if len(res.Failures) != 1 || res.Failures[0].Source != "air2" {
		t.Fatalf("failures = %+v, want one failure for air2", res.Failures)
	}
	if res.Failures[0].Skipped {
		t.Fatal("first failure should be an attempted fetch, not a breaker skip")
	}
	if !strings.Contains(res.Failures[0].Err, "hard down") {
		t.Fatalf("failure reason %q does not explain the fault", res.Failures[0].Err)
	}
	// The healthy source's tuples still came back.
	if len(res.Tuples) != 2 {
		t.Fatalf("tuples = %+v, want air1's 2 departures", res.Tuples)
	}
	for _, r := range res.Tuples {
		if len(r.Sources) != 1 || r.Sources[0] != "air1" {
			t.Fatalf("tuple attributed to %v, want only air1", r.Sources)
		}
	}
}

func TestRetriesRecoverTransientFailures(t *testing.T) {
	p := resilience.Policy{MaxRetries: 2, BackoffBase: time.Microsecond}
	ex, flake, dep := flakyExecutor(t, p)
	flake.FailFirst = 2 // fail twice, succeed on the third attempt

	res, err := ex.ExecuteContext(context.Background(), Query{Select: []string{dep}})
	if err != nil {
		t.Fatalf("ExecuteContext: %v", err)
	}
	if res.Degraded() {
		t.Fatalf("degraded despite retries: %+v", res.Failures)
	}
	if got := flake.Calls(); got != 3 {
		t.Fatalf("flake fetched %d times, want 3", got)
	}
	// Both sources contributed, so "Toronto" consolidates across them.
	found := false
	for _, r := range res.Tuples {
		if r.Values[0] == "Toronto" && len(r.Sources) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no consolidated Toronto tuple in %+v", res.Tuples)
	}
}

func TestSlowSourceTimesOut(t *testing.T) {
	p := resilience.Policy{Timeout: 5 * time.Millisecond}
	ex, flake, dep := flakyExecutor(t, p)
	flake.Latency = 500 * time.Millisecond

	start := time.Now()
	res, err := ex.ExecuteContext(context.Background(), Query{Select: []string{dep}})
	if err != nil {
		t.Fatalf("ExecuteContext: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("slow source burned %v of latency budget", elapsed)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0].Err, "context deadline exceeded") {
		t.Fatalf("failures = %+v, want one timeout for air2", res.Failures)
	}
	if len(res.Tuples) == 0 {
		t.Fatal("healthy source's tuples missing")
	}
}

func TestBreakerOpensThenRecovers(t *testing.T) {
	p := resilience.Policy{
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
		BreakerProbes:    1,
	}
	ex, flake, dep := flakyExecutor(t, p)
	breakers := map[string]*resilience.Breaker{}
	ex.SetPolicy(p, func(source string) *resilience.Breaker {
		breakers[source] = p.NewBreaker()
		return breakers[source]
	})
	// The in-memory source air1 cannot fail, so it gets no breaker.
	if len(breakers) != 1 || breakers["air2"] == nil {
		t.Fatalf("breakers minted for %v, want air2 only", breakers)
	}
	flake.SetDown(true)
	q := Query{Select: []string{dep}}

	// Two failing queries trip the breaker.
	for i := 0; i < 2; i++ {
		res, err := ex.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded() || res.Failures[0].Skipped {
			t.Fatalf("query %d: failures = %+v, want attempted failure", i, res.Failures)
		}
	}
	if got := breakers["air2"].State(); got != resilience.Open {
		t.Fatalf("breaker state %v, want open after threshold", got)
	}

	// While open, the source is skipped without a fetch.
	calls := flake.Calls()
	res, err := ex.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || !res.Failures[0].Skipped {
		t.Fatalf("failures = %+v, want a breaker skip", res.Failures)
	}
	if flake.Calls() != calls {
		t.Fatal("open breaker did not stop fetch traffic")
	}
	if len(res.Tuples) == 0 {
		t.Fatal("healthy source's tuples missing while breaker open")
	}

	// After the cooldown, a half-open probe against the revived source
	// closes the breaker and restores the full result set.
	flake.SetDown(false)
	time.Sleep(p.BreakerCooldown + 5*time.Millisecond)
	res, err = ex.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Fatalf("still degraded after recovery: %+v", res.Failures)
	}
	if got := breakers["air2"].State(); got != resilience.Closed {
		t.Fatalf("breaker state %v, want closed after successful probe", got)
	}
}

func TestMalformedRemoteTuplesDegrade(t *testing.T) {
	med, sources := mediatedFixture(t)
	bad := NewFlakeSource("air2", []Tuple{{"only-two", "values"}}, 1)
	ex, err := NewFetchExecutor(med, []TupleSource{sources[0], bad}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep := med.Attrs[med.AttrIndex("departure")].Name
	res, err := ex.ExecuteContext(context.Background(), Query{Select: []string{dep}})
	if err != nil {
		t.Fatalf("ExecuteContext: %v", err)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0].Err, "2 values") {
		t.Fatalf("failures = %+v, want a width violation for air2", res.Failures)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("tuples = %+v, want air1's rows only", res.Tuples)
	}
}

func TestExecuteContextCanceledIsAnError(t *testing.T) {
	p := resilience.Policy{}
	ex, _, dep := flakyExecutor(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.ExecuteContext(ctx, Query{Select: []string{dep}}); err == nil {
		t.Fatal("want error for dead context")
	}
}

func TestFlakeErrorRateIsReproducible(t *testing.T) {
	mk := func() []error {
		f := NewFlakeSource("s", []Tuple{{"a"}}, 42)
		f.ErrRate = 0.5
		var outcomes []error
		for i := 0; i < 20; i++ {
			_, err := f.Fetch(context.Background())
			outcomes = append(outcomes, err)
		}
		return outcomes
	}
	a, b := mk(), mk()
	sawErr, sawOK := false, false
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("fetch %d: outcomes diverge across identical seeds", i)
		}
		if a[i] != nil {
			sawErr = true
		} else {
			sawOK = true
		}
	}
	if !sawErr || !sawOK {
		t.Fatal("ErrRate 0.5 over 20 fetches should mix successes and failures")
	}
}

// TestFetchAttemptsCountEveryAttempt: schemaflow_source_fetch_attempts_total
// counts one attempt per query for an in-memory member, one per try for a
// fetched member under retries, and nothing for a member of probability 0,
// which has no series at all.
func TestFetchAttemptsCountEveryAttempt(t *testing.T) {
	p := resilience.Policy{MaxRetries: 2, BackoffBase: time.Microsecond}
	med, sources := mediatedFixture(t)
	flake := NewFlakeSource("air2-counted", sources[1].Tuples, 1)
	flake.FailFirst = 2 // three attempts on the first query, one on the second
	ex, err := NewFetchExecutor(med, []TupleSource{sources[0], flake}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex.SetPolicy(p, func(string) *resilience.Breaker { return p.NewBreaker() })
	unfetched := NewFlakeSource("air2-unfetched", sources[1].Tuples, 1)
	idle, err := NewFetchExecutor(med, []TupleSource{sources[0], unfetched}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	inMemory, fetched := mFetchAttempts.With("air1"), mFetchAttempts.With("air2-counted")
	before, beforeFetched := inMemory.Value(), fetched.Value()
	q := Query{Select: []string{med.Attrs[med.AttrIndex("departure")].Name}}
	for _, e := range []*DomainExecutor{ex, ex, idle} {
		if _, err := e.ExecuteContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if got := inMemory.Value() - before; got != 3 {
		t.Errorf("air1 (in memory, three queries) counted %d attempts, want 3", got)
	}
	if got := fetched.Value() - beforeFetched; got != 4 {
		t.Errorf("air2-counted (two queries, two retries) counted %d attempts, want 4", got)
	}
	var exposition strings.Builder
	if err := obs.Default().WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exposition.String(), `source="air2-unfetched"`) {
		t.Error("a member of probability 0 has a fetch-attempts series")
	}
}
