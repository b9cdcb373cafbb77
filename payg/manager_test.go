package payg

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"schemaflow/internal/engine"
)

// newcomerSchemas are schemas that arrive online: two that belong to the
// demo corpus' domains and one that matches nothing.
func newcomerSchemas() []Schema {
	return []Schema{
		{Name: "charters", Attributes: []string{"departure airport", "destination city", "airline", "price"}},
		{Name: "theses", Attributes: []string{"title", "authors", "publication year", "university"}},
		{Name: "minerals", Attributes: []string{"specimen hardness", "crystal lattice", "refractive index"}},
	}
}

func demoSources(set []Schema) []TupleSource {
	sources := make([]TupleSource, len(set))
	for i, s := range set {
		row := make(Tuple, len(s.Attributes))
		for k := range row {
			row[k] = fmt.Sprintf("%s-val-%d", s.Name, k)
		}
		sources[i] = Source{Schema: s, Tuples: []Tuple{row}}
	}
	return sources
}

func newManager(t *testing.T, sources []TupleSource, opts ManagerOptions) *Manager {
	t.Helper()
	sys := build(t, Options{})
	mgr, err := NewManager(sys, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return mgr
}

func TestManagerIngestAssignsWithoutMutatingServing(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})
	travel := mgr.System().Model().Clustering.Assign[0]

	res, err := mgr.Ingest(newcomerSchemas()[0]) // clear travel schema
	if err != nil {
		t.Fatal(err)
	}
	a := res.Assignment
	if a.Fresh {
		t.Fatalf("clear travel schema marked fresh (best sim %v)", a.BestSim)
	}
	if len(a.Domains) != 1 || a.Domains[0].Domain != travel {
		t.Fatalf("assignment %+v, want single membership in domain %d", a.Domains, travel)
	}
	if a.Domains[0].Prob < 0.25 {
		t.Fatalf("probability %v below the τ_c_sim gate", a.Domains[0].Prob)
	}
	if res.Pending != 1 {
		t.Fatalf("pending %d, want 1", res.Pending)
	}
	if got := mgr.System().NumSchemas(); got != 6 {
		t.Fatalf("serving system grew to %d schemas without a rebuild", got)
	}

	// A second, unrelated arrival is fresh but must not disturb serving.
	res, err = mgr.Ingest(newcomerSchemas()[2])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Fresh {
		t.Fatalf("mineral schema not fresh: %+v", res.Assignment.Domains)
	}
	if res.Pending != 2 {
		t.Fatalf("pending %d, want 2", res.Pending)
	}
}

func TestManagerIngestBoundarySchema(t *testing.T) {
	// Wide θ lets a schema straddling travel and bibliography join both.
	sys, err := Build(demoSchemas(), Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(sys, nil, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	res, err := mgr.Ingest(Schema{
		Name:       "travel-guides",
		Attributes: []string{"departure airport", "destination city", "airline", "title", "author", "publisher"},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Assignment
	if a.Fresh || len(a.Domains) < 2 {
		t.Fatalf("boundary schema not multi-domain: fresh=%v domains=%+v", a.Fresh, a.Domains)
	}
	sum := 0.0
	for _, d := range a.Domains {
		sum += d.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("boundary probabilities sum to %v, want 1", sum)
	}
}

func TestManagerDriftTriggersBackgroundRebuild(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: 0.5})
	fresh := []Schema{
		{Name: "m1", Attributes: []string{"specimen hardness", "crystal lattice"}},
		{Name: "m2", Attributes: []string{"chlorophyll density", "leaf span"}},
		{Name: "m3", Attributes: []string{"magma viscosity", "ash plume"}},
		{Name: "m4", Attributes: []string{"tidal amplitude", "salinity gradient"}},
	}
	for k, sch := range fresh {
		res, err := mgr.Ingest(sch)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Assignment.Fresh {
			t.Fatalf("%s was claimed by a domain: %+v", sch.Name, res.Assignment)
		}
		// The window needs driftMinSamples arrivals before it may trigger.
		if last := k == len(fresh)-1; res.RebuildTriggered != last {
			t.Fatalf("arrival %d of %d: rebuild triggered = %v", k+1, len(fresh), res.RebuildTriggered)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := mgr.Status()
		if !st.Rebuilding && st.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuild did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := mgr.Status()
	if want := len(demoSchemas()) + len(fresh); st.Schemas != want {
		t.Fatalf("serving %d schemas after rebuild, want %d", st.Schemas, want)
	}
	if st.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", st.Rebuilds)
	}
	// The once-fresh schemas are now first-class domain members.
	for i := len(demoSchemas()); i < st.Schemas; i++ {
		if len(mgr.System().Model().DomainsOf(i)) == 0 {
			t.Fatalf("ingested schema %d has no domain after rebuild", i)
		}
	}
}

// TestManagerConcurrentTrafficDuringRebuild is the acceptance check:
// classify/query traffic runs (under -race) while schemas are ingested and
// a rebuild completes; reads never block or fail, and the post-swap system
// is indistinguishable from a from-scratch Build on the union.
func TestManagerConcurrentTrafficDuringRebuild(t *testing.T) {
	base := demoSchemas()
	sys, err := Build(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(sys, demoSources(base), ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := mgr.System().Classify("departure airline price"); len(got) == 0 {
					errc <- fmt.Errorf("classify returned no scores")
					return
				}
				ex := mgr.Executor()
				attrs, err := ex.System().MediatedAttributes(0)
				if err != nil || len(attrs) == 0 {
					errc <- fmt.Errorf("mediated attributes: %v", err)
					return
				}
				if _, err := ex.Execute(context.Background(), 0, Query{Select: attrs[:1]}); err != nil {
					errc <- fmt.Errorf("execute: %v", err)
					return
				}
			}
		}()
	}

	newcomers := newcomerSchemas()
	for _, sch := range newcomers {
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	union := append(append([]Schema{}, base...), newcomers...)
	want, err := Build(union, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := mgr.System()
	if got.NumSchemas() != want.NumSchemas() || got.NumDomains() != want.NumDomains() {
		t.Fatalf("post-swap %d schemas / %d domains, from-scratch %d / %d",
			got.NumSchemas(), got.NumDomains(), want.NumSchemas(), want.NumDomains())
	}
	for i := range union {
		g, w := got.Model().DomainsOf(i), want.Model().DomainsOf(i)
		if len(g) != len(w) {
			t.Fatalf("schema %d: memberships %+v vs from-scratch %+v", i, g, w)
		}
		for k := range g {
			if g[k].Schema != w[k].Schema || math.Abs(g[k].Prob-w[k].Prob) > 1e-12 {
				t.Fatalf("schema %d membership %d: %+v vs %+v", i, k, g[k], w[k])
			}
		}
	}
	for _, q := range []string{
		"departure airline price",
		"title author publication year",
		"crystal specimen hardness",
		"telescope aperture",
	} {
		g, w := got.Classify(q), want.Classify(q)
		if len(g) != len(w) {
			t.Fatalf("query %q: %d scores vs %d", q, len(g), len(w))
		}
		for k := range g {
			if g[k].Domain != w[k].Domain || math.Abs(g[k].Posterior-w[k].Posterior) > 1e-12 {
				t.Fatalf("query %q rank %d: got {%d %v}, from-scratch {%d %v}",
					q, k, g[k].Domain, g[k].Posterior, w[k].Domain, w[k].Posterior)
			}
		}
	}
	// The executor serves the new generation, including the new schemas'
	// (empty) sources.
	if mgr.Executor().System() != got {
		t.Fatal("executor not rebound to the swapped system")
	}
}

// TestConcurrentIngestDuringReclusterSwap: the comparison's bit→schema
// postings are built by the first Ingest against a serving space, so that
// first use is raced on purpose — four goroutines leave a barrier into the
// same never-ingested system, one grown by AddSchema (an Extend product, whose
// posting lists have spare capacity to alias) — and then ingestion keeps
// hammering whatever generation is serving while reclusters swap it. Every
// answer must equal the first one recorded for the same (system, schema);
// run with -race for the rest of the claim.
func TestConcurrentIngestDuringReclusterSwap(t *testing.T) {
	built, err := Build(demoSchemas(), Options{SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	ferries := Schema{Name: "ferries", Attributes: []string{"departure port", "destination port", "fare"}}
	sys, _, err := built.AddSchema(ferries)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(sys, nil, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	arrivals := append(newcomerSchemas(), Schema{Name: "cruises", Attributes: []string{"departure port", "cabin class", "price"}})
	type key struct {
		sys *System
		sch string
	}
	var (
		mu    sync.Mutex
		first = map[key]*Assignment{}
	)
	check := func(s *System, sch Schema) error {
		got, err := s.Ingest(sch)
		if err != nil {
			return fmt.Errorf("ingest: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		k := key{s, sch.Name}
		if want, ok := first[k]; !ok {
			first[k] = got
		} else if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			return fmt.Errorf("ingest %s: %+v, an earlier call on the same system answered %+v", sch.Name, got, want)
		}
		return nil
	}

	const workers = 4
	start := make(chan struct{})
	stop := make(chan struct{})
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; ; i++ {
				if err := check(mgr.System(), arrivals[i%len(arrivals)]); err != nil {
					errc <- err
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}
	close(start)

	for _, sch := range newcomerSchemas() {
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		if err := mgr.Recluster(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// And each recorded answer is what an untouched twin of that system says.
	want, err := sys.Ingest(arrivals[0])
	if err != nil {
		t.Fatal(err)
	}
	twin, _, err := built.AddSchema(ferries)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := twin.Ingest(arrivals[0]); err != nil || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("raced system answers %+v, its serial twin %+v (err %v)", want, got, err)
	}
}

func TestManagerRebuildCarriesBreakerState(t *testing.T) {
	base := demoSchemas()
	sys, err := Build(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flake := engine.NewFlakeSource(base[0].Name, nil, 1)
	flake.SetDown(true)
	sources := demoSources(base)
	sources[0] = flake
	policy := Policy{BreakerThreshold: 1, BreakerCooldown: time.Hour}
	mgr, err := NewManager(sys, sources, ManagerOptions{Policy: policy, DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	domainOf := func(s *System) int { return s.Model().Clustering.Assign[0] }
	runQuery := func() {
		t.Helper()
		ex := mgr.Executor()
		d := domainOf(ex.System())
		attrs, err := ex.System().MediatedAttributes(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Execute(context.Background(), d, Query{Select: attrs[:1]}); err != nil {
			t.Fatal(err)
		}
	}
	runQuery() // the down source fails once; threshold 1 opens its breaker
	if calls := flake.Calls(); calls != 1 {
		t.Fatalf("flake fetched %d times, want 1", calls)
	}

	if _, err := mgr.Ingest(newcomerSchemas()[0]); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Post-swap, the breaker must still be open: the source is skipped,
	// not re-fetched.
	runQuery()
	if calls := flake.Calls(); calls != 1 {
		t.Fatalf("flake fetched %d times after swap, want 1 (breaker state lost)", calls)
	}
}

func TestManagerFeedbackSwapSerializesWithIngestion(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})
	// Move "oddball" (index 5) into the travel domain via feedback.
	travel := mgr.System().Model().Clustering.Assign[0]
	res, err := mgr.ApplyFeedback(Feedback{Moves: []Move{{Schema: 5, Domain: travel}}})
	if err != nil {
		t.Fatal(err)
	}
	if mgr.System() != res.System {
		t.Fatal("feedback result not swapped in")
	}
	// Ingestion still works over the corrected base.
	if _, err := mgr.Ingest(newcomerSchemas()[0]); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := mgr.System().NumSchemas(); got != 7 {
		t.Fatalf("serving %d schemas, want 7", got)
	}
}

// TestRebuildDrainsOnlyWhatItCaptured: a rebuild folds in the pending schemas
// it captured when it started and drains exactly those — an arrival acked
// while the flight was building stays pending, in order, for the next one.
func TestRebuildDrainsOnlyWhatItCaptured(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1, Transform: func(sys *System) (*System, error) {
		// The rebuilt system exists and is about to be published.
		first.Do(func() { close(entered); <-release })
		return sys, nil
	}})
	early, late := newcomerSchemas()[:2], newcomerSchemas()[2]
	for _, sch := range early {
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- mgr.Recluster(context.Background()) }()
	<-entered
	if _, err := mgr.Ingest(late); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := mgr.System().NumSchemas(); got != len(demoSchemas())+len(early) {
		t.Fatalf("serving %d schemas, want the base plus the %d captured arrivals", got, len(early))
	}
	if got := mgr.Pending(); len(got) != 1 || got[0].Name != late.Name {
		t.Fatalf("pending after the publish = %+v, want just %q", got, late.Name)
	}
	if err := mgr.Recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, n := mgr.Pending(), mgr.System().NumSchemas(); len(got) != 0 || n != len(demoSchemas())+3 {
		t.Fatalf("second flight left %d pending and serves %d schemas", len(got), n)
	}
}

func TestManagerSaveLoadKeepsPendingJournal(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})
	for _, sch := range newcomerSchemas()[:2] {
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := mgr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	mgr2, err := LoadManager(&buf, nil, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if st := mgr2.Status(); st.Pending != 2 {
		t.Fatalf("restored pending %d, want 2", st.Pending)
	}

	// Both managers recluster to the same system.
	if err := mgr.Recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	a, b := mgr.System(), mgr2.System()
	if a.NumSchemas() != b.NumSchemas() || a.NumDomains() != b.NumDomains() {
		t.Fatalf("diverged: %d/%d vs %d/%d schemas/domains",
			a.NumSchemas(), a.NumDomains(), b.NumSchemas(), b.NumDomains())
	}
	for _, q := range []string{"departure airline", "title author", "telescope"} {
		ga, gb := a.Classify(q), b.Classify(q)
		for k := range ga {
			if ga[k].Domain != gb[k].Domain || math.Abs(ga[k].Posterior-gb[k].Posterior) > 1e-12 {
				t.Fatalf("query %q diverged after restore: %+v vs %+v", q, ga[k], gb[k])
			}
		}
	}
}

func TestIngestedSystemSnapshotRoundTrip(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})
	for _, sch := range newcomerSchemas() {
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys := mgr.System()

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumSchemas() != sys.NumSchemas() || loaded.NumDomains() != sys.NumDomains() {
		t.Fatalf("loaded %d/%d, want %d/%d",
			loaded.NumSchemas(), loaded.NumDomains(), sys.NumSchemas(), sys.NumDomains())
	}
	for i := 0; i < sys.NumSchemas(); i++ {
		g, w := loaded.Model().DomainsOf(i), sys.Model().DomainsOf(i)
		if len(g) != len(w) {
			t.Fatalf("schema %d memberships %+v vs %+v", i, g, w)
		}
		for k := range g {
			if g[k] != w[k] {
				t.Fatalf("schema %d membership %d: %+v vs %+v", i, k, g[k], w[k])
			}
		}
	}
	for _, q := range []string{"departure airline", "title author year", "crystal specimen"} {
		g, w := loaded.Classify(q), sys.Classify(q)
		for k := range g {
			if g[k].Domain != w[k].Domain || math.Abs(g[k].Posterior-w[k].Posterior) > 1e-12 {
				t.Fatalf("query %q: loaded %+v vs saved %+v", q, g[k], w[k])
			}
		}
	}
}

func TestManagerCloseCancelsInflightRebuild(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})
	if _, err := mgr.Ingest(newcomerSchemas()[0]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A canceled waiter returns promptly; the flight itself is reaped by
	// Close without deadlock.
	if err := mgr.Recluster(ctx); err == nil {
		t.Log("rebuild finished before cancellation — acceptable")
	}
	mgr.Close()
	if _, err := mgr.Ingest(newcomerSchemas()[1]); err == nil {
		t.Fatal("ingest after Close succeeded")
	}
}

// TestIntervalLoopRebuildsOnlyWhilePending: with RebuildInterval set and
// drift off, the loop alone publishes a pending arrival — the generation
// bumps and nothing stays pending — and starts no rebuild while nothing is
// pending, before the arrival or after it.
func TestIntervalLoopRebuildsOnlyWhilePending(t *testing.T) {
	mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1, RebuildInterval: 20 * time.Millisecond})
	idle := func(want int) {
		t.Helper()
		time.Sleep(100 * time.Millisecond) // five ticks
		if st := mgr.Status(); st.Rebuilds != want || st.Generation != want || st.Rebuilding {
			t.Fatalf("idle loop: %+v, want %d rebuilds at generation %d", st, want, want)
		}
	}
	idle(0)
	if _, err := mgr.Ingest(newcomerSchemas()[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := mgr.Status()
		if st.Generation == 1 && st.Pending == 0 {
			if st.Schemas != len(demoSchemas())+1 {
				t.Fatalf("published %d schemas, want the base plus the arrival", st.Schemas)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interval loop never published the arrival: %+v", st)
		}
	}
	idle(1)
}
