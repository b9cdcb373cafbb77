package payg

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/eval"
	"schemaflow/internal/feature"
)

func assignOf(s *System) []int {
	return s.Model().Clustering.Assign
}

// TestAutoSwitch pins the CandidateGen="auto" decision boundary: pairFilter
// blocks a space of blockedAutoMin schemas and not one of a schema fewer.
func TestAutoSwitch(t *testing.T) {
	full := dataset.Large(dataset.LargeConfig{N: blockedAutoMin, Seed: 1})
	spaces := map[int]*feature.Space{}
	for _, n := range []int{100, blockedAutoMin - 1, blockedAutoMin} {
		spaces[n] = feature.BuildLite(full[:n], feature.DefaultConfig())
	}
	for _, tc := range []struct {
		gen     string
		n       int
		blocked bool
	}{
		{"auto", blockedAutoMin - 1, false},
		{"auto", blockedAutoMin, true},
		{"exact", blockedAutoMin, false},
		{"lsh", 100, true},
	} {
		o := Options{CandidateGen: tc.gen}.withDefaults()
		keep, err := o.pairFilter(context.Background(), spaces[tc.n])
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got := keep != nil; got != tc.blocked {
			t.Errorf("gen=%s n=%d: blocked=%v, want %v", tc.gen, tc.n, got, tc.blocked)
		}
	}
	o := Options{CandidateGen: "bogus"}.withDefaults()
	if _, err := o.pairFilter(context.Background(), spaces[100]); err == nil {
		t.Error("unknown candidate generator accepted")
	}
}

// TestSmallCorpusDefaultStaysExact: below blockedAutoMin the default
// "auto" build must be bit-identical to a forced exact build — the blocked
// machinery must not perturb small corpora at all.
func TestSmallCorpusDefaultStaysExact(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 150, Domains: 5, Seed: 3})
	auto, err := Build(set, Options{SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Build(set, Options{SkipMediation: true, CandidateGen: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	a, e := assignOf(auto), assignOf(exact)
	for i := range a {
		if a[i] != e[i] {
			t.Fatalf("auto and exact diverge at schema %d: %d vs %d", i, a[i], e[i])
		}
	}
	am, em := auto.Model(), exact.Model()
	if am.NumDomains() != em.NumDomains() {
		t.Fatalf("domain counts differ: %d vs %d", am.NumDomains(), em.NumDomains())
	}
	for i := range set {
		da, de := am.DomainsOf(i), em.DomainsOf(i)
		if len(da) != len(de) {
			t.Fatalf("schema %d membership widths differ", i)
		}
		for k := range da {
			if da[k] != de[k] {
				t.Fatalf("schema %d membership %d differs: %+v vs %+v", i, k, da[k], de[k])
			}
		}
	}
}

// TestBuildExactMatchesDeletedDensePipeline pins Build under CandidateGen
// "exact" to what it produced through the dense n×n clustering driver and the
// dense Algorithm-3 loop before both were deleted: the digests were recorded
// at commit 0938270 and cover every cluster assignment, every merge with its
// similarity's bits, and every (schema, domain, probability bits) membership.
// internal/cluster and internal/core hold the one engine to the definitions
// of Algorithms 2 and 3; this holds the assembled build — space, linkage,
// τ_c_sim, θ, both algorithms — to the pipeline it replaced, on every linkage
// for DW∪SS and the default one at the two larger scales.
func TestBuildExactMatchesDeletedDensePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpora; skipped in -short")
	}
	digest := func(m *core.Model) string {
		h := sha256.New()
		put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
		for _, a := range m.Clustering.Assign {
			put(uint64(a))
		}
		for _, mg := range m.Clustering.Merges {
			put(uint64(mg.A))
			put(uint64(mg.B))
			put(math.Float64bits(mg.Sim))
		}
		for i := range m.Schemas {
			for _, mem := range m.DomainsOf(i) {
				put(uint64(i))
				put(uint64(mem.Schema))
				put(math.Float64bits(mem.Prob))
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil)[:8])
	}
	for _, tc := range []struct {
		name string
		set  []Schema
		want map[cluster.Method]string
	}{
		{"dw+ss", dataset.Union(dataset.DW(1), dataset.SS(1)), map[cluster.Method]string{
			cluster.MinJaccard:   "d4daf1be2230898c", // 188 domains
			cluster.MaxJaccard:   "64c9443b0aef81d9", // 99 domains
			cluster.AvgJaccard:   "46e5eaf9b11952a5", // 161 domains, 2 uncertain schemas
			cluster.TotalJaccard: "770951f373c0908a", // 207 domains
		}},
		{"ddh", dataset.DDH(1), map[cluster.Method]string{
			cluster.AvgJaccard: "9755b99a008e3426", // 21 domains, 63 uncertain schemas
		}},
		{"large-1500", dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1}), map[cluster.Method]string{
			cluster.AvgJaccard: "cc5e05890bd1f525", // 67 domains, 131 uncertain schemas
		}},
	} {
		for method, want := range tc.want {
			sys, err := Build(tc.set, Options{SkipMediation: true, CandidateGen: "exact", Linkage: method.String()})
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(sys.Model()); got != want {
				t.Errorf("%s/%v: model digest %s, want %s", tc.name, method, got, want)
			}
		}
	}
}

// TestBlockedBuildWorksOnSmallCorpus forces the LSH path where exact is
// also cheap and checks the result is a working system with near-identical
// clustering.
func TestBlockedBuildWorksOnSmallCorpus(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 400, Domains: 8, Seed: 5})
	blocked, err := Build(set, Options{SkipMediation: true, CandidateGen: "lsh"})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Build(set, Options{SkipMediation: true, CandidateGen: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if f1 := eval.PairwiseF1(assignOf(blocked), assignOf(exact)); f1 < 0.95 {
		t.Errorf("blocked-vs-exact pairwise F1 = %.4f, want ≥ 0.95", f1)
	}
	if blocked.NumDomains() == 0 {
		t.Fatal("blocked build produced no domains")
	}
	if scores := blocked.Classify("kilubu belilu"); len(scores) == 0 {
		t.Error("blocked-built system cannot classify")
	}
}

// TestBlockedMatchesExactOnPaperCorpora is the satellite e2e test: on the
// paper-scale evaluation corpora, the blocked pipeline's clustering must
// agree with the exact pipeline at pairwise F1 ≥ 0.95.
func TestBlockedMatchesExactOnPaperCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpora; skipped in -short")
	}
	// The paper corpora, generated directly (experiments.LoadCorpora would
	// be an import cycle now that experiments' backend ablation drives payg).
	dw := dataset.DW(1)
	ss := dataset.SS(2)
	for _, tc := range []struct {
		name string
		set  []Schema
	}{
		{"dw", dw},
		{"ss", ss},
		{"both", dataset.Union(dw, ss)},
		{"ddh", dataset.DDH(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blocked, err := Build(tc.set, Options{SkipMediation: true, CandidateGen: "lsh"})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := Build(tc.set, Options{SkipMediation: true, CandidateGen: "exact"})
			if err != nil {
				t.Fatal(err)
			}
			f1 := eval.PairwiseF1(assignOf(blocked), assignOf(exact))
			t.Logf("%s: n=%d, F1=%.4f, blocked domains=%d, exact domains=%d",
				tc.name, len(tc.set), f1, blocked.NumDomains(), exact.NumDomains())
			if f1 < 0.95 {
				t.Errorf("pairwise F1 %.4f < 0.95", f1)
			}
		})
	}
}

// TestManagerClosePromptlyAbortsLargeRecluster is the cancellation
// satellite end to end: with a corpus big enough that a full rebuild takes
// real time, Close must cancel the in-flight recluster mid-pipeline (the
// ctx polls inside the similarity fill and HAC merge loop) rather than
// wait it out, and the aborted rebuild must not publish.
func TestManagerClosePromptlyAbortsLargeRecluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exact build; skipped in -short")
	}
	set := dataset.Large(dataset.LargeConfig{N: 2500, Domains: 20, Seed: 13})
	opts := Options{SkipMediation: true, CandidateGen: "exact"}
	start := time.Now()
	sys, err := Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	buildTime := time.Since(start)

	mgr, err := NewManager(sys, nil, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Ingest(Schema{Name: "late", Attributes: []string{"kilubu", "belilu"}}); err != nil {
		t.Fatal(err)
	}
	genBefore := mgr.Status().Generation

	// Trigger the background flight without waiting for it, then Close.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_ = mgr.Recluster(ctx)

	start = time.Now()
	mgr.Close()
	closeTime := time.Since(start)

	bound := buildTime / 2
	if bound < 500*time.Millisecond {
		bound = 500 * time.Millisecond
	}
	if closeTime > bound {
		t.Errorf("Close took %v with a rebuild in flight; full build is %v — cancellation is not prompt", closeTime, buildTime)
	}
	if gen := mgr.Status().Generation; gen != genBefore {
		t.Errorf("aborted rebuild published: generation %d → %d", genBefore, gen)
	}
}

// TestBlockedOptionsValidation: bad knobs must surface as Build errors.
func TestBlockedOptionsValidation(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 50, Domains: 2, Seed: 1})
	if _, err := Build(set, Options{CandidateGen: "bogus"}); err == nil {
		t.Error("unknown CandidateGen accepted")
	}
}

// TestBuildPhasesCoverTheBuild keeps the phase timers honest as the place to
// read where a build's time goes: over one build of each kind, its
// schemaflow_build_phase_duration_seconds phases — the blocked build's seven,
// the exact build's six (no candidates) — account for at least 90 % of Build's
// wall time, so no stretch of work sits outside them. (A profile's cumulative
// view cannot say this — work done in anonymous worker goroutines is not
// attributed to the phase that started them.)
func TestBuildPhasesCoverTheBuild(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1})
	for _, tc := range []struct {
		gen    string
		phases []string
	}{
		{"lsh", []string{"features", "candidates", "pairwise", "cluster", "domains", "classifier", "mediation"}},
		{"exact", []string{"features", "pairwise", "cluster", "domains", "classifier", "mediation"}},
	} {
		before := make([]float64, len(tc.phases))
		for i, p := range tc.phases {
			before[i] = mBuildPhase.With(p).Sum()
		}
		start := time.Now()
		if _, err := Build(set, Options{CandidateGen: tc.gen}); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		timed := 0.0
		for i, p := range tc.phases {
			d := mBuildPhase.With(p).Sum() - before[i]
			if d <= 0 {
				t.Errorf("%s: phase %q recorded nothing", tc.gen, p)
			}
			timed += d
		}
		if timed < 0.9*wall {
			t.Errorf("%s: phase timers cover %.1f of %.1f ms (%.0f %%), want ≥ 90 %%", tc.gen, timed*1e3, wall*1e3, 100*timed/wall)
		} else {
			t.Logf("%s: phase timers cover %.1f of %.1f ms", tc.gen, timed*1e3, wall*1e3)
		}
	}
}

// TestBuildReportsHACShape: both build paths say how Algorithm 2 ran — how
// many workers it could use, how many independent components the corpus
// split into, and how large the largest was — so an operator can tell a
// corpus that cannot be clustered in parallel from a host with one core.
func TestBuildReportsHACShape(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 600, Domains: 12, Seed: 1})
	for _, gen := range []string{"exact", "lsh"} {
		mBuildHACWorkers.Set(-1)
		mBuildHACComponents.Set(-1)
		mBuildHACLargestComponent.Set(-1)
		sys, err := Build(set, Options{CandidateGen: gen, SkipMediation: true})
		if err != nil {
			t.Fatal(err)
		}
		cl := sys.Model().Clustering
		if cl.Components < 2 || cl.LargestComponent < 2 || cl.LargestComponent >= len(set) {
			t.Fatalf("%s: %d components, largest %d: the corpus should split", gen, cl.Components, cl.LargestComponent)
		}
		if w, c, l := mBuildHACWorkers.Value(), mBuildHACComponents.Value(), mBuildHACLargestComponent.Value(); w < 1 || c != float64(cl.Components) || l != float64(cl.LargestComponent) {
			t.Errorf("%s: gauges read workers=%v components=%v largest=%v, want ≥1, %d, %d", gen, w, c, l, cl.Components, cl.LargestComponent)
		}
	}
}

// TestBuildReportsStoredPairs: a build says how many pairs both algorithms
// read. On a blocked build some candidates are pairs with nothing in common
// (accidental band-key collisions), so the count is positive and below the
// candidate count; on an exact build it is the positive share of all n(n−1)/2.
func TestBuildReportsStoredPairs(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 600, Domains: 12, Seed: 1})
	mBuildStoredPairs.Set(-1)
	if _, err := Build(set, Options{CandidateGen: "lsh", SkipMediation: true}); err != nil {
		t.Fatal(err)
	}
	if stored, cand := mBuildStoredPairs.Value(), mBuildCandidatePairs.Value(); stored <= 0 || stored >= cand {
		t.Errorf("lsh: stored pairs %v of %v candidates, want a positive count below the candidates", stored, cand)
	}
	mBuildStoredPairs.Set(-1)
	if _, err := Build(set, Options{CandidateGen: "exact", SkipMediation: true}); err != nil {
		t.Fatal(err)
	}
	n := float64(len(set))
	if stored, all := mBuildStoredPairs.Value(), n*(n-1)/2; stored <= 0 || stored > all {
		t.Errorf("exact: stored pairs %v of %v, want a positive count no larger than every pair", stored, all)
	}
}
