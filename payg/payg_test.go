package payg

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"schemaflow/internal/dataset"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
)

func demoSchemas() []Schema {
	return []Schema{
		{Name: "flights", Attributes: []string{"departure airport", "destination airport", "airline", "class"}},
		{Name: "trips", Attributes: []string{"departure", "destination", "departing date", "returning date"}},
		{Name: "tickets", Attributes: []string{"departure city", "destination city", "airline", "price"}},
		{Name: "papers", Attributes: []string{"title", "authors", "publication year", "conference"}},
		{Name: "books", Attributes: []string{"title", "author", "publisher", "year"}},
		{Name: "oddball", Attributes: []string{"telescope aperture", "seismograph reading"}},
	}
}

func build(t *testing.T, opts Options) *System {
	t.Helper()
	sys, err := Build(demoSchemas(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBuildDiscoversDomains(t *testing.T) {
	sys := build(t, Options{})
	if sys.NumSchemas() != 6 {
		t.Fatalf("NumSchemas = %d", sys.NumSchemas())
	}
	if sys.NumDomains() != 3 {
		t.Fatalf("NumDomains = %d, want 3 (travel, bibliography, oddball)", sys.NumDomains())
	}
	infos := sys.Domains()
	singletons := 0
	for _, d := range infos {
		if d.Unclustered {
			singletons++
			if len(d.Schemas) != 1 || d.Schemas[0].Name != "oddball" {
				t.Fatalf("unexpected singleton: %+v", d)
			}
		}
		for _, m := range d.Schemas {
			if m.Prob <= 0 || m.Prob > 1 {
				t.Fatalf("membership prob %v", m.Prob)
			}
		}
		if len(d.MediatedAttributes) == 0 {
			t.Fatalf("domain %d has no mediated attributes", d.ID)
		}
	}
	if singletons != 1 {
		t.Fatalf("%d singleton domains", singletons)
	}
}

func TestClassifyRouting(t *testing.T) {
	sys := build(t, Options{})
	travelDomain := sys.Model().Clustering.Assign[0]
	bibDomain := sys.Model().Clustering.Assign[3]

	scores := sys.Classify("departure Toronto destination Cairo")
	if scores[0].Domain != travelDomain {
		t.Fatalf("travel query → domain %d, want %d", scores[0].Domain, travelDomain)
	}
	scores = sys.Classify("books authored by Stephen King title")
	if scores[0].Domain != bibDomain {
		t.Fatalf("bibliography query → domain %d, want %d", scores[0].Domain, bibDomain)
	}
	if kw := sys.ClassifyKeywords([]string{"airline", "class"}); kw[0].Domain != travelDomain {
		t.Fatalf("keyword API → domain %d", kw[0].Domain)
	}
}

func TestMediatedAttributes(t *testing.T) {
	sys := build(t, Options{})
	travelDomain := sys.Model().Clustering.Assign[0]
	attrs, err := sys.MediatedAttributes(travelDomain)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(attrs, " ")
	if !strings.Contains(joined, "departure") || !strings.Contains(joined, "destination") {
		t.Fatalf("travel mediated schema = %v", attrs)
	}
	if _, err := sys.MediatedAttributes(99); err == nil {
		t.Fatal("bad domain id accepted")
	}
}

func TestExecuteEndToEnd(t *testing.T) {
	sys := build(t, Options{})
	travelDomain := sys.Model().Clustering.Assign[0]
	attrs, _ := sys.MediatedAttributes(travelDomain)
	var depAttr string
	for _, a := range attrs {
		if strings.Contains(a, "departure") {
			depAttr = a
			break
		}
	}
	if depAttr == "" {
		t.Fatalf("no departure attribute in %v", attrs)
	}

	schemas := demoSchemas()
	sources := make([]Source, len(schemas))
	for i, s := range schemas {
		sources[i] = Source{Schema: s}
	}
	sources[0].Tuples = []Tuple{{"YYZ", "CAI", "AirNorth", "economy"}}
	sources[1].Tuples = []Tuple{{"YYZ", "CAI", "2010-05-01", "2010-05-15"}}
	sources[2].Tuples = []Tuple{{"Toronto", "Cairo", "SkyWays", "900"}}

	res, err := sys.Execute(travelDomain, Query{Select: []string{depAttr}}, sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no tuples")
	}
	seen := make(map[string]bool)
	for _, r := range res {
		if r.Prob <= 0 || r.Prob > 1 {
			t.Fatalf("tuple prob %v", r.Prob)
		}
		seen[r.Values[0]] = true
	}
	if !seen["YYZ"] || !seen["Toronto"] {
		t.Fatalf("missing departures: %v", seen)
	}
}

func TestExecuteValidation(t *testing.T) {
	sys := build(t, Options{})
	if _, err := sys.Execute(0, Query{}, nil); err == nil {
		t.Fatal("wrong source count accepted")
	}
	schemas := demoSchemas()
	sources := make([]Source, len(schemas))
	for i, s := range schemas {
		sources[i] = Source{Schema: s}
	}
	sources[0].Schema.Attributes = sources[0].Schema.Attributes[:2]
	travelDomain := sys.Model().Clustering.Assign[0]
	if _, err := sys.Execute(travelDomain, Query{}, sources); err == nil {
		t.Fatal("schema shape mismatch accepted")
	}
}

func TestSkipMediation(t *testing.T) {
	sys := build(t, Options{SkipMediation: true})
	if _, err := sys.MediatedAttributes(0); err == nil {
		t.Fatal("MediatedAttributes should fail with SkipMediation")
	}
	if _, err := sys.Execute(0, Query{}, make([]Source, 6)); err == nil {
		t.Fatal("Execute should fail with SkipMediation")
	}
	// Classification still works.
	if got := sys.Classify("departure destination"); len(got) == 0 {
		t.Fatal("Classify broken with SkipMediation")
	}
}

func TestBuildOptionValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("empty schema list accepted")
	}
	if _, err := Build(demoSchemas(), Options{TermSimilarity: "bogus"}); err == nil {
		t.Fatal("bogus term similarity accepted")
	}
	if _, err := Build(demoSchemas(), Options{Linkage: "bogus"}); err == nil {
		t.Fatal("bogus linkage accepted")
	}
	if _, err := Build([]Schema{{Name: "x"}}, Options{}); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestAlternativeOptions(t *testing.T) {
	for _, opts := range []Options{
		{Linkage: "min-jaccard"},
		{Linkage: "total-jaccard"},
		{TermSimilarity: "stem"},
		{TermSimilarity: "exact"},
		{TermSimilarity: "lcsubsequence"},
		{TauCSim: 0.3, Theta: 0.1},
	} {
		sys, err := Build(demoSchemas(), opts)
		if err != nil {
			t.Fatalf("Build(%+v): %v", opts, err)
		}
		if len(sys.Classify("departure destination")) == 0 {
			t.Fatalf("Classify broken under %+v", opts)
		}
	}
}

// failWriter errors after n bytes, exercising Save's error path.
type failWriter struct{ remaining int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.remaining {
		n := w.remaining
		w.remaining = 0
		return n, fmt.Errorf("disk full")
	}
	w.remaining -= len(p)
	return len(p), nil
}

func TestSavePropagatesWriteErrors(t *testing.T) {
	sys := build(t, Options{})
	if err := sys.Save(&failWriter{remaining: 64}); err == nil {
		t.Fatal("write failure swallowed")
	}
}

func TestConcurrentClassify(t *testing.T) {
	// A built System is immutable; concurrent classification and execution
	// must be safe (run with -race).
	sys := build(t, Options{})
	schemas := demoSchemas()
	sources := make([]Source, len(schemas))
	for i, s := range schemas {
		sources[i] = Source{Schema: s}
	}
	sources[0].Tuples = []Tuple{{"YYZ", "CAI", "AirNorth", "economy"}}
	travelDomain := sys.Model().Clustering.Assign[0]
	attrs, err := sys.MediatedAttributes(travelDomain)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			queries := []string{"departure destination", "title author", "telescope"}
			for i := 0; i < 50; i++ {
				if len(sys.Classify(queries[(g+i)%len(queries)])) == 0 {
					done <- fmt.Errorf("goroutine %d: no scores", g)
					return
				}
				if _, err := sys.Execute(travelDomain, Query{Select: attrs[:1]}, sources); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSchemasAccessor(t *testing.T) {
	sys := build(t, Options{})
	if got := sys.Schemas(); len(got) != 6 || got[0].Name != "flights" {
		t.Fatalf("Schemas() = %v", got)
	}
}

// The zero value of Options means "thesis defaults", so an explicit literal
// threshold of 0 is requested with a negative value and garbage thresholds
// must surface as errors instead of being silently repaired.
func TestOptionsZeroSentinels(t *testing.T) {
	def := Options{}.withDefaults()
	if def.TauTSim != 0.8 || def.TauCSim != 0.25 || def.Theta != 0.02 || def.MediationFreqThreshold != 0.1 {
		t.Fatalf("zero options did not resolve to defaults: %+v", def)
	}
	lit := Options{TauTSim: -1, TauCSim: -0.5, Theta: -2, MediationFreqThreshold: -1}.withDefaults()
	if lit.TauTSim != 0 || lit.TauCSim != 0 || lit.Theta != 0 || lit.MediationFreqThreshold != 0 {
		t.Fatalf("negative options did not clamp to literal zero: %+v", lit)
	}
	// NaN is neither a sentinel nor legal: it must pass through untouched so
	// the downstream validator can reject it.
	if got := (Options{TauCSim: math.NaN()}).withDefaults().TauCSim; !math.IsNaN(got) {
		t.Fatalf("NaN TauCSim rewritten to %v", got)
	}
}

func TestLiteralZeroTauCSimMergesEverything(t *testing.T) {
	sys := build(t, Options{TauCSim: -1, SkipMediation: true})
	if sys.NumDomains() != 1 {
		t.Fatalf("τ_c_sim = 0 built %d domains, want 1 (agglomeration runs to a single cluster)", sys.NumDomains())
	}
	// One answer whichever pairs the build compared: on DW∪SS the LSH
	// candidate graph has several components, and they must merge too.
	set := dataset.Union(dataset.DW(1), dataset.SS(1))
	for _, gen := range []string{"exact", "lsh"} {
		sys, err := Build(set, Options{TauCSim: -1, CandidateGen: gen, SkipMediation: true})
		if err != nil {
			t.Fatal(err)
		}
		if sys.NumDomains() != 1 {
			t.Errorf("τ_c_sim = 0 under CandidateGen %q built %d domains, want 1", gen, sys.NumDomains())
		}
	}
}

// TestLiteralZeroSurvivesReresolution: a System stores resolved options and
// hands them back to withDefaults on snapshot load and on every recluster
// (also after WAL recovery). The literal zeros must stay zeros there
// instead of reverting to the defaults, which would split the single
// τ_c_sim = 0 domain apart.
func TestLiteralZeroSurvivesReresolution(t *testing.T) {
	lit := Options{TauTSim: -1, TauCSim: -1, Theta: -1, MediationFreqThreshold: -1}
	check := func(stage string, sys *System) {
		t.Helper()
		o := sys.opts
		if o.TauTSim != 0 || o.TauCSim != 0 || o.Theta != 0 || o.MediationFreqThreshold != 0 {
			t.Fatalf("%s: literal-zero thresholds reverted: %+v", stage, o)
		}
		if sys.NumDomains() != 1 {
			t.Fatalf("%s: %d domains, want the single τ_c_sim = 0 domain", stage, sys.NumDomains())
		}
	}
	recluster := func(stage string, mgr *Manager, arrival Schema) {
		t.Helper()
		if _, err := mgr.Ingest(arrival); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Recluster(context.Background()); err != nil {
			t.Fatal(err)
		}
		check(stage, mgr.System())
	}
	sys := build(t, lit)
	check("build", sys)

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("save/load", loaded)

	dir := t.TempDir()
	mgr, err := NewManager(sys, nil, ManagerOptions{DataDir: dir, DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := newcomerSchemas()
	recluster("recluster", mgr, arrivals[0])
	if _, err := mgr.Ingest(arrivals[1]); err != nil { // stays in the WAL
		t.Fatal(err)
	}
	mgr.Close()

	recovered, err := LoadManagerDir(dir, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	check("wal recovery", recovered.System())
	recluster("recluster after wal recovery", recovered, arrivals[2])
}

// TestLiteralZeroFreqThresholdReachesMediation: a negative
// MediationFreqThreshold is a literal 0 — every name kept, mediate's
// Negative — in the build and after save → load, not mediate's default
// 0.1. On DDH the default filters names out of some domain, so the two
// differ. A NaN threshold is an error, not an empty mediated schema.
func TestLiteralZeroFreqThresholdReachesMediation(t *testing.T) {
	set := dataset.DDH(3)
	def, err := Build(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(set, Options{MediationFreqThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	unfiltered := mediate.DefaultOptions()
	unfiltered.Negative = true
	more := false
	for stage, sys := range map[string]*System{"build": sys, "save/load": loaded} {
		for r, d := range sys.Model().Domains {
			var members schema.Set
			for _, mem := range d.Members {
				members = append(members, set[mem.Schema])
			}
			want, err := mediate.Build(members, unfiltered)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sys.MediatedAttributes(r)
			if err != nil {
				t.Fatal(err)
			}
			var wantNames []string
			for _, a := range want.Attrs {
				wantNames = append(wantNames, a.Name)
			}
			if !slices.Equal(got, wantNames) {
				t.Fatalf("%s: domain %d mediates %d attributes at a literal-zero threshold, unfiltered mediation %d", stage, r, len(got), len(wantNames))
			}
			atDefault, err := def.MediatedAttributes(r)
			if err != nil {
				t.Fatal(err)
			}
			more = more || len(got) > len(atDefault)
		}
	}
	if !more {
		t.Fatal("no domain kept more names at a literal-zero threshold than at the default: the test shows nothing")
	}
	if _, err := Build(demoSchemas(), Options{MediationFreqThreshold: math.NaN()}); err == nil {
		t.Fatal("Build accepted a NaN mediation frequency threshold")
	}
}

func TestNaNTauCSimRejected(t *testing.T) {
	if _, err := Build(demoSchemas(), Options{TauCSim: math.NaN(), SkipMediation: true}); err == nil {
		t.Fatal("Build accepted a NaN τ_c_sim; it previously merged every schema into one domain")
	}
}

func TestLiteralZeroTauTSim(t *testing.T) {
	// τ_t_sim = 0 makes every pair of terms match, so every schema's feature
	// vector is identical (all ones) and everything clusters together. The
	// point is that -1 survives the two sentinel layers (Options and
	// feature.Config) as a literal 0 instead of being rewritten to 0.8.
	sys := build(t, Options{TauTSim: -1, SkipMediation: true})
	if sys.NumDomains() != 1 {
		t.Fatalf("τ_t_sim = 0 built %d domains, want 1", sys.NumDomains())
	}
}

// TestLiteralZeroTauTSimReachesMediation: mediation compares names at the
// build's τ_t_sim, a literal 0 included. Every pair of terms then matches, so
// two names of one or two terms each are at least 1/2 similar; every demo name
// is, so each domain's names collapse into one mediated attribute. Read as
// "use the default", the 0 would leave the demo's many names apart.
func TestLiteralZeroTauTSimReachesMediation(t *testing.T) {
	sys := build(t, Options{TauTSim: -1})
	for _, d := range sys.Domains() {
		if len(d.MediatedAttributes) != 1 {
			t.Errorf("domain %d: mediated attributes %q at τ_t_sim = 0, want one", d.ID, d.MediatedAttributes)
		}
	}
}
