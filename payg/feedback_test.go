package payg

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"schemaflow/internal/dataset"
)

// TestEmptyFeedbackChangesNothing: a feedback batch with no corrections
// reruns Algorithm 3 over the clustering it was given, and must give every
// schema the memberships it had, bit for bit — on an exact build, on a
// blocked one (whose Algorithm 3 read only the pairs the bands kept), on that
// blocked system after a save and load (a snapshot holds no pair graph),
// after an AddSchema, and after an AddSchema then a save and load: the
// arrival brings a term the corpus lacks, which Extend appends to the
// vocabulary and the load sorts into it. A correction then moves only what
// it corrects.
func TestEmptyFeedbackChangesNothing(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 1000, Domains: 20, Seed: 1})
	arrival := dataset.Large(dataset.LargeConfig{N: 1, Domains: 20, Seed: 2})[0]
	arrival.Name = "arrival"
	arrival.Attributes = append(arrival.Attributes, "zeppelin hangar")
	lsh := Options{SkipMediation: true, CandidateGen: "lsh"}
	reload := func(t *testing.T, sys *System) *System {
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	grow := func(t *testing.T) *System {
		sys, _, err := mustBuild(t, set, lsh).AddSchema(arrival)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *System
	}{
		{"exact", func(t *testing.T) *System {
			return mustBuild(t, set, Options{SkipMediation: true, CandidateGen: "exact"})
		}},
		{"lsh", func(t *testing.T) *System { return mustBuild(t, set, lsh) }},
		{"lsh after save and load", func(t *testing.T) *System { return reload(t, mustBuild(t, set, lsh)) }},
		{"lsh after AddSchema", grow},
		{"lsh after AddSchema, then save and load", func(t *testing.T) *System { return reload(t, grow(t)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build(t)
			res, err := sys.ApplyFeedback(Feedback{})
			if err != nil {
				t.Fatal(err)
			}
			before, after := sys.Model(), res.System.Model()
			moved := 0
			for i := range sys.Schemas() {
				if !slices.Equal(before.DomainsOf(i), after.DomainsOf(i)) {
					if moved++; moved <= 3 {
						t.Errorf("schema %d: %v before the feedback, %v after", i, before.DomainsOf(i), after.DomainsOf(i))
					}
				}
			}
			if moved > 0 {
				t.Errorf("an empty feedback changed the memberships of %d of %d schemas", moved, len(sys.Schemas()))
			}
		})
	}
}

func mustBuild(t *testing.T, set []Schema, opts Options) *System {
	t.Helper()
	sys, err := Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestApplyFeedbackMove(t *testing.T) {
	sys := build(t, Options{})
	bibDomain := sys.Model().Clustering.Assign[3]

	res, err := sys.ApplyFeedback(Feedback{Moves: []Move{{Schema: 0, Domain: bibDomain}}})
	if err != nil {
		t.Fatal(err)
	}
	newBib := res.DomainMap[bibDomain]
	if newBib < 0 {
		t.Fatal("bibliography domain vanished")
	}
	if got := res.System.Model().Clustering.Assign[0]; got != newBib {
		t.Fatalf("flights schema in domain %d, want %d", got, newBib)
	}
	// The corrected system is fully functional: classifier answers, and
	// pinned membership is certain.
	if len(res.System.Classify("title author")) == 0 {
		t.Fatal("corrected system cannot classify")
	}
	for _, d := range res.System.Domains() {
		for _, m := range d.Schemas {
			if m.Name == "flights" && d.ID == newBib && m.Prob != 1 {
				t.Fatalf("moved schema prob = %v, want 1", m.Prob)
			}
		}
	}
	// Original untouched.
	if sys.Model().Clustering.Assign[0] == bibDomain {
		t.Fatal("original system mutated")
	}
}

func TestApplyFeedbackMergeAndSplit(t *testing.T) {
	sys := build(t, Options{})
	travel := sys.Model().Clustering.Assign[0]
	bib := sys.Model().Clustering.Assign[3]

	res, err := sys.ApplyFeedback(Feedback{
		Merges: [][2]int{{travel, bib}},
		Splits: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DomainMap[travel] != res.DomainMap[bib] {
		t.Fatal("merge did not unify domain ids")
	}
	fresh, ok := res.NewDomainOf[2]
	if !ok {
		t.Fatal("split domain not reported")
	}
	members := res.System.Model().Clustering.Members[fresh]
	if len(members) != 1 || members[0] != 2 {
		t.Fatalf("split members = %v", members)
	}
}

func TestApplyFeedbackValidation(t *testing.T) {
	sys := build(t, Options{})
	if _, err := sys.ApplyFeedback(Feedback{Moves: []Move{{Schema: 99, Domain: 0}}}); err == nil {
		t.Fatal("bad move accepted")
	}
	if _, err := sys.ApplyFeedback(Feedback{Merges: [][2]int{{0, 0}}}); err == nil {
		t.Fatal("self-merge accepted")
	}
}

func TestAddSchema(t *testing.T) {
	sys := build(t, Options{})
	bibDomain := sys.Model().Clustering.Assign[3]

	grown, domain, err := sys.AddSchema(Schema{
		Name:       "newlib",
		Attributes: []string{"title", "authors", "publisher", "publication year"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if domain != bibDomain {
		t.Fatalf("new bibliography source joined domain %d, want %d", domain, bibDomain)
	}
	if grown.NumSchemas() != sys.NumSchemas()+1 {
		t.Fatal("schema count unchanged")
	}
	// The grown system classifies with the new vocabulary available.
	scores := grown.Classify("publisher publication")
	if scores[0].Domain != domain {
		t.Fatalf("grown classifier routes to %d, want %d", scores[0].Domain, domain)
	}
	// Mediated schema of the domain includes the new source's attributes.
	attrs, err := grown.MediatedAttributes(domain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(attrs, " "), "publisher") {
		t.Fatalf("mediated schema lacks new attribute: %v", attrs)
	}
}

func TestAddSchemaInvalid(t *testing.T) {
	sys := build(t, Options{})
	if _, _, err := sys.AddSchema(Schema{Name: "empty"}); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestExtractFacades(t *testing.T) {
	forms, err := ExtractForms(strings.NewReader(
		`<form id="f"><label for="a">Departure</label><input id="a" name="dep"></form>`), "x")
	if err != nil || len(forms) != 1 || forms[0].Attributes[0] != "Departure" {
		t.Fatalf("ExtractForms: %v %v", forms, err)
	}
	tables, err := ExtractTables(strings.NewReader(
		`<table><tr><th>Make</th><th>Model</th></tr></table>`), "x")
	if err != nil || len(tables) != 1 || len(tables[0].Attributes) != 2 {
		t.Fatalf("ExtractTables: %v %v", tables, err)
	}
	sheets, err := ExtractSpreadsheet(strings.NewReader("song,artist\na,b\n"), "x")
	if err != nil || len(sheets) != 1 {
		t.Fatalf("ExtractSpreadsheet: %v %v", sheets, err)
	}
	nt, err := ExtractNTriples(strings.NewReader(
		`<http://e/s> <http://e/firstName> "A" .`), "x")
	if err != nil || len(nt) != 1 || nt[0].Attributes[0] != "first name" {
		t.Fatalf("ExtractNTriples: %v %v", nt, err)
	}
}

func TestExtractThenBuildPipeline(t *testing.T) {
	// End-to-end: extract schemas from raw sources, then build and query.
	html := `
<form id="flights">
  <label for="d">Departure airport</label><input id="d" name="dep">
  <label for="a">Destination airport</label><input id="a" name="dst">
  <select name="airline"></select>
</form>`
	forms, err := ExtractForms(strings.NewReader(html), "expedia")
	if err != nil {
		t.Fatal(err)
	}
	sheets, err := ExtractSpreadsheet(strings.NewReader("title,authors,publication year\nA,B,2009\n"), "papers.csv")
	if err != nil {
		t.Fatal(err)
	}
	schemas := append(forms, sheets...)
	schemas = append(schemas,
		Schema{Name: "more-flights", Attributes: []string{"departure", "destination", "airline", "fare"}},
		Schema{Name: "more-papers", Attributes: []string{"paper title", "author", "year"}},
	)
	sys, err := Build(schemas, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumDomains() != 2 {
		t.Fatalf("extracted corpus → %d domains, want 2", sys.NumDomains())
	}
	top := sys.Classify("departure destination")[0]
	flightsDomain := sys.Model().Clustering.Assign[0]
	if top.Domain != flightsDomain {
		t.Fatalf("query routed to %d, want %d", top.Domain, flightsDomain)
	}
}
