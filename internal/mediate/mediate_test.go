package mediate

import (
	"math"
	"reflect"
	"testing"

	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
	"schemaflow/internal/terms"
)

func facultySet() schema.Set {
	return schema.Set{
		{Name: "f1", Attributes: []string{"first name", "last name", "email", "office phone"}},
		{Name: "f2", Attributes: []string{"first name", "family name", "email", "fax"}},
		{Name: "f3", Attributes: []string{"first name", "last name", "email address", "affiliation"}},
	}
}

func TestBuildMediatesSimilarAttributes(t *testing.T) {
	med, err := Build(facultySet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Attrs) == 0 {
		t.Fatal("no mediated attributes")
	}
	// "email" and "email address" should fuse into one mediated attribute.
	emails := 0
	for _, a := range med.Attrs {
		hasEmail := false
		for _, sa := range a.Sources {
			if sa.Name == "email" || sa.Name == "email address" {
				hasEmail = true
			}
		}
		if hasEmail {
			emails++
		}
	}
	if emails != 1 {
		t.Fatalf("email variants spread over %d mediated attributes", emails)
	}
	// "first name" appears in all three schemas → one mediated attribute
	// with three sources.
	fi := med.AttrIndex("first name")
	if fi < 0 {
		t.Fatal("no 'first name' mediated attribute")
	}
	if got := len(med.Attrs[fi].Sources); got != 3 {
		t.Fatalf("'first name' has %d sources, want 3", got)
	}
}

func TestFrequencyThresholdFilters(t *testing.T) {
	// "affiliation" occurs in 1 of 3 schemas = 0.33; a threshold of 0.5
	// must exclude it, while 0.1 keeps it.
	set := facultySet()
	opts := DefaultOptions()
	opts.FreqThreshold = 0.5
	med, err := Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if med.AttrIndex("affiliation") >= 0 {
		t.Fatal("affiliation survived a 0.5 threshold")
	}
	opts.FreqThreshold = 0.1
	med, err = Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if med.AttrIndex("affiliation") < 0 {
		t.Fatal("affiliation filtered at 0.1")
	}
}

func TestNegativeDisablesFiltering(t *testing.T) {
	opts := DefaultOptions()
	opts.Negative = true
	med, err := Build(facultySet(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every distinct attribute concept must be represented.
	for _, name := range []string{"affiliation", "fax", "office phone"} {
		found := false
		for _, a := range med.Attrs {
			for _, sa := range a.Sources {
				if sa.Name == name {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("attribute %q missing with filtering disabled", name)
		}
	}
}

func TestMappingsProbabilitiesSumToOne(t *testing.T) {
	med, err := Build(facultySet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, mappings := range med.Mappings {
		if len(mappings) == 0 {
			t.Fatalf("schema %d has no mappings", i)
		}
		total := 0.0
		for _, mp := range mappings {
			if mp.Prob <= 0 || mp.Prob > 1 {
				t.Fatalf("schema %d: mapping probability %v", i, mp.Prob)
			}
			if len(mp.AttrTo) != len(med.Schemas[i].Attributes) {
				t.Fatalf("schema %d: mapping covers %d attrs, schema has %d",
					i, len(mp.AttrTo), len(med.Schemas[i].Attributes))
			}
			total += mp.Prob
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("schema %d: mapping probabilities sum to %v", i, total)
		}
	}
}

func TestMappingsInjective(t *testing.T) {
	med, err := Build(facultySet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, mappings := range med.Mappings {
		for _, mp := range mappings {
			seen := make(map[int]bool)
			for _, to := range mp.AttrTo {
				if to < 0 {
					continue
				}
				if to >= len(med.Attrs) {
					t.Fatalf("schema %d maps to nonexistent attr %d", i, to)
				}
				if seen[to] {
					t.Fatalf("schema %d: mapping assigns two attrs to mediated %d", i, to)
				}
				seen[to] = true
			}
		}
	}
}

func TestBestMappingIsIdentityOnOwnCluster(t *testing.T) {
	med, err := Build(facultySet(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The highest-probability mapping of schema 0 should route each kept
	// attribute to the mediated attribute containing it.
	best := med.Mappings[0][0]
	for k, name := range med.Schemas[0].Attributes {
		to := best.AttrTo[k]
		if to < 0 {
			continue
		}
		found := false
		for _, sa := range med.Attrs[to].Sources {
			if sa.Schema == 0 && sa.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("best mapping sends %q to unrelated mediated attr %q", name, med.Attrs[to].Name)
		}
	}
}

func TestHomonymFusionWithoutClustering(t *testing.T) {
	// The Section 6.3 pathology: mediating a 'people' schema and a
	// 'biology' schema together fuses the homonym 'family name' into one
	// mediated attribute serving both meanings.
	set := schema.Set{
		{Name: "people", Attributes: []string{"family name", "first name", "email"}},
		{Name: "biology", Attributes: []string{"family name", "genus", "species"}},
	}
	opts := DefaultOptions()
	opts.Negative = true
	med, err := Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	fi := med.AttrIndex("family name")
	if fi < 0 {
		t.Fatal("no 'family name' mediated attribute")
	}
	schemas := make(map[int]bool)
	for _, sa := range med.Attrs[fi].Sources {
		schemas[sa.Schema] = true
	}
	if len(schemas) != 2 {
		t.Fatalf("'family name' should fuse across both schemas, got %v", schemas)
	}
}

func TestEmptyInput(t *testing.T) {
	med, err := Build(nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Attrs) != 0 || len(med.Mappings) != 0 {
		t.Fatal("empty input produced content")
	}
}

// TestFreqThresholdOutsideUnitRejected: a frequency threshold is a fraction
// of schemas. NaN, which used to keep no name at all, and values outside
// [0, 1] are errors, on an empty domain too; Negative overrides whatever
// threshold was set.
func TestFreqThresholdOutsideUnitRejected(t *testing.T) {
	for _, th := range []float64{math.NaN(), -0.5, 1.5, math.Inf(1)} {
		opts := DefaultOptions()
		opts.FreqThreshold = th
		for _, set := range []schema.Set{facultySet(), nil} {
			if _, err := Build(set, opts); err == nil {
				t.Errorf("threshold %v on %d schemas: no error", th, len(set))
			}
		}
		opts.Negative = true
		if _, err := Build(facultySet(), opts); err != nil {
			t.Errorf("threshold %v with Negative: %v", th, err)
		}
	}
	for _, th := range []float64{0.5, 1} {
		opts := DefaultOptions()
		opts.FreqThreshold = th
		if _, err := Build(facultySet(), opts); err != nil {
			t.Errorf("threshold %v: %v", th, err)
		}
	}
}

func TestAttrIndexMissing(t *testing.T) {
	med, _ := Build(facultySet(), DefaultOptions())
	if med.AttrIndex("no such attribute") != -1 {
		t.Fatal("AttrIndex should return -1 for unknown names")
	}
}

// nameSim is the similarity Build uses for two attribute names: the entry of
// the name table of a one-schema domain holding just the two.
func nameSim(opts Options, a, b string) float64 {
	set := schema.Set{{Attributes: []string{a, b}}}
	opts, err := opts.normalized()
	if err != nil {
		panic(err)
	}
	t, err := new(Scratch).nameTable(set, opts, lexiconOf(set, opts))
	if err != nil {
		panic(err)
	}
	return t.sim(int(t.attrs[0]), int(t.attrs[1]))
}

// TestExtendedLexiconKeepsTermOrder: greedy matching reads a name's terms in
// term order, so the lexicon of a space grown by an arrival whose term sorts
// first must hand them over in that order. Under the one-sided prefix t_sim
// "mail" matches "mailboxes" and "mailing", "mailbox" only "mailboxes": in
// term order "mail mailbox" and "mailboxes mailing" share one match (1/3);
// with "mail" read after "mailbox" they would share two (1).
func TestExtendedLexiconKeepsTermOrder(t *testing.T) {
	opts := DefaultOptions()
	opts.TermSim = prefixSim{}
	set := schema.Set{
		{Name: "base", Attributes: []string{"mailbox", "mailboxes mailing"}},
		{Name: "arrival", Attributes: []string{"mail mailbox"}},
	}
	sp := feature.BuildLite(set[:1], feature.Config{TermOpts: terms.DefaultOptions(), Sim: opts.TermSim, Tau: opts.TermTau})
	sp, _ = sp.Extend(set[1])
	tab, err := new(Scratch).nameTable(set, opts, sp.Lexicon())
	if err != nil {
		t.Fatal(err)
	}
	// attrs: mailbox, mailboxes mailing, mail mailbox.
	if got := tab.sim(int(tab.attrs[2]), int(tab.attrs[1])); got != 1.0/3 {
		t.Fatalf("sim(mail mailbox, mailboxes mailing) = %v through the extended lexicon, want 1/3", got)
	}
	ext, err := BuildWith(set, opts, sp.Lexicon(), new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	own, err := Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ext, own) {
		t.Fatalf("through the extended lexicon:\n%+v\nstandalone:\n%+v", ext, own)
	}
}

func TestFuzzyJaccard(t *testing.T) {
	sim := func(a, b string) float64 { return nameSim(DefaultOptions(), a, b) }
	if got := sim("first name", "first name"); got != 1 {
		t.Fatalf("identical names: %v", got)
	}
	// {first, name} vs {name, family}: 1 match, union 3 → 1/3.
	got := sim("first name", "family name")
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("sim(first name, family name) = %v, want 1/3", got)
	}
	// The table holds one value per unordered pair.
	if sim("family name", "first name") != got {
		t.Fatal("name similarity asymmetric")
	}
	// Fuzzy term matching: "email" vs "emails" both single terms matching
	// at τ 0.8 → similarity 1.
	if got := sim("email", "emails"); got != 1 {
		t.Fatalf("sim(email, emails) = %v", got)
	}
}

func TestMongeElkanAttributeSimilarity(t *testing.T) {
	opts := DefaultOptions()
	opts.MongeElkan = true
	sim := func(a, b string) float64 { return nameSim(opts, a, b) }
	// Monge-Elkan rewards containment: "email" vs "email address" scores
	// (1 + (1+t)/2)/2 where t = t_sim(email,address) < 1, i.e. well above
	// the fuzzy-Jaccard 0.5.
	me := sim("email", "email address")
	fj := nameSim(DefaultOptions(), "email", "email address")
	if me <= fj {
		t.Fatalf("Monge-Elkan %v should exceed fuzzy Jaccard %v on containment", me, fj)
	}
	// Unrelated attributes still score low.
	if v := sim("email address", "mileage"); v > 0.5 {
		t.Fatalf("unrelated attributes scored %v under Monge-Elkan", v)
	}
	// Mediation still satisfies its structural laws under Monge-Elkan.
	med, err := Build(facultySet(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Attrs) == 0 {
		t.Fatal("no mediated attributes")
	}
	for i, mappings := range med.Mappings {
		total := 0.0
		for _, mp := range mappings {
			total += mp.Prob
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("schema %d: mapping probabilities sum to %v", i, total)
		}
	}
}

func TestPaygLCSeqOption(t *testing.T) {
	// Covered more fully in payg tests; here just assert the measure exists
	// with sensible behavior on rephrasings.
	if nameSim(DefaultOptions(), "year of publish", "publication year") <= 0 {
		t.Fatal("rephrased attributes should overlap")
	}
}

func TestDescribe(t *testing.T) {
	med, _ := Build(facultySet(), DefaultOptions())
	if med.Describe() == "" {
		t.Fatal("empty description")
	}
}
