package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"schemaflow/internal/terms"
)

// inputs renders everything a seed generates — the three corpus files and
// the three op streams — so determinism is one comparison per kind.
func inputs(seed int64) (files [][]byte, streams []any) {
	p := smokeParams
	wide := wideCorpus(p, seed)
	fuzzy, c := fuzzyCorpus(p, seed)
	base, held := mixedCorpus(p, seed)
	files = [][]byte{corpusBytes(wide), corpusBytes(fuzzy), corpusBytes(base), corpusBytes(held)}
	streams = []any{
		wideQueries(wide, seed, 300),
		fuzzyQueries(c, seed, 300),
		hotQueries(base, seed, p.MixedHot),
		mixedSchedule(p, seed, 500),
	}
	return files, streams
}

func TestSameSeedSameInputs(t *testing.T) {
	f1, s1 := inputs(7)
	f2, s2 := inputs(7)
	for i := range f1 {
		if !bytes.Equal(f1[i], f2[i]) {
			t.Errorf("corpus file %d differs between two generations at one seed", i)
		}
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("op streams differ between two generations at one seed")
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	f1, s1 := inputs(7)
	f2, s2 := inputs(8)
	for i := range f1 {
		if bytes.Equal(f1[i], f2[i]) {
			t.Errorf("corpus file %d is identical at seeds 7 and 8", i)
		}
	}
	for i := range s1 {
		if reflect.DeepEqual(s1[i], s2[i]) {
			t.Errorf("op stream %d is identical at seeds 7 and 8", i)
		}
	}
}

func TestQueriesAreDistinctByTermSet(t *testing.T) {
	p := smokeParams
	_, c := fuzzyCorpus(p, 3)
	for name, qs := range map[string][]query{
		"wide":  wideQueries(wideCorpus(p, 3), 3, 500),
		"fuzzy": fuzzyQueries(c, 3, 500),
	} {
		seen := map[string]bool{}
		for _, q := range qs {
			key := strings.Join(terms.ExtractList(strings.Fields(q.Q), terms.DefaultOptions()), " ")
			if seen[key] {
				t.Fatalf("%s stream repeats term set %q: the result cache could hit", name, key)
			}
			seen[key] = true
			if q.Label == "" {
				t.Fatalf("%s query %q has no label", name, q.Q)
			}
		}
	}
}

// A compound term must survive term extraction as one long token, or the
// fuzzy workload silently stops stressing the matcher.
func TestCompoundTermsAreSingleTokens(t *testing.T) {
	set, _ := fuzzyCorpus(smokeParams, 1)
	for _, s := range set[:20] {
		for _, a := range s.Attributes {
			if got := terms.FromAttribute(a, terms.DefaultOptions()); len(got) != 1 || got[0] != a {
				t.Fatalf("attribute %q extracts to %v", a, got)
			}
		}
	}
}

func TestMixedCorpusSplit(t *testing.T) {
	p := fullParams
	base, held := mixedCorpus(p, 5)
	if len(base) != p.MixedBase || len(held) != p.MixedHeldOut {
		t.Fatalf("split %d/%d, want %d/%d", len(base), len(held), p.MixedBase, p.MixedHeldOut)
	}
	seen := map[string]bool{}
	labels := map[string]bool{}
	for _, s := range base {
		seen[s.Name] = true
		labels[labelOf(s.Name)] = true
	}
	if len(labels) != p.MixedDomains {
		t.Fatalf("base covers %d domains, want %d", len(labels), p.MixedDomains)
	}
	unseen := 0
	for _, s := range held {
		if seen[s.Name] {
			t.Fatalf("%s is both served and held out", s.Name)
		}
		seen[s.Name] = true
		if !labels[labelOf(s.Name)] {
			unseen++
		}
	}
	if want := p.MixedHeldOut / 10; unseen < want*8/10 || unseen > want*12/10 {
		t.Fatalf("%d arrivals from unseen domains, want about %d", unseen, want)
	}
}

func TestMixedScheduleShape(t *testing.T) {
	p := fullParams
	const total = 3000
	ops := mixedSchedule(p, 5, total)
	var n [numOpKinds]int
	nextIngest := uint32(0)
	for i, op := range ops {
		n[op.Kind]++
		if i > 0 && op.DueNs <= ops[i-1].DueNs {
			t.Fatalf("op %d due at %d, not after op %d", i, op.DueNs, i-1)
		}
		switch op.Kind {
		case opIngest:
			if op.Arg != nextIngest {
				t.Fatalf("ingest %d posts arrival %d: arrivals must go in order, once each", nextIngest, op.Arg)
			}
			nextIngest++
		case opClassify:
			if int(op.Arg) >= p.MixedHot {
				t.Fatalf("classify draws hot query %d of %d", op.Arg, p.MixedHot)
			}
		}
	}
	if last, want := float64(ops[total-1].DueNs)/1e9, (total-1)/p.MixedRate; last < want-0.001 || last > want+0.001 {
		t.Fatalf("%d ops at %v/s end at %.3fs, want %.3fs", total, p.MixedRate, last, want)
	}
	for k, want := range map[int]float64{opClassify: 0.60, opQuery: 0.25, opIngest: 0.15} {
		if got := float64(n[k]) / float64(len(ops)); got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want %.2f", opKindNames[k], got, want)
		}
	}
}

func TestLabelOf(t *testing.T) {
	for name, want := range map[string]string{"lg-d0003-00012": "d0003", "cp-s07-0123": "s07", "odd": ""} {
		if got := labelOf(name); got != want {
			t.Errorf("labelOf(%q) = %q, want %q", name, got, want)
		}
	}
	if got := labelOf(wideCorpus(smokeParams, 1)[0].Name); got != "d0000" {
		t.Errorf("first wide schema labelled %q", got)
	}
}
