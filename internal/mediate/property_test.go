package mediate

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// TestPropertyBuildInvariants fuzzes corpora and checks structural
// invariants of mediation:
//
//   - every mediated attribute has ≥1 source, and no kept source attribute
//     appears in two mediated attributes;
//   - per schema, mapping probabilities sum to 1 and each mapping is
//     injective and complete (one entry per source attribute);
//   - with filtering disabled, every source attribute occurrence is covered
//     by some mediated attribute.
func TestPropertyBuildInvariants(t *testing.T) {
	pool := []string{
		"title", "paper title", "authors", "author names", "year",
		"publication year", "venue", "pages", "publisher", "abstract",
		"make", "model", "price", "mileage", "first name", "email",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		set := make(schema.Set, n)
		for i := range set {
			k := 2 + rng.Intn(4)
			perm := rng.Perm(len(pool))[:k]
			attrs := make([]string, k)
			for j, p := range perm {
				attrs[j] = pool[p]
			}
			set[i] = schema.Schema{Name: "s", Attributes: attrs}
		}
		opts := DefaultOptions()
		if rng.Intn(2) == 0 {
			opts.Negative = true
		}
		med, err := Build(set, opts)
		if err != nil {
			return false
		}

		// Disjoint coverage of kept occurrences.
		seen := make(map[[2]int]bool)
		for _, ma := range med.Attrs {
			if len(ma.Sources) == 0 || ma.Name == "" {
				return false
			}
			for _, sa := range ma.Sources {
				key := [2]int{sa.Schema, sa.Attr}
				if seen[key] {
					return false // one occurrence in two mediated attrs
				}
				seen[key] = true
			}
		}
		if opts.Negative {
			for i, s := range set {
				for k := range s.Attributes {
					if !seen[[2]int{i, k}] {
						return false // unfiltered attribute dropped
					}
				}
			}
		}

		// Mapping laws.
		for i, mappings := range med.Mappings {
			if len(mappings) == 0 {
				return false
			}
			total := 0.0
			for _, mp := range mappings {
				if len(mp.AttrTo) != len(set[i].Attributes) {
					return false
				}
				used := make(map[int]bool)
				for _, to := range mp.AttrTo {
					if to < 0 {
						continue
					}
					if to >= len(med.Attrs) || used[to] {
						return false
					}
					used[to] = true
				}
				if mp.Prob <= 0 || mp.Prob > 1+1e-12 {
					return false
				}
				total += mp.Prob
			}
			if math.Abs(total-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFrequencyMonotone: lowering the threshold never shrinks the
// mediated schema.
func TestPropertyFrequencyMonotone(t *testing.T) {
	pool := []string{
		"title", "authors", "year", "venue", "pages",
		"make", "model", "price", "mileage", "color",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		set := make(schema.Set, n)
		for i := range set {
			k := 2 + rng.Intn(4)
			perm := rng.Perm(len(pool))[:k]
			attrs := make([]string, k)
			for j, p := range perm {
				attrs[j] = pool[p]
			}
			set[i] = schema.Schema{Name: "s", Attributes: attrs}
		}
		sizes := make([]int, 0, 3)
		for _, th := range []float64{0.6, 0.3, 0.05} {
			opts := DefaultOptions()
			opts.FreqThreshold = th
			med, err := Build(set, opts)
			if err != nil {
				return false
			}
			sizes = append(sizes, len(med.Attrs))
		}
		return sizes[0] <= sizes[1] && sizes[1] <= sizes[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNameTableIsTheDefinition checks the name table against the
// definitions it tabulates, on small random domains that spell one canonical
// name several ways. The names must be the distinct canonical forms
// (lower-cased, whitespace squeezed) in ascending order, and the id array
// must file every attribute under its form's name. sim(i, j) must be the
// configured attribute similarity of the terms of the two names' first
// spellings in source order, smaller name first — "firstName" yields two
// terms and "firstname" one, so the spelling seen first decides — and a
// name's frequency must be the fraction of schemas holding an attribute at
// least θ_attr similar to it, counted here schema by schema. A third of the
// runs use a one-sided t_sim, the one thing under which the direction of a
// comparison shows. Half read a lexicon grown by Space.Extend with a term
// that sorts before every other; there term ids must ascend with terms and
// BuildWith must list Attrs by Name and equal Build. Every domain goes
// through the same Scratch, as a worker's domains do.
func TestPropertyNameTableIsTheDefinition(t *testing.T) {
	pool := []string{
		"First  Name", "first name", "firstName", "firstname", "FIRSTNAME",
		"last name", "Last Name", "family name", "name",
		"email", "email address", "Email  Address", "emails", "phone", "office phone",
		// Terms out of alphabetical order, the second one novel to the
		// prefix a grown lexicon starts from half the time: term order is
		// what greedy matching reads.
		"name of first", "phone office", "emailing phones", "emails email",
	}
	canonical := func(a string) string { return strings.Join(strings.Fields(strings.ToLower(a)), " ") }
	sc := new(Scratch)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := make(schema.Set, 2+rng.Intn(6))
		for i := range set {
			k := 1 + rng.Intn(5)
			attrs := make([]string, k)
			for j, p := range rng.Perm(len(pool))[:k] {
				attrs[j] = pool[p]
			}
			set[i] = schema.Schema{Name: "s", Attributes: attrs}
		}
		opts := DefaultOptions()
		opts.MongeElkan = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			opts.TermSim = prefixSim{}
		}
		// The lexicon is Build's own, or half the time that of a space built
		// over a prefix of the domain and grown by Space.Extend with the rest
		// and then an arrival outside the domain whose one term, "aardvark",
		// sorts before every other: it takes term id 0 and moves every other
		// term's id up, and ids must still ascend with terms.
		lx := lexiconOf(set, opts)
		grown := rng.Intn(2) == 0
		if grown {
			cfg := feature.Config{TermOpts: terms.DefaultOptions(), Sim: opts.TermSim, Tau: opts.TermTau}
			k := rng.Intn(len(set))
			sp := feature.BuildLite(set[:k], cfg)
			for _, s := range append(set[k:len(set):len(set)], schema.Schema{Name: "arrival", Attributes: []string{"Aardvark"}}) {
				sp, _ = sp.Extend(s)
			}
			lx = sp.Lexicon()
			if ids, _, _ := lx.Lookup("Aardvark"); !slices.Equal(ids, []int32{0}) {
				return false
			}
			var all []int32
			for _, s := range set {
				for _, a := range s.Attributes {
					ids, _, _ := lx.Lookup(a)
					all = append(all, ids...)
				}
			}
			slices.Sort(all)
			all = slices.Compact(all)
			for i := 1; i < len(all); i++ {
				if lx.Term(all[i-1]) >= lx.Term(all[i]) {
					return false // ids out of term order
				}
			}
		}
		tab, err := sc.nameTable(set, opts, lx)
		if err != nil {
			t.Log(err)
			return false
		}

		// The definition's view: the distinct canonical names, ascending,
		// and each one's first spelling.
		first := make(map[string]string)
		var names []string
		for _, s := range set {
			for _, a := range s.Attributes {
				if _, ok := first[canonical(a)]; !ok {
					first[canonical(a)] = a
					names = append(names, canonical(a))
				}
			}
		}
		slices.Sort(names)
		termsOf := func(canon string) []string {
			return terms.ExtractList([]string{first[canon]}, terms.DefaultOptions())
		}
		sim := func(a, b string) float64 {
			if a == b {
				return 1
			}
			if b < a {
				a, b = b, a
			}
			if opts.MongeElkan {
				return strsim.MongeElkanSym(termsOf(a), termsOf(b), opts.TermSim)
			}
			// Sim ≥ τ spelled out, so the lexicon's match lists are held to it.
			return fuzzyJaccardOf(termsOf(a), termsOf(b), func(x, y string) bool {
				return x == y || opts.TermSim.Sim(x, y) >= opts.TermTau
			})
		}

		if len(tab.names) != len(names) {
			return false
		}
		for i, nm := range tab.names {
			if lx.Canonical(nm.canon) != names[i] {
				return false // not the ascending canonical names
			}
		}
		at := 0
		for _, s := range set {
			for _, a := range s.Attributes {
				if names[tab.attrs[at]] != canonical(a) {
					return false // a spelling filed under another name
				}
				at++
			}
		}
		if len(tab.attrs) != at {
			return false
		}
		freq := tab.frequencies(len(set))
		for i, ni := range names {
			for j, nj := range names {
				if tab.sim(i, j) != sim(ni, nj) {
					return false
				}
			}
			in := 0
			for _, s := range set {
				for _, a := range s.Attributes {
					if sim(ni, canonical(a)) >= thetaAttr {
						in++
						break
					}
				}
			}
			if freq[i] != float64(in)/float64(len(set)) {
				return false
			}
		}
		if !grown {
			return true
		}
		// Mediation through the grown lexicon lists Attrs by Name and is
		// mediation through the domain's own.
		med, err := BuildWith(set, opts, lx, sc)
		if err != nil || !slices.IsSortedFunc(med.Attrs, func(a, b MediatedAttr) int { return strings.Compare(a.Name, b.Name) }) {
			return false
		}
		own, err := Build(set, opts)
		return err == nil && reflect.DeepEqual(med, own)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fuzzyJaccardOf is fuzzy term-set Jaccard by definition, over term strings:
// each term of ta, in order, takes the first unused term of tb it is similar
// to, and the score is matched / (|ta| + |tb| − matched), 0 for two empty
// lists.
func fuzzyJaccardOf(ta, tb []string, similar func(x, y string) bool) float64 {
	used := make([]bool, len(tb))
	matched := 0
	for _, x := range ta {
		for j, y := range tb {
			if !used[j] && similar(x, y) {
				used[j] = true
				matched++
				break
			}
		}
	}
	if union := len(ta) + len(tb) - matched; union > 0 {
		return float64(matched) / float64(union)
	}
	return 0
}

// prefixSim is a deliberately asymmetric t_sim: a matches b when a is a
// prefix of b ("email" matches "emails", not the reverse).
type prefixSim struct{}

func (prefixSim) Name() string { return "prefix" }

func (prefixSim) Sim(a, b string) float64 {
	if strings.HasPrefix(b, a) {
		return 1
	}
	return 0
}

// tiedScore draws a product of up to four factors from {1, 0.5, 0.1}: the
// only scores the beam and the candidate lists ever hold, and nearly all ties.
func tiedScore(rng *rand.Rand) float64 {
	score := 1.0
	for f := rng.Intn(5); f > 0; f-- {
		score *= []float64{1, 0.5, unmappedWeight}[rng.Intn(3)]
	}
	return score
}

// TestPropertySortIsSortSlice pins what the tie order of every mapping rests
// on. The beam sorts 16-byte (score, slot) keys with slices.SortFunc under
// byScore; the digests were recorded from sort.Slice over 32-byte partials
// ({attrTo []int, score}) under "greater score first". pdqsort's swaps
// depend only on the length and on the outcomes of its comparisons, so the
// two must leave the same permutation, element for element, on inputs long
// enough to leave insertion sort (> 12) and full of ties. Candidates, sorted
// under byWeight, are held to sort.Slice the same way.
func TestPropertySortIsSortSlice(t *testing.T) {
	type partial struct {
		attrTo []int
		score  float64
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(71)
		keys, parts, cs := make([]key, n), make([]partial, n), make([]candidate, n)
		for i := range parts {
			score := tiedScore(rng)
			keys[i] = key{score: score, slot: i} // slot / attrTo / med: the element's identity
			parts[i] = partial{attrTo: []int{i}, score: score}
			cs[i] = candidate{med: i, weight: score}
		}
		wantCs := slices.Clone(cs)
		sort.Slice(parts, func(a, b int) bool { return parts[a].score > parts[b].score })
		sort.Slice(wantCs, func(a, b int) bool { return wantCs[a].weight > wantCs[b].weight })
		slices.SortFunc(keys, byScore)
		slices.SortFunc(cs, byWeight)
		for i := range parts {
			if keys[i].slot != parts[i].attrTo[0] || cs[i] != wantCs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// beamByDefinition is the mapping enumeration as DESIGN §5c states it, with
// nothing shared between partials: every extension is a fresh slice, each
// step sorts by score and keeps 16, the end sorts again and keeps 4, and the
// scores are normalised. names are the schema's attributes as name ids.
func beamByDefinition(names []int32, cands [][]candidate) []Mapping {
	type part struct {
		attrTo []int
		score  float64
	}
	byScore := func(ps []part) {
		sort.Slice(ps, func(a, b int) bool { return ps[a].score > ps[b].score })
	}
	beam := []part{{score: 1}}
	for _, a := range names {
		var next []part
		for _, p := range beam {
			next = append(next, part{append(slices.Clone(p.attrTo), -1), p.score * unmappedWeight})
			for _, c := range cands[a] {
				if !slices.Contains(p.attrTo, c.med) {
					next = append(next, part{append(slices.Clone(p.attrTo), c.med), p.score * c.weight})
				}
			}
		}
		byScore(next)
		beam = next[:min(len(next), 16)]
	}
	byScore(beam)
	beam = beam[:min(len(beam), 4)]
	total := 0.0
	for _, p := range beam {
		total += p.score
	}
	var out []Mapping
	for _, p := range beam {
		out = append(out, Mapping{AttrTo: p.attrTo, Prob: p.score / total})
	}
	return out
}

// sameMappings compares AttrTo element for element (nil against nil) and
// Prob bit for bit.
func sameMappings(got, want []Mapping) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d mappings, want %d", len(got), len(want))
	}
	for i := range got {
		if (got[i].AttrTo == nil) != (want[i].AttrTo == nil) || !slices.Equal(got[i].AttrTo, want[i].AttrTo) {
			return fmt.Errorf("mapping %d: AttrTo %#v, want %#v", i, got[i].AttrTo, want[i].AttrTo)
		}
		if math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
			return fmt.Errorf("mapping %d: Prob %v, want %v", i, got[i].Prob, want[i].Prob)
		}
	}
	return nil
}

// randomBeamInput draws a domain for the beam alone: a few names with up to
// maxCandidates candidates each over a handful of mediated attributes (so
// injectivity bites), and schemas of 0–8 attributes drawn with repetition
// (duplicate names; 4³ > 16 live partials from three attributes on), each
// given as the name ids of its attributes. A third of the domains weigh
// every candidate like leaving the attribute unmapped: every partial of a
// step ties.
func randomBeamInput(rng *rand.Rand) ([][]int32, [][]candidate) {
	cands := make([][]candidate, 1+rng.Intn(6))
	allTied := rng.Intn(3) == 0
	for a := range cands {
		for _, med := range rng.Perm(5)[:rng.Intn(maxCandidates+1)] {
			w := []float64{1, 0.5, 0.5, unmappedWeight}[rng.Intn(4)]
			if allTied {
				w = unmappedWeight
			}
			cands[a] = append(cands[a], candidate{med: med, weight: w})
		}
	}
	schemas := make([][]int32, 1+rng.Intn(6))
	for i := range schemas {
		schemas[i] = make([]int32, rng.Intn(9))
		for k := range schemas[i] {
			schemas[i][k] = int32(rng.Intn(len(cands)))
		}
	}
	return schemas, cands
}

// TestPropertyBeamIsTheDefinition holds the two-buffer beam to the
// enumeration it abbreviates. All of a domain's schemas go through one beam
// before any is compared, and every domain through the same one, so a
// mapping still pointing into the scratch shows as soon as the next schema
// overwrites it.
func TestPropertyBeamIsTheDefinition(t *testing.T) {
	bm := new(beam)
	f := func(seed int64) bool {
		schemas, cands := randomBeamInput(rand.New(rand.NewSource(seed)))
		got := make([][]Mapping, len(schemas))
		for i, names := range schemas {
			got[i] = bm.buildMappings(names, cands)
		}
		for i, names := range schemas {
			if err := sameMappings(got[i], beamByDefinition(names, cands)); err != nil {
				t.Logf("seed %d, schema %d %v: %v", seed, i, names, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestMappingsDoNotAlias: a caller may keep, overwrite and append to one
// AttrTo; no other mapping — of that schema or of the next one built in the
// same scratch — may see it.
func TestMappingsDoNotAlias(t *testing.T) {
	cands := [][]candidate{{{med: 0, weight: 1}, {med: 1, weight: 0.5}}, {{med: 1, weight: 1}, {med: 0, weight: 0.5}}}
	schemas := [][]int32{{0, 1, 0}, {1, 0, 1}} // as name ids
	bm := new(beam)
	first := bm.buildMappings(schemas[0], cands)
	if len(first) != maxMappings {
		t.Fatalf("%d mappings, want %d", len(first), maxMappings)
	}
	for k := range first[1].AttrTo {
		first[1].AttrTo[k] = 99
	}
	_ = append(first[1].AttrTo, 99)
	second := bm.buildMappings(schemas[1], cands)

	want := beamByDefinition(schemas[0], cands)
	want[1].AttrTo = []int{99, 99, 99}
	if err := sameMappings(first, want); err != nil {
		t.Errorf("first schema after a write through its second mapping and another build: %v", err)
	}
	if err := sameMappings(second, beamByDefinition(schemas[1], cands)); err != nil {
		t.Errorf("second schema: %v", err)
	}
}
