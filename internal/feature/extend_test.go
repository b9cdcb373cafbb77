package feature

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// extendCorpus generates a deterministic synthetic corpus with overlapping
// vocabulary across schemas plus per-schema novel terms, so extension
// exercises cross-matching (new term vs old vocabulary) in both directions.
func extendCorpus(n int, seed int64) schema.Set {
	rng := rand.New(rand.NewSource(seed))
	domains := [][]string{
		{"title", "author", "publication year", "venue", "pages", "abstract"},
		{"make", "model", "mileage", "price", "transmission", "fuel type"},
		{"departure city", "arrival city", "airline", "flight number", "fare"},
		{"hotel name", "check in date", "check out date", "room rate", "guests"},
		{"song title", "artist name", "album", "duration", "genre"},
	}
	variants := []string{"", "s", "ing", "number", "code", "info"}
	set := make(schema.Set, 0, n)
	for i := 0; i < n; i++ {
		dom := domains[i%len(domains)]
		var attrs []string
		for _, a := range dom {
			if rng.Intn(10) < 7 {
				attrs = append(attrs, a)
			}
		}
		// A couple of mutated attributes: shared roots with fresh suffixes
		// keep the vocabulary growing while staying fuzzily matchable.
		for k := 0; k < 2; k++ {
			base := dom[rng.Intn(len(dom))]
			attrs = append(attrs, fmt.Sprintf("%s %s%02d", base, variants[rng.Intn(len(variants))], rng.Intn(30)))
		}
		if len(attrs) == 0 {
			attrs = dom[:1]
		}
		set = append(set, schema.Schema{Name: fmt.Sprintf("s%03d", i), Attributes: attrs})
	}
	return set
}

// checkSameSpace asserts that got and want embed the same schemas alike:
// the same vocabulary in the same order, the same bit lists, exactly equal
// pairwise similarities, and spelling tables that hold the same spellings
// and both meet their definition.
func checkSameSpace(t *testing.T, got, want *Space) {
	t.Helper()
	checkLexicon(t, got)
	checkLexicon(t, want)
	if len(got.lex.spellings) != len(want.lex.spellings) {
		t.Fatalf("spellings: got %d, want %d", len(got.lex.spellings), len(want.lex.spellings))
	}
	for a := range want.lex.spellings {
		if _, _, ok := got.Lexicon().Lookup(a); !ok {
			t.Fatalf("spelling %q missing", a)
		}
	}
	if got.NumSchemas() != want.NumSchemas() {
		t.Fatalf("schema count: got %d, want %d", got.NumSchemas(), want.NumSchemas())
	}
	if !slices.Equal(got.Vocab, want.Vocab) {
		t.Fatalf("vocabulary: got %q, want %q", got.Vocab, want.Vocab)
	}
	for i := range want.NumSchemas() {
		if !slices.Equal(got.Bits(i), want.Bits(i)) {
			t.Fatalf("schema %d: bits %v, want %v", i, got.Bits(i), want.Bits(i))
		}
	}
	for i := 0; i < want.NumSchemas(); i++ {
		for j := i + 1; j < want.NumSchemas(); j++ {
			if g, w := got.Similarity(i, j), want.Similarity(i, j); g != w {
				t.Fatalf("similarity(%d,%d): got %v, want %v", i, j, g, w)
			}
		}
	}
}

// checkFields asserts that got holds what want holds, field for field. The
// match index's lookup strategy is compared by kind, since the gram index
// keeps a scratch pool.
func checkFields(t *testing.T, label string, got, want *Space) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"configuration", got.cfg, want.cfg},
		{"schemas", got.set, want.set},
		{"vocabulary", got.Vocab, want.Vocab},
		{"vocabulary index", got.VocabIndex, want.VocabIndex},
		{"term sets", got.TermIDs, want.TermIDs},
		{"term→schema index", got.termSchemas, want.termSchemas},
		{"bit lists", got.bits, want.bits},
		{"bit→schema postings", got.postings, want.postings},
		{"match index vocabulary", got.matcher.vocab, want.matcher.vocab},
		{"match threshold", got.matcher.threshold, want.matcher.threshold},
		{"match minimum length", got.matcher.minLen, want.matcher.minLen},
		{"match lists", got.matcher.vocabMatches, want.matcher.vocabMatches},
		{"match strategy", fmt.Sprintf("%T", got.matcher.strategy), fmt.Sprintf("%T", want.matcher.strategy)},
		{"spelling table", *got.lex, *want.lex},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differ:\n got %v\nwant %v", label, f.name, f.got, f.want)
		}
	}
}

// TestExtendIsBuildLiteOfTheGrownSet holds Extend to its definition: applied
// twice in a row, it returns, field for field, what BuildLite builds over the
// receiver's schemas followed by the two arrivals, and each arrival's index.
// It runs under the default gram index and under literal-zero MinLength and
// τ_t_sim, which reach the second build only as the first one resolved them:
// normalized again, they would read as the defaults 3 and 0.8, and the
// arrivals' two-letter terms would drop out. The receiver's schema set has
// room to append into, and a second arrival extends the same receiver, so
// an Extend growing the set in place shows in the first product's schemas.
func TestExtendIsBuildLiteOfTheGrownSet(t *testing.T) {
	corpus := extendCorpus(21, 5)
	short := schema.Schema{Name: "short", Attributes: []string{"mm dd yy", "price"}}
	for name, cfg := range map[string]Config{
		"default":      DefaultConfig(),
		"literal-zero": {TermOpts: terms.Options{MinLength: -1}, Tau: -1},
	} {
		sp := BuildLite(slices.Grow(slices.Clone(corpus[:20]), 4), cfg)
		ext, first := sp.Extend(corpus[20])
		other, _ := sp.Extend(short)
		ext, second := ext.Extend(short)
		if first != 20 || second != 21 {
			t.Fatalf("%s: arrivals at %d and %d, want 20 and 21", name, first, second)
		}
		checkFields(t, name, ext, BuildLite(append(corpus[:21:21], short), cfg))
		checkFields(t, name+", second arrival on the receiver", other, BuildLite(append(corpus[:20:20], short), cfg))
		if _, ok := ext.VocabIndex["mm"]; ok != (name == "literal-zero") {
			t.Fatalf("%s: two-letter term kept = %v", name, ok)
		}
	}
}

// TestExtendEquivalence: a space grown one schema at a time by Extend is a
// from-scratch BuildLite over the grown set — same vocabulary, the same bits
// and exactly equal similarities — across every similarity function,
// including the full-scan fallback and the asymmetric ones.
func TestExtendEquivalence(t *testing.T) {
	corpus := extendCorpus(40, 7)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"lcs", DefaultConfig()},
		{"stem", func() Config { c := DefaultConfig(); c.Sim = strsim.StemSim{}; return c }()},
		{"exact", func() Config { c := DefaultConfig(); c.Sim = strsim.ExactSim{}; return c }()},
		{"lcsubsequence-fullscan", func() Config { c := DefaultConfig(); c.Sim = strsim.LCSeqSim{}; return c }()},
		// Deliberately asymmetric user similarities: a match list holds the
		// terms its owner matches in that direction (see extend_asym_test.go).
		{"asymmetric-prefix", func() Config { c := DefaultConfig(); c.Sim = prefixSim{}; return c }()},
		{"asymmetric-lenbias", func() Config { c := DefaultConfig(); c.Sim = lenBiasSim{}; c.Tau = 0.6; return c }()},
	}
	const baseN = 30
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := BuildLite(corpus[:baseN], tc.cfg)
			for _, s := range corpus[baseN:] {
				var idx int
				sp, idx = sp.Extend(s)
				if idx != sp.NumSchemas()-1 {
					t.Fatalf("Extend returned index %d, want %d", idx, sp.NumSchemas()-1)
				}
			}
			checkSameSpace(t, sp, BuildLite(corpus, tc.cfg))
		})
	}
}

// TestExtendFromFullSpace checks extension of a space built from scratch —
// what the serving model's space is after a rebuild — and that the extended
// space answers query embeddings identically to a rebuilt one.
func TestExtendFromFullSpace(t *testing.T) {
	corpus := extendCorpus(30, 11)
	full := BuildLite(corpus[:29], DefaultConfig())
	ext, idx := full.Extend(corpus[29])
	if idx != 29 {
		t.Fatalf("index %d, want 29", idx)
	}
	ref := BuildLite(corpus, DefaultConfig())
	checkSameSpace(t, ext, ref)

	for _, q := range [][]string{
		{"title", "author"},
		{"fare", "airline", "departure"},
		{"room", "rate", "guests", "check"},
		{"mileage"},
	} {
		if got, want := ext.QueryVector(q).IndicesAppend(nil), ref.QueryVector(q).IndicesAppend(nil); !slices.Equal(got, want) {
			t.Fatalf("query %v: extended space embeds %v, rebuilt %v", q, got, want)
		}
	}
}

// TestExtendCopyOnWrite: extending a space builds a new one and leaves the
// receiver as it was — its schemas, dimensionality, spelling table, bit
// lists and similarities — so a reader of the serving space is unaffected.
func TestExtendCopyOnWrite(t *testing.T) {
	corpus := extendCorpus(20, 3)
	sp := BuildLite(corpus[:19], DefaultConfig())
	dim := sp.Dim()
	bits := make([][]int32, sp.NumSchemas())
	for i := range bits {
		bits[i] = slices.Clone(sp.Bits(i))
	}
	sims := make([]float64, 0)
	for i := 0; i < sp.NumSchemas(); i++ {
		for j := i + 1; j < sp.NumSchemas(); j++ {
			sims = append(sims, sp.Similarity(i, j))
		}
	}
	var fresh []string // the newcomer's spellings the original lexicon lacks
	for _, a := range corpus[19].Attributes {
		if _, _, ok := sp.Lexicon().Lookup(a); !ok {
			fresh = append(fresh, a)
		}
	}

	ext, _ := sp.Extend(corpus[19])
	if ext.Dim() < dim {
		t.Fatalf("extended dim %d below original %d", ext.Dim(), dim)
	}
	if sp.Dim() != dim || len(sp.Vocab) != dim || sp.NumSchemas() != 19 || len(sp.set) != 19 {
		t.Fatal("Extend changed the original space's shape")
	}
	for _, a := range fresh {
		if _, _, ok := sp.Lexicon().Lookup(a); ok {
			t.Fatalf("Extend wrote the newcomer's spelling %q into the original lexicon", a)
		}
	}
	checkLexicon(t, sp)
	for i, b := range bits {
		if !slices.Equal(sp.Bits(i), b) {
			t.Fatalf("Extend changed original bit list %d", i)
		}
	}
	k := 0
	for i := 0; i < sp.NumSchemas(); i++ {
		for j := i + 1; j < sp.NumSchemas(); j++ {
			if sp.Similarity(i, j) != sims[k] {
				t.Fatalf("Extend changed original similarity(%d,%d)", i, j)
			}
			k++
		}
	}
}

// TestExtendNoNewTerms: an arrival whose attributes bring no term the space
// lacks keeps the dimensionality, lands at the next schema index and still
// reads as BuildLite over the grown set.
func TestExtendNoNewTerms(t *testing.T) {
	set := schema.Set{
		{Name: "a", Attributes: []string{"title", "author", "year"}},
		{Name: "b", Attributes: []string{"title", "venue"}},
	}
	sp := BuildLite(set, DefaultConfig())
	newcomer := schema.Schema{Name: "c", Attributes: []string{"author", "venue"}}
	ext, idx := sp.Extend(newcomer)
	if ext.Dim() != sp.Dim() {
		t.Fatalf("dim changed: %d -> %d", sp.Dim(), ext.Dim())
	}
	if idx != 2 || ext.NumSchemas() != 3 {
		t.Fatalf("idx %d, n %d", idx, ext.NumSchemas())
	}
	checkSameSpace(t, ext, BuildLite(append(set[:2:2], newcomer), DefaultConfig()))
}
