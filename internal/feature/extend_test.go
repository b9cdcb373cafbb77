package feature

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
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

// canonicalBits returns sp's set-bit lists re-expressed over sp's vocabulary
// sorted ascending — the canonical order BuildLite uses — so the two spaces
// can be compared bit for bit.
func canonicalBits(sp *Space) (vocab []string, bits [][]int32) {
	vocab = append([]string(nil), sp.Vocab...)
	sort.Strings(vocab)
	perm := make([]int, len(sp.Vocab)) // old index -> canonical index
	pos := make(map[string]int, len(vocab))
	for j, t := range vocab {
		pos[t] = j
	}
	for j, t := range sp.Vocab {
		perm[j] = pos[t]
	}
	bits = make([][]int32, sp.NumSchemas())
	for i := range bits {
		for _, j := range sp.Bits(i) {
			bits[i] = append(bits[i], int32(perm[j]))
		}
		slices.Sort(bits[i])
	}
	return vocab, bits
}

// checkExtendEquivalence asserts that ext (built by chained Extend calls) is
// equivalent to ref (a from-scratch BuildLite over the same schema set):
// identical vocabulary set, bit-identical vectors once ext's appended
// vocabulary order is put in canonical (sorted) order, exactly equal
// pairwise similarities, and spelling tables that hold the same spellings
// and both meet their definition.
func checkExtendEquivalence(t *testing.T, ext, ref *Space) {
	t.Helper()
	checkLexicon(t, ext)
	checkLexicon(t, ref)
	if len(ext.lex.spellings) != len(ref.lex.spellings) {
		t.Fatalf("spellings: ext %d, ref %d", len(ext.lex.spellings), len(ref.lex.spellings))
	}
	for a := range ref.lex.spellings {
		if _, _, ok := ext.Lexicon().Lookup(a); !ok {
			t.Fatalf("spelling %q missing from the extended lexicon", a)
		}
	}
	if ext.NumSchemas() != ref.NumSchemas() {
		t.Fatalf("schema count: ext %d, ref %d", ext.NumSchemas(), ref.NumSchemas())
	}
	if ext.Dim() != ref.Dim() {
		t.Fatalf("dimensionality: ext %d, ref %d", ext.Dim(), ref.Dim())
	}
	extVocab, extBits := canonicalBits(ext)
	for j, term := range ref.Vocab {
		if extVocab[j] != term {
			t.Fatalf("vocab[%d]: ext %q, ref %q", j, extVocab[j], term)
		}
	}
	for i := range ref.NumSchemas() {
		if !slices.Equal(extBits[i], ref.Bits(i)) {
			t.Fatalf("schema %d: canonicalized extended bits differ from rebuilt bits\next: %v\nref: %v",
				i, extBits[i], ref.Bits(i))
		}
	}
	for i := 0; i < ref.NumSchemas(); i++ {
		for j := i + 1; j < ref.NumSchemas(); j++ {
			if got, want := ext.Similarity(i, j), ref.Similarity(i, j); got != want {
				t.Fatalf("similarity(%d,%d): ext %v, ref %v", i, j, got, want)
			}
		}
	}
}

// TestExtendEquivalence is the tentpole's contract: a space grown one schema
// at a time by Extend is indistinguishable from a from-scratch BuildLite
// over the extended set — same vocabulary, bit-identical vectors (after
// putting the appended vocabulary entries in canonical sorted order), and
// exactly equal similarities — across every similarity function, including
// the full-scan fallback and repeated (overlay-of-overlay) extension.
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
		// Deliberately asymmetric user similarities: the matcher must verify
		// both ordered directions of every pair (see extend_asym_test.go for
		// the focused match-list checks).
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
			checkExtendEquivalence(t, sp, BuildLite(corpus, tc.cfg))
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
	checkExtendEquivalence(t, ext, ref)

	for _, q := range [][]string{
		{"title", "author"},
		{"fare", "airline", "departure"},
		{"room", "rate", "guests", "check"},
		{"mileage"},
	} {
		ev, rv := ext.QueryVector(q), ref.QueryVector(q)
		var eterms, rterms []string
		for _, j := range ev.Indices() {
			eterms = append(eterms, ext.Vocab[j])
		}
		for _, j := range rv.Indices() {
			rterms = append(rterms, ref.Vocab[j])
		}
		sort.Strings(eterms)
		sort.Strings(rterms)
		if fmt.Sprint(eterms) != fmt.Sprint(rterms) {
			t.Fatalf("query %v: extended space embeds %v, rebuilt %v", q, eterms, rterms)
		}
	}
}

// TestExtendCopyOnWrite pins the isolation contract: extending a space must
// leave the original untouched — same dimensionality, vocabulary length,
// bit lists, and similarities as before the call.
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
	if len(fresh) == 0 {
		t.Fatal("the newcomer brings no new spelling: the lexicon's copy-on-write is not exercised")
	}

	ext, _ := sp.Extend(corpus[19])
	if ext.Dim() < dim {
		t.Fatalf("extended dim %d below original %d", ext.Dim(), dim)
	}
	if sp.Dim() != dim || len(sp.Vocab) != dim || sp.NumSchemas() != 19 {
		t.Fatal("Extend mutated the original space's shape")
	}
	for _, a := range fresh {
		if _, _, ok := sp.Lexicon().Lookup(a); ok {
			t.Fatalf("Extend wrote the newcomer's spelling %q into the original lexicon", a)
		}
		if _, _, ok := ext.Lexicon().Lookup(a); !ok {
			t.Fatalf("extended lexicon lacks the newcomer's spelling %q", a)
		}
	}
	checkLexicon(t, sp)
	for i, b := range bits {
		if !slices.Equal(sp.Bits(i), b) {
			t.Fatalf("Extend mutated original bit list %d", i)
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

// TestExtendNoNewTerms covers the fast path: a newcomer whose terms are all
// already in the vocabulary shares every existing bit list and the matcher.
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
	checkExtendEquivalence(t, ext, BuildLite(append(set[:2:2], newcomer), DefaultConfig()))
}
