package feature

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"schemaflow/internal/bitvec"
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

// sortedPermutation returns ext's vectors re-expressed over ext's vocabulary
// sorted ascending — the canonical order BuildLite uses — so the two spaces
// can be compared bit for bit.
func canonicalVectors(sp *Space) (vocab []string, vecs []*bitvec.Vector) {
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
	vecs = make([]*bitvec.Vector, len(sp.Vectors))
	for i, v := range sp.Vectors {
		nv := bitvec.New(len(vocab))
		for _, j := range v.Indices() {
			nv.Set(perm[j])
		}
		vecs[i] = nv
	}
	return vocab, vecs
}

// checkExtendEquivalence asserts that ext (built by chained Extend calls) is
// equivalent to ref (a from-scratch BuildLite over the same schema set):
// identical vocabulary set, bit-identical vectors once ext's appended
// vocabulary order is put in canonical (sorted) order, exactly equal
// pairwise similarities, and spelling tables that both meet their definition.
func checkExtendEquivalence(t *testing.T, ext, ref *Space) {
	t.Helper()
	checkLexicon(t, ext)
	checkLexicon(t, ref)
	if ext.NumSchemas() != ref.NumSchemas() {
		t.Fatalf("schema count: ext %d, ref %d", ext.NumSchemas(), ref.NumSchemas())
	}
	if ext.Dim() != ref.Dim() {
		t.Fatalf("dimensionality: ext %d, ref %d", ext.Dim(), ref.Dim())
	}
	extVocab, extVecs := canonicalVectors(ext)
	for j, term := range ref.Vocab {
		if extVocab[j] != term {
			t.Fatalf("vocab[%d]: ext %q, ref %q", j, extVocab[j], term)
		}
	}
	for i := range ref.Vectors {
		if !extVecs[i].Equal(ref.Vectors[i]) {
			t.Fatalf("schema %d: canonicalized extended vector differs from rebuilt vector\next: %v\nref: %v",
				i, extVecs[i], ref.Vectors[i])
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
		{"term-frequency-fallback", func() Config { c := DefaultConfig(); c.Mode = TermFrequency; return c }()},
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
// vectors, and similarities as before the call.
func TestExtendCopyOnWrite(t *testing.T) {
	corpus := extendCorpus(20, 3)
	sp := BuildLite(corpus[:19], DefaultConfig())
	dim := sp.Dim()
	vecs := make([]*bitvec.Vector, len(sp.Vectors))
	for i, v := range sp.Vectors {
		vecs[i] = v.Clone()
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
	for i, v := range sp.Vectors {
		if !v.Equal(vecs[i]) {
			t.Fatalf("Extend mutated original vector %d", i)
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
// already in the vocabulary shares every existing vector and the matcher.
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

// TestSortedIDsAreBuildLitesIndices: once Extend has appended terms out of
// order, SortedIDs numbers each term as a space built afresh over the same
// schemas indexes it; a space built afresh needs no renumbering.
func TestSortedIDsAreBuildLitesIndices(t *testing.T) {
	corpus := extendCorpus(40, 7)
	if ids := BuildLite(corpus, DefaultConfig()).SortedIDs(); ids != nil {
		t.Fatalf("a fresh space renumbers its terms: %v", ids[:min(len(ids), 5)])
	}
	arrivals := []schema.Schema{
		{Name: "new1", Attributes: []string{"aardvark count", "hangar"}},
		{Name: "new2", Attributes: []string{"mango yield", "zeppelin"}},
	}
	fresh := BuildLite(append(slices.Clip(corpus), arrivals...), DefaultConfig())
	sp := BuildLite(corpus, DefaultConfig())
	for _, s := range arrivals {
		sp, _ = sp.Extend(s)
	}
	ids := sp.SortedIDs()
	if ids == nil {
		t.Fatal("premise broken: Extend appended no term out of order")
	}
	if len(sp.Vocab) != len(fresh.Vocab) {
		t.Fatalf("extended vocabulary has %d terms, fresh %d", len(sp.Vocab), len(fresh.Vocab))
	}
	for j, term := range sp.Vocab {
		if got := fresh.Vocab[ids[j]]; got != term {
			t.Fatalf("term %d %q renumbered %d, which a fresh space gives %q", j, term, ids[j], got)
		}
	}
}
