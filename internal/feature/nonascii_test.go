package feature

import (
	"slices"
	"testing"

	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
)

// unrecognizedLCS wraps the real LCS similarity in a type the matcher does
// not recognize, forcing the sound-by-construction full-scan strategy. Used
// as the reference against the g-gram prefilter.
type unrecognizedLCS struct{ strsim.LCSSim }

func (unrecognizedLCS) Name() string { return "lcs-fullscan" }

// nonASCIISet mixes canonical-ASCII attribute names with realistic
// multi-byte ones (French accents), including near-duplicates that must
// match at τ = 0.8 only if LCS credit is measured in runes.
func nonASCIISet() schema.Set {
	return schema.Set{
		{Name: "fr1", Attributes: []string{"prix_unité", "quantité", "désignation", "référence"}},
		{Name: "fr2", Attributes: []string{"prix unitaire", "quantités", "reference produit"}},
		{Name: "en1", Attributes: []string{"unit price", "quantity", "designation", "reference"}},
		{Name: "fr3", Attributes: []string{"prix", "unité", "côté", "numéro"}},
		{Name: "en2", Attributes: []string{"price", "unite", "number", "side"}},
	}
}

// TestNonASCIITermsSurviveExtraction pins what terms.Extract actually does
// with multi-byte attribute names: Unicode letters are kept (the delimiter
// set is non-letter/non-digit runes), and the minimum length is measured in
// runes — so "unité" is a real five-rune term, not six bytes of ASCII.
func TestNonASCIITermsSurviveExtraction(t *testing.T) {
	sp := BuildLite(nonASCIISet(), DefaultConfig())
	for _, want := range []string{"unité", "quantité", "référence", "prix", "unite", "price"} {
		if _, ok := sp.VocabIndex[want]; !ok {
			t.Errorf("expected vocabulary term %q, not found (vocab %v)", want, sp.Vocab)
		}
	}
}

// TestGramPrefilterSoundOnNonASCII is the invariant the byte-windowed gram
// index must uphold: for every vocabulary term, candidate lookup plus
// verification produces exactly the same match lists, vectors, and query
// embeddings as a full scan — including terms whose byte g-grams split
// runes mid-encoding.
func TestGramPrefilterSoundOnNonASCII(t *testing.T) {
	set := nonASCIISet()
	gram := BuildLite(set, DefaultConfig())
	full := BuildLite(set, func() Config {
		c := DefaultConfig()
		c.Sim = unrecognizedLCS{}
		return c
	}())

	if _, ok := gram.matcher.strategy.(*gramStrategy); !ok {
		t.Fatalf("default config did not select the gram strategy (got %T)", gram.matcher.strategy)
	}
	if _, ok := full.matcher.strategy.(fullScan); !ok {
		t.Fatalf("wrapped sim did not select full scan (got %T)", full.matcher.strategy)
	}
	checkSameSpace(t, gram, full)
	checkMatchListEquivalence(t, gram, full)
}

// TestNonASCIIQueryEmbedding feeds multi-byte keywords through extraction →
// feature build → query embedding and checks (a) rune-measured LCS matches
// land ("unité" ↔ "unite" at exactly τ = 0.8), and (b) the gram-indexed
// space embeds queries identically to the full-scan space.
func TestNonASCIIQueryEmbedding(t *testing.T) {
	set := nonASCIISet()
	gram := BuildLite(set, DefaultConfig())
	full := BuildLite(set, func() Config {
		c := DefaultConfig()
		c.Sim = unrecognizedLCS{}
		return c
	}())

	queries := [][]string{
		{"prix_unité"},
		{"unite", "price"},
		{"quantité", "référence"},
		{"numéro", "côté"},
		{"designation produit"},
	}
	for _, q := range queries {
		if gv, fv := gram.QueryVector(q).IndicesAppend(nil), full.QueryVector(q).IndicesAppend(nil); !slices.Equal(gv, fv) {
			t.Errorf("query %v: gram-indexed embedding %v, full-scan %v", q, gv, fv)
		}
	}

	// The rune-semantics match the whole test exists for: "unité" and
	// "unite" sit at exactly τ = 0.8, so the query bit for one must light
	// up the other's vocabulary entry.
	v := gram.QueryVector([]string{"unité"})
	if j, ok := gram.VocabIndex["unite"]; !ok || !v.Get(j) {
		t.Errorf("query 'unité' did not match vocabulary term 'unite' (rune LCS = 0.8)")
	}
}

// TestExtendWithNonASCIINewcomer extends a space twice with multi-byte
// terms: arriving schemas with accented attributes must give the space a
// from-scratch rebuild over the grown set gives.
func TestExtendWithNonASCIINewcomer(t *testing.T) {
	set := nonASCIISet()
	sp := BuildLite(set[:4], DefaultConfig())
	ext, idx := sp.Extend(set[4])
	if idx != 4 {
		t.Fatalf("Extend index %d, want 4", idx)
	}
	newcomer := schema.Schema{Name: "fr4", Attributes: []string{"société", "prix_unité", "téléphone"}}
	ext, _ = ext.Extend(newcomer)
	ref := BuildLite(append(set[:5:5], newcomer), DefaultConfig())
	checkSameSpace(t, ext, ref)
	checkMatchListEquivalence(t, ext, ref)
}
