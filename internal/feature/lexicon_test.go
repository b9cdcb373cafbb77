package feature

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"schemaflow/internal/schema"
	"schemaflow/internal/terms"
)

// checkLexicon holds sp's spelling table to its definition: every spelling it
// holds has as its terms the ids of terms.ExtractList([]string{spelling}, …),
// in that order, and Match(a, b) is L_a == L_b or t_sim(L_a, L_b) ≥ τ_t_sim,
// the similarity spelled out; canonical ids are held to theirs by
// checkCanonical. That it holds every spelling of the embedded schemas is
// checkExtendEquivalence's to compare against a BuildLite over them.
func checkLexicon(t *testing.T, sp *Space) {
	t.Helper()
	lx, cfg := sp.Lexicon(), sp.Config()
	var spellings []string
	for a := range lx.spellings {
		spellings = append(spellings, a)
	}
	checkCanonical(t, lx, spellings)
	for _, a := range spellings {
		ids, _, _ := lx.Lookup(a)
		var got []string
		for _, j := range ids {
			got = append(got, lx.Term(j))
		}
		if want := terms.ExtractList([]string{a}, cfg.TermOpts); !slices.Equal(got, want) {
			t.Fatalf("spelling %q: terms %q, want %q", a, got, want)
		}
	}
	for a, x := range sp.Vocab {
		for b, y := range sp.Vocab {
			if got, want := lx.Match(int32(a), int32(b)), x == y || cfg.Sim.Sim(x, y) >= cfg.Tau; got != want {
				t.Fatalf("Match(%q, %q) = %v, want %v", x, y, got, want)
			}
		}
	}
}

// TestNewLexiconIsBuildLites: a lexicon built without a space is the one
// BuildLite keeps, term for term and match for match.
func TestNewLexiconIsBuildLites(t *testing.T) {
	set := extendCorpus(30, 5)
	sp, lx := BuildLite(set, DefaultConfig()), NewLexicon(set, DefaultConfig())
	checkLexicon(t, sp)
	if !slices.Equal(lx.vocab, sp.Vocab) || len(lx.ids) != len(sp.lex.ids) {
		t.Fatalf("NewLexicon: %d terms, %d spellings; BuildLite: %d, %d", len(lx.vocab), len(lx.ids), len(sp.Vocab), len(sp.lex.ids))
	}
	for spelling, k := range sp.lex.spellings {
		if got, _, _ := lx.Lookup(spelling); !slices.Equal(got, sp.lex.ids[k]) {
			t.Fatalf("spelling %q: NewLexicon %v, BuildLite %v", spelling, got, sp.lex.ids[k])
		}
	}
	for j := range sp.Vocab {
		if !slices.Equal(lx.matches[j], sp.lex.matches[j]) {
			t.Fatalf("term %q: match lists differ", sp.Vocab[j])
		}
	}
}

// checkCanonical holds lx's canonical ids to their definition over the given
// spellings: a spelling's form is itself lower-cased with its whitespace
// squeezed, the forms are numbered 0…NumCanonical()-1 in strictly ascending
// order, and every form is some spelling's. It returns each spelling's id.
func checkCanonical(t *testing.T, lx *Lexicon, spellings []string) map[string]int32 {
	t.Helper()
	ids := make(map[string]int32)
	forms := make(map[string]bool)
	for _, a := range spellings {
		_, c, ok := lx.Lookup(a)
		if !ok {
			t.Fatalf("spelling %q missing from the lexicon", a)
		}
		want := strings.Join(strings.Fields(strings.ToLower(a)), " ")
		if got := lx.Canonical(c); got != want {
			t.Fatalf("spelling %q: canonical form %q, want %q", a, got, want)
		}
		ids[a], forms[want] = c, true
	}
	if lx.NumCanonical() != len(forms) {
		t.Fatalf("%d canonical ids for %d forms", lx.NumCanonical(), len(forms))
	}
	for c := int32(1); c < int32(lx.NumCanonical()); c++ {
		if lx.Canonical(c-1) >= lx.Canonical(c) {
			t.Fatalf("canonical ids %d, %d: %q, %q do not ascend", c-1, c, lx.Canonical(c-1), lx.Canonical(c))
		}
	}
	return ids
}

// TestLexiconCanonicalIDsAscend: canonical ids ascend with the forms after
// BuildLite, after an Extend whose new form sorts before every other (every
// id moves up, the original lexicon keeps its own), and after an Extend that
// only respells forms already present (no id moves).
func TestLexiconCanonicalIDsAscend(t *testing.T) {
	base := schema.Set{
		{Name: "people", Attributes: []string{"first name", "Last  Name", "email", "firstname"}},
		{Name: "contacts", Attributes: []string{"Email", "office phone", "FIRST NAME", "name"}},
	}
	var spellings []string
	for _, s := range base {
		spellings = append(spellings, s.Attributes...)
	}
	sp := BuildLite(base, DefaultConfig())
	before := checkCanonical(t, sp.Lexicon(), spellings)

	novel := schema.Schema{Name: "fares", Attributes: []string{"Aardvark Fare", "email"}}
	ext, _ := sp.Extend(novel)
	after := checkCanonical(t, ext.Lexicon(), append(slices.Clone(spellings), novel.Attributes...))
	if _, c, _ := ext.Lexicon().Lookup("Aardvark Fare"); c != 0 {
		t.Fatalf("\"aardvark fare\" has id %d, want 0", c)
	}
	for _, a := range spellings {
		if after[a] != before[a]+1 {
			t.Fatalf("spelling %q: id %d after a form sorting first arrived, want %d", a, after[a], before[a]+1)
		}
	}
	if got := checkCanonical(t, sp.Lexicon(), spellings); !maps.Equal(got, before) {
		t.Fatalf("Extend renumbered the original lexicon: %v, was %v", got, before)
	}

	respelled := schema.Schema{Name: "respelled", Attributes: []string{"FirstName", "first  name", "EMAIL"}}
	ext2, _ := ext.Extend(respelled)
	all := append(append(slices.Clone(spellings), novel.Attributes...), respelled.Attributes...)
	got := checkCanonical(t, ext2.Lexicon(), all)
	if ext2.Lexicon().NumCanonical() != ext.Lexicon().NumCanonical() {
		t.Fatalf("respellings added forms: %d, was %d", ext2.Lexicon().NumCanonical(), ext.Lexicon().NumCanonical())
	}
	for a, c := range after {
		if got[a] != c {
			t.Fatalf("spelling %q: id %d after respellings arrived, want %d", a, got[a], c)
		}
	}
}
