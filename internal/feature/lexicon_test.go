package feature

import (
	"slices"
	"testing"

	"schemaflow/internal/terms"
)

// checkLexicon holds sp's spelling table to its definition: every attribute
// spelling of the embedded schemas has as its terms the ids of
// terms.ExtractList([]string{spelling}, …), in that order, and Match(a, b)
// is L_a == L_b or t_sim(L_a, L_b) ≥ τ_t_sim, the similarity spelled out.
func checkLexicon(t *testing.T, sp *Space) {
	t.Helper()
	lx, cfg := sp.Lexicon(), sp.Config()
	for _, s := range sp.set {
		for _, a := range s.Attributes {
			ids, ok := lx.Terms(a)
			if !ok {
				t.Fatalf("spelling %q missing from the lexicon", a)
			}
			var got []string
			for _, j := range ids {
				got = append(got, lx.Term(j))
			}
			if want := terms.ExtractList([]string{a}, cfg.TermOpts); !slices.Equal(got, want) {
				t.Fatalf("spelling %q: terms %q, want %q", a, got, want)
			}
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
		if got, _ := lx.Terms(spelling); !slices.Equal(got, sp.lex.ids[k]) {
			t.Fatalf("spelling %q: NewLexicon %v, BuildLite %v", spelling, got, sp.lex.ids[k])
		}
	}
	for j := range sp.Vocab {
		if !slices.Equal(lx.matches[j], sp.lex.matches[j]) {
			t.Fatalf("term %q: match lists differ", sp.Vocab[j])
		}
	}
}
