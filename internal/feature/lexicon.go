package feature

import (
	"slices"
	"sort"
	"strings"

	"schemaflow/internal/par"
	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// Lexicon is a space's spelling table: for every attribute spelling of the
// schemas the space embeds, the vocabulary ids of its distinct terms, beside
// the vocabulary's match lists at τ_t_sim. Mediation compares attribute names
// through it, so its t_sim is the features' by construction (Section 4.4:
// attribute similarity "based on the same similarity function t_sim"). A
// Lexicon is immutable and safe for concurrent use.
type Lexicon struct {
	vocab   []string
	sim     strsim.TermSim
	matches [][]int32 // the match index's vocabMatches: b is on matches[a] iff t_sim(L_a, L_b) ≥ τ
	// spellings maps a spelling to its row of ids; ids[k] lists spelling k's
	// distinct term ids in ascending order of the terms they stand for — the
	// order of terms.ExtractList([]string{spelling}, …).
	spellings map[string]int32
	ids       [][]int32
	// canon[k] is the id of spelling k's canonical form (canonicalName), and
	// canonNames lists the canonical forms by id, ascending: two ids compare
	// as the forms they stand for do.
	canon      []int32
	canonNames []string
}

// NewLexicon builds the spelling table of set alone, with the vocabulary and
// match lists BuildLite(set, cfg) would build but no feature vectors: the
// lexicon of a mediation that runs without a space.
func NewLexicon(set schema.Set, cfg Config) *Lexicon {
	sp := &Space{cfg: cfg.normalized()}
	sp.vocabulary(set)
	return sp.lex
}

// Lexicon returns the space's spelling table.
func (sp *Space) Lexicon() *Lexicon { return sp.lex }

// Lookup returns what the table holds about a spelling: the ids of its
// distinct terms, ordered as terms.ExtractList orders them, the id of its
// canonical form (lower-cased, whitespace squeezed; see Canonical), and
// whether the table holds the spelling. The slice is shared and must not be
// written.
func (lx *Lexicon) Lookup(spelling string) (ids []int32, canon int32, ok bool) {
	k, ok := lx.spellings[spelling]
	if !ok {
		return nil, 0, false
	}
	return lx.ids[k], lx.canon[k], true
}

// Canonical returns the canonical form with id c. Canonical ids run from 0
// to NumCanonical()-1 in ascending order of the forms, so sorting by id
// sorts by form.
func (lx *Lexicon) Canonical(c int32) string { return lx.canonNames[c] }

// NumCanonical returns the number of distinct canonical forms.
func (lx *Lexicon) NumCanonical() int { return len(lx.canonNames) }

// canonicalName lower-cases and squeezes whitespace in an attribute name:
// the form under which mediation treats two spellings as one name.
func canonicalName(name string) string {
	return strings.Join(strings.Fields(strings.ToLower(name)), " ")
}

// canonicalIDs numbers the distinct canonical forms in forms in ascending
// order and returns them with the id of every entry of forms.
func canonicalIDs(forms []string) ([]string, []int32) {
	names := slices.Clone(forms)
	slices.Sort(names)
	names = slices.Compact(names)
	ids := make([]int32, len(forms))
	for k, c := range forms {
		id, _ := slices.BinarySearch(names, c)
		ids[k] = int32(id)
	}
	return names, ids
}

// Term returns the vocabulary term with id j.
func (lx *Lexicon) Term(j int32) string { return lx.vocab[j] }

// Match reports t_sim(Term(a), Term(b)) ≥ τ_t_sim: whether b is on a's
// match list. A term always matches itself.
func (lx *Lexicon) Match(a, b int32) bool {
	return a == b || slices.Contains(lx.matches[a], b)
}

// TermSim returns t_sim, the term similarity the match lists were built with.
func (lx *Lexicon) TermSim() strsim.TermSim { return lx.sim }

// vocabulary splits every distinct attribute spelling of set into terms once,
// in parallel, and builds from them the vocabulary L (sorted), VocabIndex, the
// match index and the spelling table.
func (sp *Space) vocabulary(set schema.Set) {
	spellings := make(map[string]int32)
	var distinct []string // in schema order
	for _, s := range set {
		for _, a := range s.Attributes {
			if _, ok := spellings[a]; !ok {
				spellings[a] = int32(len(distinct))
				distinct = append(distinct, a)
			}
		}
	}
	lists := make([][]string, len(distinct))
	canons := make([]string, len(distinct))
	par.Each(len(distinct), func(k int) {
		lists[k] = terms.FromAttribute(distinct[k], sp.cfg.TermOpts)
		sort.Strings(lists[k])
		canons[k] = canonicalName(distinct[k])
	})

	vocabSet := make(map[string]bool)
	for _, l := range lists {
		for _, t := range l {
			vocabSet[t] = true
		}
	}
	sp.Vocab = make([]string, 0, len(vocabSet))
	for t := range vocabSet {
		sp.Vocab = append(sp.Vocab, t)
	}
	sort.Strings(sp.Vocab)
	sp.VocabIndex = make(map[string]int, len(sp.Vocab))
	for j, t := range sp.Vocab {
		sp.VocabIndex[t] = j
	}
	sp.matcher = newMatchIndex(sp.Vocab, sp.cfg.Sim, sp.cfg.Tau, sp.cfg.TermOpts.MinLength)

	ids := make([][]int32, len(lists))
	par.Each(len(lists), func(k int) {
		ids[k] = termIDs(lists[k], sp.VocabIndex)
	})
	canonNames, canon := canonicalIDs(canons)
	sp.lex = &Lexicon{vocab: sp.Vocab, sim: sp.cfg.Sim, matches: sp.matcher.vocabMatches, spellings: spellings, ids: ids, canon: canon, canonNames: canonNames}
}

// termIDs maps a sorted term list to the ids of its distinct terms.
func termIDs(sorted []string, index map[string]int) []int32 {
	ids := make([]int32, 0, len(sorted))
	for i, t := range sorted {
		if i == 0 || t != sorted[i-1] {
			ids = append(ids, int32(index[t]))
		}
	}
	return ids
}
