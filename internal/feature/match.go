package feature

import (
	"math"
	"sync"
	"unicode/utf8"

	"schemaflow/internal/par"
	"schemaflow/internal/strsim"
)

// matchIndex answers "which vocabulary terms match this term at τ_t_sim?".
//
// The naive answer compares the term against every vocabulary entry, which
// makes feature construction O(dim L · total terms) similarity calls. For
// the default LCS similarity the question has a lossless filter-and-verify
// answer (gramStrategy). Stem and exact similarities get their own
// exact-bucket indexes; any other similarity function falls back to a full
// scan.
type matchIndex struct {
	vocab []string
	threshold
	minLen int

	// vocabMatches[j] is the match list of vocabulary term j, never empty (a
	// term matches itself). Every list is filled before the index is handed
	// out, so readers share it without synchronisation.
	vocabMatches [][]int32

	strategy matchStrategy
}

type matchStrategy interface {
	// matches returns, in the strategy's own stable order, exactly the
	// indices j of its term list with term == terms[j] or
	// sim(term, terms[j]) ≥ τ.
	matches(term string) []int32
}

func newMatchIndex(vocab []string, sim strsim.TermSim, tau float64, minLen int) *matchIndex {
	m := &matchIndex{
		vocab:        vocab,
		threshold:    threshold{sim: sim, tau: tau},
		minLen:       minLen,
		vocabMatches: make([][]int32, len(vocab)),
	}
	m.strategy = m.newStrategy(vocab)
	// One lookup per vocabulary term, each writing its own slot: the
	// strategies serve concurrent lookups (queries already rely on it).
	par.Each(len(vocab), func(j int) {
		m.vocabMatches[j] = m.matchesOf(vocab[j])
	})
	return m
}

// newStrategy builds the lookup appropriate for the similarity function
// over the given term list.
func (m *matchIndex) newStrategy(vocab []string) matchStrategy {
	if m.tau <= 0 {
		// At τ = 0 every pair of terms matches (similarities live in [0,1]),
		// so any bucketed filter would be unsound — only a full scan returns
		// every match.
		return fullScan{vocab, m.threshold}
	}
	switch m.sim.(type) {
	case strsim.LCSSim:
		return newGramStrategy(vocab, m.threshold, m.minLen)
	case strsim.StemSim:
		return newStemStrategy(vocab, m.threshold)
	case strsim.ExactSim:
		return newExactStrategy(vocab)
	default:
		return fullScan{vocab, m.threshold}
	}
}

// threshold is the match predicate: a similarity and its τ. Strategies hold
// it by value, so an index keeps no earlier matchIndex alive.
type threshold struct {
	sim strsim.TermSim
	tau float64
}

// similar reports sim(a, b) ≥ τ. The LCS similarity decides it by threshold
// (strsim.LCSSim.AtLeast) rather than by computing the similarity.
func (t threshold) similar(a, b string) bool {
	if lcs, ok := t.sim.(strsim.LCSSim); ok {
		return lcs.AtLeast(a, b, t.tau)
	}
	return t.sim.Sim(a, b) >= t.tau
}

// symmetricSim reports whether the similarity function is known to satisfy
// sim(a,b) == sim(b,a), letting crossMatches read one lookup as both
// directions.
// Unknown (user-supplied) similarities are conservatively treated as
// asymmetric and verified in both directions.
func symmetricSim(s strsim.TermSim) bool {
	switch s.(type) {
	case strsim.LCSSim, strsim.StemSim, strsim.ExactSim, strsim.LCSeqSim:
		return true
	}
	return false
}

// crossMatches probes the index with terms outside its vocabulary: fwd[i]
// lists the indices j with sim(newTerms[i], vocab[j]) ≥ τ and rev[i] those
// with sim(vocab[j], newTerms[i]) ≥ τ. For a known-symmetric similarity the
// two are the same lists; only a full scan serves the reverse direction of
// any other.
func (m *matchIndex) crossMatches(newTerms []string) (fwd, rev [][]int32) {
	fwd = make([][]int32, len(newTerms))
	rev = fwd
	sym := symmetricSim(m.sim)
	if !sym {
		rev = make([][]int32, len(newTerms))
	}
	for i, u := range newTerms {
		fwd[i] = m.strategy.matches(u)
		if sym {
			continue
		}
		for j, v := range m.vocab {
			if m.similar(v, u) {
				rev[i] = append(rev[i], int32(j))
			}
		}
	}
	return fwd, rev
}

// matchesOf returns the vocabulary indices whose terms match the given term
// at τ. The term need not be in the vocabulary.
func (m *matchIndex) matchesOf(term string) []int32 {
	return m.strategy.matches(term)
}

// matchesOfVocab is matchesOf for vocabulary term j, read from the lists
// computed when the index was built.
func (m *matchIndex) matchesOfVocab(j int) []int32 { return m.vocabMatches[j] }

// gramStrategy is the LCS similarity's lossless filter-and-verify lookup
// over byte g-grams; DESIGN §5a has the soundness arguments. Sim(p,v) ≥ τ
// iff p and v share a substring of need = LCSSim.Need(|p|+|v|, τ) runes, so
// v can match a probe p only if min(|p|,|v|) ≥ need (length filter) and v
// holds at least as many of p's distinct grams as the poorest need-byte
// window of p does (count filter: the shared substring starts with one such
// window). What survives both is decided by LCSSim.Shares at the same need.
type gramStrategy struct {
	threshold
	gram   int
	terms  []string
	runes  []int32 // rune length of each term
	maxLen int     // longest term, in runes
	index  map[string][]int32

	// scratch holds *gramScratch values sized to this term list; the space
	// is read concurrently, so each lookup takes its own.
	scratch sync.Pool
}

// gramScratch is one lookup's working memory, reused across lookups.
type gramScratch struct {
	// cells[j] = epoch<<8 | saturating count of the probe's grams term j
	// holds; a cell below epoch<<8 is stale, so nothing is cleared between
	// lookups.
	cells   []uint32
	epoch   uint32
	touched []int32 // terms in first-seen order
	prev    []int32 // gramPrev of the probe
	plans   []lenPlan
}

// lenPlan is what a lookup requires of vocabulary terms of one rune length.
type lenPlan struct {
	need  int32  // common-substring runes; 0 = not yet planned
	grams uint32 // shared grams; above any count when need exceeds a length
}

const maxGramCount = 0xff

func newGramStrategy(vocab []string, th threshold, minLen int) *gramStrategy {
	// Any pair of terms of length >= minLen matching at tau shares a common
	// substring of length >= ceil(tau*minLen), since (len(a)+len(b))/2 >=
	// minLen; that (capped at 3) as the gram size makes every pair's need at
	// least one gram wide. A literal MinLength of 0 (terms.Options' negative
	// escape hatch) admits single-letter terms, so the argument must assume
	// length 1, not the default 3.
	g := min(max(int(math.Ceil(th.tau*float64(max(minLen, 1)))), 1), 3)
	s := &gramStrategy{threshold: th, gram: g, terms: vocab,
		runes: make([]int32, len(vocab)), index: make(map[string][]int32)}
	var prev []int32
	for j, t := range vocab {
		s.runes[j] = int32(utf8.RuneCountInString(t))
		s.maxLen = max(s.maxLen, int(s.runes[j]))
		prev = gramPrev(prev, t, g, len(t))
		for i, p := range prev {
			if p < 0 {
				s.index[t[i:i+g]] = append(s.index[t[i:i+g]], int32(j))
			}
		}
	}
	s.scratch.New = func() any {
		return &gramScratch{cells: make([]uint32, len(vocab)), touched: make([]int32, len(vocab)), plans: make([]lenPlan, s.maxLen+1)}
	}
	return s
}

// gramPrev fills prev[i], for each byte window of width g in t, with the
// start of the nearest earlier equal window at most reach bytes back, or -1:
// the -1 positions are t's distinct grams, and a gram is new to a window iff
// its prev lies before the window. A reach shorter than t keeps a very long
// probe linear; a gram it misses is merged and tallied twice, consistently.
func gramPrev(prev []int32, t string, g, reach int) []int32 {
	prev = prev[:0]
	for i := 0; i+g <= len(t); i++ {
		p := int32(-1)
		for k := i - 1; k >= 0 && k >= i-reach; k-- {
			if t[k:k+g] == t[i:i+g] {
				p = int32(k)
				break
			}
		}
		prev = append(prev, p)
	}
	return prev
}

func (s *gramStrategy) matches(term string) []int32 {
	if len(term) < s.gram {
		// Shorter than a gram: the filter argument does not apply, and such
		// terms are filtered out upstream anyway; scan everything.
		return fullScan{s.terms, s.threshold}.matches(term)
	}
	sc := s.scratch.Get().(*gramScratch)
	defer s.scratch.Put(sc)
	if sc.epoch++; sc.epoch == 1<<24 {
		clear(sc.cells)
		sc.epoch = 1
	}
	base := sc.epoch << 8

	// Merge the postings of the probe's distinct grams.
	sc.prev = gramPrev(sc.prev, term, s.gram, s.maxLen)
	n, merged := 0, uint32(0)
	for i, p := range sc.prev {
		if p >= 0 {
			continue
		}
		merged = min(merged+1, maxGramCount)
		for _, j := range s.index[term[i:i+s.gram]] {
			switch c := sc.cells[j]; {
			case c < base:
				sc.cells[j] = base | 1
				sc.touched[n] = j
				n++
			case c&maxGramCount != maxGramCount:
				sc.cells[j] = c + 1
			}
		}
	}

	clear(sc.plans)
	probeRunes := utf8.RuneCountInString(term)
	out := make([]int32, 0, 4)
	verified := 0
	for _, j := range sc.touched[:n] {
		count, v := sc.cells[j]&maxGramCount, s.terms[j]
		if count == merged && term == v { // only a term holding every merged gram can be the probe itself
			verified++
			out = append(out, j)
			continue
		}
		plan := &sc.plans[s.runes[j]]
		if plan.need == 0 {
			*plan = s.plan(sc.prev, probeRunes, int(s.runes[j]))
		}
		if count < plan.grams {
			continue
		}
		verified++
		if (strsim.LCSSim{}).Shares(term, v, int(plan.need)) {
			out = append(out, j)
		}
	}
	mMatchVerifications.Add(uint64(verified))
	mMatchHits.Add(uint64(len(out)))
	return out
}

// plan computes what vocabulary terms of termRunes runes must satisfy to
// match a probe of probeRunes runes whose grams prev describes.
func (s *gramStrategy) plan(prev []int32, probeRunes, termRunes int) lenPlan {
	need := (strsim.LCSSim{}).Need(probeRunes+termRunes, s.tau)
	if need > probeRunes || need > termRunes {
		return lenPlan{need: int32(need), grams: maxGramCount + 1}
	}
	// The poorest window: fewest distinct grams among the width gram
	// positions of any need-byte window of the probe. (A need under one gram
	// takes a term shorter than MinLength; it gets the floor of one gram.)
	width := max(need-s.gram+1, 0)
	poorest := width
	for start := 0; start+width <= len(prev); start++ {
		distinct := 0
		for _, p := range prev[start : start+width] {
			if int(p) < start {
				distinct++
			}
		}
		poorest = min(poorest, distinct)
	}
	return lenPlan{need: int32(need), grams: uint32(min(max(poorest, 1), maxGramCount))}
}

// stemStrategy buckets vocabulary terms by Porter stem.
type stemStrategy struct {
	terms []string
	threshold
	byStem map[string][]int32
}

func newStemStrategy(vocab []string, th threshold) *stemStrategy {
	s := &stemStrategy{terms: vocab, threshold: th, byStem: make(map[string][]int32, len(vocab))}
	for j, t := range vocab {
		st := strsim.Stem(t)
		s.byStem[st] = append(s.byStem[st], int32(j))
	}
	return s
}

func (s *stemStrategy) matches(term string) []int32 {
	var out []int32
	for _, j := range s.byStem[strsim.Stem(term)] {
		if v := s.terms[j]; term == v || s.similar(term, v) {
			out = append(out, j)
		}
	}
	return out
}

// exactStrategy is a plain map lookup.
type exactStrategy struct {
	byTerm map[string]int32
}

func newExactStrategy(vocab []string) *exactStrategy {
	s := &exactStrategy{byTerm: make(map[string]int32, len(vocab))}
	for j, t := range vocab {
		s.byTerm[t] = int32(j)
	}
	return s
}

func (s *exactStrategy) matches(term string) []int32 {
	if j, ok := s.byTerm[term]; ok {
		return []int32{j}
	}
	return nil
}

// fullScan compares against every term.
type fullScan struct {
	terms []string
	threshold
}

func (f fullScan) matches(term string) []int32 {
	var out []int32
	for j, v := range f.terms {
		if term == v || f.similar(term, v) {
			out = append(out, int32(j))
		}
	}
	return out
}
