// Package feature implements Algorithm 1 of the thesis: representing every
// schema as a binary feature vector over the global term vocabulary L.
//
// Feature j of schema S_i is 1 iff S_i contains a term whose similarity to
// vocabulary term L_j is at least τ_t_sim under the configured term
// similarity function (LCS-substring similarity with τ = 0.8 by default).
// The same vector space later embeds keyword queries (Chapter 5).
package feature

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"schemaflow/internal/bitvec"
	"schemaflow/internal/par"
	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// Config controls feature-space construction.
type Config struct {
	// TermOpts controls term extraction from attribute names.
	TermOpts terms.Options
	// Sim is the term similarity function t_sim. Nil means strsim.LCSSim.
	// It is called from several goroutines at once, while a space is built
	// as well as while it serves queries.
	Sim strsim.TermSim
	// Tau is the τ_t_sim threshold of Algorithm 1. Zero means 0.8, the
	// value used throughout the thesis; to request a literal threshold of
	// 0 (every pair of terms matches), pass any negative value. The zero
	// value of this struct must select the thesis defaults, so 0 cannot
	// mean "match everything" — the negative escape hatch disambiguates.
	Tau float64
}

// DefaultConfig returns the thesis defaults: LCS similarity at τ = 0.8 with
// default term extraction.
func DefaultConfig() Config {
	return Config{TermOpts: terms.DefaultOptions(), Sim: strsim.LCSSim{}, Tau: 0.8}
}

func (c Config) normalized() Config {
	if c.Sim == nil {
		c.Sim = strsim.LCSSim{}
	}
	if c.Tau == 0 {
		c.Tau = 0.8
	} else if c.Tau < 0 {
		c.Tau = 0
	}
	// Per-field normalization: replacing the whole struct with
	// DefaultOptions() when MinLength was unset used to clobber an explicit
	// StopWords map (the "empty map disables stop-words" contract) and
	// KeepDigits=true.
	c.TermOpts = c.TermOpts.Normalized()
	return c
}

// Space is the constructed vector space: the vocabulary L and one binary
// feature vector per input schema, held as the ascending list of its set bits
// beside the bit→schema postings. It keeps the schema set it was built over,
// which Extend grows. A Space is immutable after BuildLite, so reads are safe
// for concurrent use.
type Space struct {
	cfg Config
	set schema.Set

	// Vocab is L: the sorted list of all distinct canonical terms across
	// all input schemas.
	Vocab []string
	// VocabIndex maps a vocabulary term to its position in Vocab.
	VocabIndex map[string]int

	// TermIDs[i] is T_i, the extracted term set of schema i, as ascending
	// vocabulary ids.
	TermIDs [][]int32

	// termSchemas[j] lists, ascending, the schemas whose term set contains
	// vocabulary term j — the inverted term→schema index Probe uses to find
	// only the schemas an arrival's novel term gives a new bit.
	termSchemas [][]int32
	// bits[i] lists, ascending, the set bits of F^i, the binary feature
	// vector of schema i (its length is the popcount), and postings[b] lists,
	// ascending, the schemas whose vector sets bit b: the bit→schema index
	// Row and Probe walk. A schema's bits are the union of its terms' match
	// lists, so they are exact under an asymmetric term similarity too.
	bits     [][]int32
	postings [][]int32

	matcher *matchIndex
	lex     *Lexicon
}

// BuildContext is BuildLite behind a cancellation check: a Manager shutting
// down before a recluster reaches the features gets ctx.Err() back instead of
// a space.
func BuildContext(ctx context.Context, set schema.Set, cfg Config) (*Space, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return BuildLite(set, cfg), nil
}

// BuildLite extracts terms, constructs the vocabulary and computes every
// schema's feature vector (Algorithm 1). Each distinct attribute spelling is
// split into terms once (a corpus repeats its spellings: 37,901 attributes
// but 3,576 spellings in Large{N:6000}), and the space keeps what the split
// found as its spelling table (Lexicon). Nothing pairwise is precomputed:
// Similarity computes one pair on demand and Row lists the positive
// similarities of one schema off the inverted bit→schema index.
func BuildLite(set schema.Set, cfg Config) *Space {
	return build(set, cfg.normalized())
}

// build is BuildLite with cfg already normalized. Extend calls it with the
// configuration its receiver stored: normalizing twice is not the identity
// for the literal-zero escape hatches (a MinLength or Tau of -1 becomes 0,
// which a second pass reads as the default).
func build(set schema.Set, cfg Config) *Space {
	sp := &Space{cfg: cfg, set: set}

	// Term splitting, the per-term match lists (inside newMatchIndex), the
	// term sets and the bit lists are independent per spelling, term or
	// schema and fan out by index; the vocabulary and the inverted indexes
	// between them are built in order on one goroutine, so the space is the
	// same for any worker count. A schema's term set is the union of its
	// spellings' rows of the spelling table, so nothing past the vocabulary
	// looks a term up by its string.
	sp.vocabulary(set)
	lex := sp.lex
	sp.TermIDs = make([][]int32, len(set))
	par.Each(len(set), func(i int) {
		size := 0
		for _, a := range set[i].Attributes {
			size += len(lex.ids[lex.spellings[a]])
		}
		ids := make([]int32, 0, size)
		for _, a := range set[i].Attributes {
			ids = append(ids, lex.ids[lex.spellings[a]]...)
		}
		slices.Sort(ids)
		sp.TermIDs[i] = slices.Compact(ids)
	})
	sp.termSchemas = transpose(sp.TermIDs, len(sp.Vocab))

	// Feature vectors: F^i = union over t in T_i of the vocabulary terms
	// matching t. Because every schema term is itself in the vocabulary, the
	// per-vocabulary-term match lists are reused across schemas. Each worker
	// marks a schema's matches on one scratch vector and reads them off in
	// ascending order into one slab, at an offset bounded by the lengths of
	// its terms' match lists (two terms can match the same one, so a list
	// may fall short of its room), clearing the marks as it goes.
	room := make([]int, len(set)+1)
	for i, ids := range sp.TermIDs {
		room[i+1] = room[i]
		for _, t := range ids {
			room[i+1] += len(sp.matcher.matchesOfVocab(int(t)))
		}
	}
	slab := make([]int32, room[len(set)])
	sp.bits = make([][]int32, len(set))
	par.EachWith(len(set), func() *bitvec.Vector { return bitvec.New(len(sp.Vocab)) }, func(v *bitvec.Vector, i int) {
		list := sp.unionOfMatches(sp.TermIDs[i], v, slab[room[i]:room[i]:room[i+1]])
		sp.bits[i] = list[:len(list):len(list)]
	})
	sp.postings = transpose(sp.bits, len(sp.Vocab))
	return sp
}

// unionOfMatches appends to dst, ascending, the union of the match lists of
// the vocabulary terms ids, marking them on v, which must be zero and is
// left zero.
func (sp *Space) unionOfMatches(ids []int32, v *bitvec.Vector, dst []int32) []int32 {
	for _, t := range ids {
		for _, j := range sp.matcher.matchesOfVocab(int(t)) {
			v.Set(int(j))
		}
	}
	start := len(dst)
	dst = v.IndicesAppend32(dst)
	for _, j := range dst[start:] {
		v.Clear(int(j))
	}
	return dst
}

// transpose returns the inverse of lists, a relation from schemas to ids in
// [0, dim): element j lists, ascending, the schemas whose list holds j, every
// list carved out of one slab at its exact capacity.
func transpose(lists [][]int32, dim int) [][]int32 {
	sizes := make([]int, dim)
	total := 0
	for _, ids := range lists {
		for _, j := range ids {
			sizes[j]++
		}
		total += len(ids)
	}
	flat := make([]int32, total)
	inv := make([][]int32, dim)
	for j, size := range sizes {
		inv[j], flat = flat[:0:size], flat[size:]
	}
	for i, ids := range lists {
		for _, j := range ids {
			inv[j] = append(inv[j], int32(i))
		}
	}
	return inv
}

// Extend returns the space Algorithm 1 builds over the receiver's schemas
// followed by s, and s's index in it: BuildLite over the grown set, with the
// receiver's configuration. The receiver is not changed.
func (sp *Space) Extend(s schema.Schema) (*Space, int) {
	n := len(sp.set)
	return build(append(sp.set[:n:n], s), sp.cfg), n
}

// Schemas returns the schema set the space was built over, in index order.
// It is shared and must not be written.
func (sp *Space) Schemas() schema.Set { return sp.set }

// Bits returns, ascending, the set bits of F^i, schema i's binary feature
// vector: the one form the space holds it in. It is shared and must not be
// written.
func (sp *Space) Bits(i int) []int32 { return sp.bits[i] }

// Matches returns the vocabulary ids whose terms match vocabulary term j at
// τ_t_sim, each once, in the match index's own stable order: the bits term j
// sets in a schema's feature vector. It is shared and must not be written.
func (sp *Space) Matches(j int) []int32 { return sp.matcher.matchesOfVocab(j) }

// RowBuf is the scratch space of Space.Row and Space.Probe, owned by one
// caller at a time and reused across calls; the zero value is ready.
type RowBuf struct {
	shared []int32  // shared[j]: bits schema j shares with the row's schema; zero between calls
	gain   []int32  // gain[j]: new bits a probe's arrival gives schema j; zero between calls
	mark   []uint64 // bit j of the bitmap: shared[j] is non-zero; zero between calls
	bits   []int32
	owners []int32
	js     []int32
	sims   []float64
}

// grown returns s covering n entries. It grows by append, so a buffer kept
// across arrivals is not reallocated each time the space gains a schema.
func grown[T int32 | uint64](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// marked appends to js the schemas from lo on whose bit is set in mark, in
// ascending order, scanning the bitmap a word at a time, and zeroes the
// words it scans: every bit set is at lo or above. mark covers the space's
// schemas and no more, since a buffer may have served a larger space.
func marked(mark []uint64, lo int32, js []int32) []int32 {
	for w := int(lo >> 6); w < len(mark); w++ {
		for x := mark[w]; x != 0; x &= x - 1 {
			js = append(js, int32(w<<6+bits.TrailingZeros64(x)))
		}
		mark[w] = 0
	}
	return js
}

// PairFloor is φ, the one parameter of the blocked build's pair graph: a
// pair of schemas enters it when s_sim ≥ φ (cluster.CompletePairSims with
// this floor), and the exact build is floor 0. Algorithms 2 and 3 read an
// absent pair as similarity 0, so the floor drops only pairs far below
// τ_c_sim = 0.25, the faint ones average linkage would otherwise fold into
// its cluster averages; at 0.08 the blocked build tracks the exact one
// (DESIGN.md §10). payg reads it, and so does TermVectorizer, which lists
// the same graph.
const PairFloor = 0.08

// Row returns, ascending in j, every schema j > from other than i whose
// feature vector shares a set bit with schema i's, with s_sim(S_i, S_j) beside
// it. Every schema it leaves out has similarity exactly 0 to S_i, so the row
// is every positive similarity of S_i above from: from = i gives the upper
// triangle, from = -1 the whole row. The schemas are found through the
// bit→schema postings of i's set bits, each read backwards from its end
// down to from, counting per schema how many of i's bits it shares and
// marking it in a bitmap the row is then read off in index order; that count
// is |F^i ∩ F^j| and the similarity is inter/(|F^i|+|F^j|−inter) over the
// set-bit lists' lengths — the integers Similarity divides, so the same
// float64. The returned slices belong to buf and hold until its next use. Row
// is safe for concurrent use with distinct bufs.
func (sp *Space) Row(i, from int, buf *RowBuf) ([]int32, []float64) {
	n := len(sp.TermIDs)
	buf.shared, buf.mark = grown(buf.shared, n), grown(buf.mark, (n+63)>>6)
	shared, mark, lo := buf.shared, buf.mark[:(n+63)>>6], int32(from+1)
	for _, b := range sp.bits[i] {
		list := sp.postings[b]
		for k := len(list) - 1; k >= 0 && list[k] >= lo; k-- {
			j := list[k]
			mark[j>>6] |= 1 << (j & 63)
			shared[j]++
		}
	}
	js := marked(mark, lo, buf.js[:0])
	count := int32(len(sp.bits[i]))
	sims := buf.sims[:0]
	out := js[:0]
	for _, j := range js {
		inter := shared[j]
		shared[j] = 0
		if int(j) == i {
			continue
		}
		out = append(out, j)
		sims = append(sims, float64(inter)/float64(count+int32(len(sp.bits[j]))-inter))
	}
	buf.js, buf.sims = out, sims
	return out, sims
}

// Probe returns what ext.Row(n, -1, buf) returns for ext, n := sp.Extend(s)
// — every schema sharing a set bit with the arrival s, ascending, beside its
// similarity to s — and the number of novel terms s brings, the dimensions
// ext adds, without building ext. The arrival's bits on the known
// vocabulary are the match lists of its known terms and the forward matches
// of its novel terms; each novel term is one of its own terms, so it sets
// every new bit. A schema gains new bit u exactly when it holds a term on u's
// reverse match list (found through the term→schema index), and then shares
// u with the arrival. So schema j shares the known bits counted off the
// bit→schema postings, as Row counts them, plus gain_j, the distinct new bits
// it gains; its popcount grows by gain_j; and the similarity
// inter/(|F^s| + |F^j| + gain_j − inter) divides the integers ext's Row
// divides (a Jaccard count does not depend on where ext's sorted vocabulary
// puts the new bits), so it is the same float64. The returned slices belong
// to buf and hold until its next use. Probe is safe for concurrent use with
// distinct bufs.
func (sp *Space) Probe(s schema.Schema, buf *RowBuf) ([]int32, []float64, int) {
	n := len(sp.TermIDs)
	buf.shared, buf.gain, buf.mark = grown(buf.shared, n), grown(buf.gain, n), grown(buf.mark, (n+63)>>6)
	shared, gain, mark := buf.shared, buf.gain, buf.mark[:(n+63)>>6]

	var novel []string
	arrival := buf.bits[:0]
	for t := range terms.Extract(s.Attributes, sp.cfg.TermOpts) {
		if j, ok := sp.VocabIndex[t]; ok {
			arrival = append(arrival, sp.matcher.matchesOfVocab(j)...)
		} else {
			novel = append(novel, t)
		}
	}
	fwd, rev := sp.matcher.crossMatches(novel)
	for _, f := range fwd {
		arrival = append(arrival, f...)
	}
	slices.Sort(arrival)
	arrival = slices.Compact(arrival)

	for _, b := range arrival {
		for _, j := range sp.postings[b] {
			mark[j>>6] |= 1 << (j & 63)
			shared[j]++
		}
	}
	owners := buf.owners
	for _, r := range rev {
		owners = owners[:0]
		for _, v := range r {
			owners = append(owners, sp.termSchemas[v]...)
		}
		slices.Sort(owners) // two of a schema's terms can match the same new term
		for _, j := range slices.Compact(owners) {
			mark[j>>6] |= 1 << (j & 63)
			shared[j]++
			gain[j]++
		}
	}
	js := marked(mark, 0, buf.js[:0])

	count := int32(len(arrival) + len(novel))
	sims := buf.sims[:0]
	for _, j := range js {
		inter, g := shared[j], gain[j]
		shared[j], gain[j] = 0, 0
		sims = append(sims, float64(inter)/float64(count+int32(len(sp.bits[j]))+g-inter))
	}
	buf.bits, buf.owners, buf.js, buf.sims = arrival, owners, js, sims
	return js, sims, len(novel)
}

// Dim returns dim L, the dimensionality of the feature space.
func (sp *Space) Dim() int { return len(sp.Vocab) }

// NumSchemas returns the number of schemas embedded in the space.
func (sp *Space) NumSchemas() int { return len(sp.TermIDs) }

// Config returns the configuration the space was built with.
func (sp *Space) Config() Config { return sp.cfg }

// Similarity returns s_sim(S_i, S_j), computed on demand: the Jaccard
// coefficient |F^i ∩ F^j| / |F^i ∪ F^j| of the two schemas' feature vectors,
// counted by merging their set-bit lists (two schemas without a bit are 0
// apart). It is the definition Row's entries equal: the same integers, so the
// same float64.
func (sp *Space) Similarity(i, j int) float64 {
	if i == j {
		return 1
	}
	a, b := sp.bits[i], sp.bits[j]
	inter := 0
	for x, y := 0, 0; x < len(a) && y < len(b); {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			inter, x, y = inter+1, x+1, y+1
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// QueryVector embeds a keyword query into the feature space exactly as
// Section 5.1 describes: keywords are canonicalized and filtered like schema
// terms, then F^Q_j = 1 iff some query term matches L_j at τ_t_sim.
// Query terms need not belong to the vocabulary.
func (sp *Space) QueryVector(keywords []string) *bitvec.Vector {
	v := bitvec.New(len(sp.Vocab))
	sp.queryVectorInto(keywords, v)
	return v
}

// QueryVectorInto is QueryVector writing into a caller-owned vector of
// length Dim(), which it zeroes first. It exists so batch classification can
// reuse one scratch vector per worker instead of allocating per query; it
// panics if dst's length is not Dim().
func (sp *Space) QueryVectorInto(keywords []string, dst *bitvec.Vector) {
	if dst.Len() != len(sp.Vocab) {
		panic(fmt.Sprintf("feature: QueryVectorInto dst length %d, space dim %d", dst.Len(), len(sp.Vocab)))
	}
	dst.Zero()
	sp.queryVectorInto(keywords, dst)
}

func (sp *Space) queryVectorInto(keywords []string, v *bitvec.Vector) {
	for _, kw := range keywords {
		for _, t := range terms.FromAttribute(kw, sp.cfg.TermOpts) {
			for _, j := range sp.matcher.matchesOf(t) {
				v.Set(int(j))
			}
		}
	}
}

// QueryTerms returns the canonical filtered terms T_Q of a keyword query.
func (sp *Space) QueryTerms(keywords []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, kw := range keywords {
		for _, t := range terms.FromAttribute(kw, sp.cfg.TermOpts) {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}
