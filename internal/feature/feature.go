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
	"slices"
	"sort"
	"sync"

	"schemaflow/internal/bitvec"
	"schemaflow/internal/par"
	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// Mode selects the feature representation.
type Mode int

const (
	// Binary is the thesis' representation: F_j ∈ {0,1} (Section 4.1 —
	// "schema attributes usually contain a few terms, so binary features
	// are sufficient").
	Binary Mode = iota
	// TermFrequency keeps per-feature match counts (how many of the
	// schema's terms matched vocabulary term j) and measures similarity by
	// generalized Jaccard Σmin/Σmax. Provided to test the thesis' claim
	// that counting adds nothing.
	TermFrequency
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == TermFrequency {
		return "term-frequency"
	}
	return "binary"
}

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
	// Mode selects binary (default, the thesis' choice) or term-frequency
	// features.
	Mode Mode
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
// feature vector per input schema. A Space is immutable after BuildLite; the
// one structure built on first use (schemasByBit) is behind a sync.Once, so
// reads are safe for concurrent use.
type Space struct {
	cfg Config

	// Vocab is L: the sorted list of all distinct canonical terms across
	// all input schemas.
	Vocab []string
	// VocabIndex maps a vocabulary term to its position in Vocab.
	VocabIndex map[string]int

	// TermIDs[i] is T_i, the extracted term set of schema i, as ascending
	// vocabulary ids.
	TermIDs [][]int32
	// Vectors[i] is F^i, the binary feature vector of schema i.
	Vectors []*bitvec.Vector
	// counts[i][j] is the number of schema-i term occurrences matching
	// vocabulary term j; populated only in TermFrequency mode.
	counts [][]uint16

	// set is the input schema set the space embeds (schema i ↔ TermIDs[i]);
	// retained so Extend can fall back to a full rebuild in TermFrequency
	// mode.
	set schema.Set
	// termSchemas[j] lists, ascending, the schemas whose term set contains
	// vocabulary term j — the inverted term→schema index Extend and Probe
	// use to find only the vectors a new vocabulary term actually affects.
	termSchemas [][]int32
	// bitSchemas is the inverse of Vectors and bitCounts[i] the number of
	// bits set in Vectors[i], both built on first use or handed over by
	// Extend; read them after calling schemasByBit.
	bitSchemas     [][]int32
	bitCounts      []int32
	bitSchemasOnce sync.Once

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
	cfg = cfg.normalized()
	sp := &Space{cfg: cfg, set: set}

	// Term splitting, the per-term match lists (inside newMatchIndex), the
	// term sets and the vectors are independent per spelling, term or schema
	// and fan out by index; the vocabulary and the inverted index between
	// them are built in order on one goroutine, so the space is the same for
	// any worker count. A schema's term set is the union of its spellings'
	// rows of the spelling table, so nothing past the vocabulary looks a
	// term up by its string.
	lists := sp.vocabulary(set)
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
	// The inverted index, every list carved out of one slab.
	sizes := make([]int, len(sp.Vocab))
	total := 0
	for _, ids := range sp.TermIDs {
		for _, j := range ids {
			sizes[j]++
		}
		total += len(ids)
	}
	flat := make([]int32, total)
	sp.termSchemas = make([][]int32, len(sp.Vocab))
	for j, size := range sizes {
		sp.termSchemas[j], flat = flat[:0:size], flat[size:]
	}
	for i, ids := range sp.TermIDs {
		for _, j := range ids {
			sp.termSchemas[j] = append(sp.termSchemas[j], int32(i))
		}
	}

	// Feature vectors: F^i = union over t in T_i of the vocabulary terms
	// matching t. Because every schema term is itself in the vocabulary and
	// the similarity is symmetric, per-vocabulary-term match lists can be
	// reused across schemas.
	sp.Vectors = make([]*bitvec.Vector, len(set))
	if cfg.Mode == TermFrequency {
		sp.counts = make([][]uint16, len(set))
	}
	par.Each(len(set), func(i int) {
		v := bitvec.New(len(sp.Vocab))
		for _, t := range sp.TermIDs[i] {
			for _, j := range sp.matcher.matchesOfVocab(int(t)) {
				v.Set(int(j))
			}
		}
		sp.Vectors[i] = v
		if cfg.Mode != TermFrequency {
			return
		}
		// Count every term *occurrence* across the schema's attributes
		// (binary mode deduplicates; counting is the point here). A
		// spelling's term list is ascending with its repeats, and its row of
		// ids holds the distinct terms in the same order.
		c := make([]uint16, len(sp.Vocab))
		for _, attr := range set[i].Attributes {
			k := lex.spellings[attr]
			x := -1
			for n, t := range lists[k] {
				if n == 0 || t != lists[k][n-1] {
					x++
				}
				for _, j := range sp.matcher.matchesOfVocab(int(lex.ids[k][x])) {
					if c[j] < ^uint16(0) {
						c[j]++
					}
				}
			}
		}
		sp.counts[i] = c
	})
	return sp
}

// Extend embeds one additional schema into the space incrementally and
// returns the extended space plus the new schema's index. The receiver is
// never mutated (copy-on-write): unchanged vocabulary entries, term sets,
// match lists, and feature vectors are shared between the two spaces, so an
// in-flight reader of the old space is unaffected.
//
// Instead of re-running Algorithm 1 over all n+1 schemas, Extend
//
//   - extracts only the newcomer's terms and appends the novel ones to the
//     vocabulary (after the existing entries — order is NOT re-sorted, see
//     below);
//   - probes the existing candidate index for cross-matches in both
//     directions and layers the new terms onto it (no index rebuild);
//   - sets the new vocabulary bits on only the affected existing vectors,
//     found via the inverted term→schema index: F_i[j_new] = 1 iff T_i
//     intersects the old-vocabulary match list of the new term;
//   - embeds the newcomer's vector from the (extended) memoized match lists;
//   - carries the bit→schema postings (schemasByBit) over the same way: the
//     receiver's lists shared, one list opened per new bit, the newcomer
//     appended to a copy of each list whose bit it sets;
//   - carries the spelling table (Lexicon) over the same way: the receiver's
//     rows shared, one row appended per spelling the newcomer brings, over
//     the extended vocabulary and match lists.
//
// Per-arrival cost is O(new terms × candidates + affected schemas + dim)
// rather than BuildLite's O(n × total terms).
//
// Because novel terms are appended, vocabulary order — and therefore bit
// positions — can differ from a from-scratch BuildLite over the extended
// set; the embedding is identical up to that permutation (same vocabulary
// set, same term↔schema incidence, bit-identical vectors after reordering,
// and exactly equal pairwise similarities — Jaccard is permutation
// invariant).
//
// In TermFrequency mode the per-occurrence counts cannot be patched without
// re-scanning every attribute, so Extend falls back to a full BuildLite over
// the extended set; the binary representation — the thesis' choice and the
// online hot path — takes the incremental route.
func (sp *Space) Extend(s schema.Schema) (*Space, int) {
	newIdx := len(sp.TermIDs)
	if sp.cfg.Mode == TermFrequency {
		mExtendFallback.Inc()
		return BuildLite(append(sp.set[:newIdx:newIdx], s), sp.cfg), newIdx
	}

	ts := terms.Extract(s.Attributes, sp.cfg.TermOpts)
	var newTerms []string
	for t := range ts {
		if _, ok := sp.VocabIndex[t]; !ok {
			newTerms = append(newTerms, t)
		}
	}
	sort.Strings(newTerms)
	oldDim := len(sp.Vocab)
	newDim := oldDim + len(newTerms)

	ns := &Space{
		cfg: sp.cfg,
		set: append(sp.set[:newIdx:newIdx], s),
	}

	var rev [][]int32
	if len(newTerms) == 0 {
		// Vocabulary unchanged: every shared structure can be reused as is.
		ns.Vocab = sp.Vocab
		ns.VocabIndex = sp.VocabIndex
		ns.matcher = sp.matcher
	} else {
		vocab := make([]string, newDim)
		copy(vocab, sp.Vocab)
		copy(vocab[oldDim:], newTerms)
		ns.Vocab = vocab
		vi := make(map[string]int, newDim)
		for j, t := range vocab {
			vi[t] = j
		}
		ns.VocabIndex = vi
		ns.matcher, rev = sp.matcher.extended(vocab, newTerms)
	}
	ns.lex = sp.lex.extended(s, ns)
	ids := make([]int32, 0, len(ts))
	for t := range ts {
		ids = append(ids, int32(ns.VocabIndex[t]))
	}
	slices.Sort(ids)
	ns.TermIDs = append(sp.TermIDs[:newIdx:newIdx], ids)

	// Inverted index: the newcomer joins the schema list of each of its
	// terms (copy-on-write), and novel terms open singleton lists.
	termSchemas := make([][]int32, newDim)
	copy(termSchemas, sp.termSchemas)
	for _, j := range ids {
		old := termSchemas[j]
		list := make([]int32, 0, len(old)+1)
		list = append(list, old...)
		termSchemas[j] = append(list, int32(newIdx))
	}
	ns.termSchemas = termSchemas

	// New vocabulary bits land only on the vectors of schemas that contain
	// a term matching a new term — everyone else shares their old vector
	// (re-headered to the new dimensionality without copying when the word
	// count allows).
	newBits := make(map[int32][]int)
	for i, js := range rev {
		bit := oldDim + i
		for _, j := range js {
			for _, owner := range sp.termSchemas[j] {
				newBits[owner] = append(newBits[owner], bit)
			}
		}
	}
	bitSchemas := make([][]int32, newDim)
	copy(bitSchemas, sp.schemasByBit())
	bitCounts := make([]int32, newIdx+1)
	copy(bitCounts, sp.bitCounts)
	vectors := make([]*bitvec.Vector, newIdx+1)
	for i := 0; i < newIdx; i++ {
		bits := newBits[int32(i)]
		if len(bits) == 0 {
			vectors[i] = sp.Vectors[i].WithLen(newDim)
			continue
		}
		v := sp.Vectors[i].CloneWithLen(newDim)
		for _, b := range bits {
			if !v.Get(b) { // two of i's terms can match the same new term
				v.Set(b)
				bitSchemas[b] = append(bitSchemas[b], int32(i))
				bitCounts[i]++
			}
		}
		vectors[i] = v
	}
	nv := bitvec.New(newDim)
	for _, t := range ids {
		for _, j := range ns.matcher.matchesOfVocab(int(t)) {
			nv.Set(int(j))
		}
	}
	vectors[newIdx] = nv
	ns.Vectors = vectors
	for _, b := range nv.Indices() {
		// Full slice expression: the append copies a list shared with sp.
		old := bitSchemas[b]
		bitSchemas[b] = append(old[:len(old):len(old)], int32(newIdx))
	}
	bitCounts[newIdx] = int32(nv.Count())
	ns.bitSchemas, ns.bitCounts = bitSchemas, bitCounts
	return ns, newIdx
}

// schemasByBit returns the inverse of Vectors: element b lists, ascending,
// the schemas whose feature vector has bit b set. It is read off the vectors
// themselves rather than derived from the term relation, so it is exact
// under an asymmetric term similarity, in TermFrequency mode and on a space
// that is itself an Extend product. BuildLite leaves it, and the popcounts
// in bitCounts beside it, to the first caller (one pass over the set bits);
// Extend hands its product both directly and the build there is a no-op.
// The result is shared and must not be written.
func (sp *Space) schemasByBit() [][]int32 {
	sp.bitSchemasOnce.Do(func() {
		if sp.bitSchemas != nil {
			return
		}
		sizes := make([]int, len(sp.Vocab))
		counts := make([]int32, len(sp.Vectors))
		total := 0
		var idx []int
		for i, v := range sp.Vectors {
			idx = v.IndicesAppend(idx[:0])
			for _, b := range idx {
				sizes[b]++
			}
			counts[i] = int32(len(idx))
			total += len(idx)
		}
		flat := make([]int32, total)
		lists := make([][]int32, len(sp.Vocab))
		for b, n := range sizes {
			lists[b], flat = flat[:0:n], flat[n:]
		}
		for i, v := range sp.Vectors {
			idx = v.IndicesAppend(idx[:0])
			for _, b := range idx {
				lists[b] = append(lists[b], int32(i))
			}
		}
		sp.bitSchemas, sp.bitCounts = lists, counts
	})
	return sp.bitSchemas
}

// RowBuf is the scratch space of Space.Row and Space.Probe, owned by one
// caller at a time and reused across calls; the zero value is ready.
type RowBuf struct {
	shared []int32 // shared[j]: bits schema j shares with the row's schema; zero between calls
	gain   []int32 // gain[j]: new bits a probe's arrival gives schema j; zero between calls
	bits   []int32
	owners []int32
	js     []int32
	sims   []float64
}

// grown returns counts covering n schemas. It grows by append, so a buffer
// kept across arrivals is not reallocated each time the space gains a
// schema.
func grown(counts []int32, n int) []int32 {
	if len(counts) < n {
		counts = append(counts, make([]int32, n-len(counts))...)
	}
	return counts
}

// ascending puts js, the schemas in [lo, n) with a non-zero shared count
// listed in the order they were first counted, in ascending order: it sorts
// a short list, and reads a long one back off the counts in index order
// instead.
func (buf *RowBuf) ascending(js []int32, lo, n int32) []int32 {
	if len(js) < int(n-lo)/16 {
		slices.Sort(js)
		return js
	}
	js = js[:0]
	for j, c := range buf.shared[lo:n] {
		if c != 0 {
			js = append(js, lo+int32(j))
		}
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
// it. Every schema it leaves out has similarity exactly 0 to S_i in either
// mode (a term-frequency count is positive exactly where the bit is set), so
// the row is every positive similarity of S_i above from: from = i gives the
// upper triangle, from = -1 the whole row. The schemas are found through the
// bit→schema index, counting per schema how many of i's bits it shares; in
// binary mode that count is |F^i ∩ F^j| and the similarity is
// inter/(|F^i|+|F^j|−inter) over the cached popcounts — the integers
// Vector.Jaccard divides, so the same float64 — and in term-frequency mode it
// is the generalized Jaccard of the two count vectors. The returned slices
// belong to buf and hold until its next use. Row is safe for concurrent use
// with distinct bufs.
func (sp *Space) Row(i, from int, buf *RowBuf) ([]int32, []float64) {
	lists := sp.schemasByBit()
	n := len(sp.Vectors)
	buf.shared = grown(buf.shared, n)
	shared, lo := buf.shared, int32(from+1)
	js := buf.js[:0]
	buf.bits = sp.Vectors[i].IndicesAppend32(buf.bits[:0])
	for _, b := range buf.bits {
		list := lists[b]
		k, _ := slices.BinarySearch(list, lo)
		for _, j := range list[k:] {
			if shared[j] == 0 {
				js = append(js, j)
			}
			shared[j]++
		}
	}
	js = buf.ascending(js, lo, int32(n))
	sims := buf.sims[:0]
	out := js[:0]
	for _, j := range js {
		inter := shared[j]
		shared[j] = 0
		if int(j) == i {
			continue
		}
		var s float64
		if sp.counts != nil {
			s = generalizedJaccard(sp.counts[i], sp.counts[j])
		} else {
			s = float64(inter) / float64(sp.bitCounts[i]+sp.bitCounts[j]-inter)
		}
		out = append(out, j)
		sims = append(sims, s)
	}
	buf.js, buf.sims = out, sims
	return out, sims
}

// Probe returns what ext.Row(newIdx, -1, buf) returns for ext, newIdx :=
// sp.Extend(s) — every schema sharing a set bit with the arrival s,
// ascending, beside its similarity to s — and the number of novel terms
// Extend would append, without building ext. The arrival's bits on the old
// vocabulary are the match lists of its known terms and the forward matches
// of its novel terms; each novel term is one of its own terms, so it sets
// every new bit. A schema gains new bit u exactly when it holds a term on u's
// reverse match list (found through the term→schema index), and then shares
// u with the arrival. So schema j shares the old bits counted off the
// bit→schema index, as Row counts them, plus gain_j, the distinct new bits it
// gains; its popcount grows by gain_j; and the similarity
// inter/(|F^s| + |F^j| + gain_j − inter) divides the integers ext's Row
// divides, so it is the same float64. In TermFrequency mode per-occurrence
// counts cannot be patched, and Probe is Extend followed by Row. The returned
// slices belong to buf and hold until its next use. Probe is safe for
// concurrent use with distinct bufs.
func (sp *Space) Probe(s schema.Schema, buf *RowBuf) ([]int32, []float64, int) {
	if sp.cfg.Mode == TermFrequency {
		ext, newIdx := sp.Extend(s)
		js, sims := ext.Row(newIdx, -1, buf)
		return js, sims, ext.Dim() - sp.Dim()
	}
	lists := sp.schemasByBit()
	n := len(sp.Vectors)
	buf.shared, buf.gain = grown(buf.shared, n), grown(buf.gain, n)
	shared, gain := buf.shared, buf.gain

	var novel []string
	bits := buf.bits[:0]
	for t := range terms.Extract(s.Attributes, sp.cfg.TermOpts) {
		if j, ok := sp.VocabIndex[t]; ok {
			bits = append(bits, sp.matcher.matchesOfVocab(j)...)
		} else {
			novel = append(novel, t)
		}
	}
	fwd, rev := sp.matcher.crossMatches(novel)
	for _, f := range fwd {
		bits = append(bits, f...)
	}
	slices.Sort(bits)
	bits = slices.Compact(bits)

	js := buf.js[:0]
	for _, b := range bits {
		for _, j := range lists[b] {
			if shared[j] == 0 {
				js = append(js, j)
			}
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
			if shared[j] == 0 {
				js = append(js, j)
			}
			shared[j]++
			gain[j]++
		}
	}
	js = buf.ascending(js, 0, int32(n))

	count := int32(len(bits) + len(novel))
	sims := buf.sims[:0]
	for _, j := range js {
		inter, g := shared[j], gain[j]
		shared[j], gain[j] = 0, 0
		sims = append(sims, float64(inter)/float64(count+sp.bitCounts[j]+g-inter))
	}
	buf.bits, buf.owners, buf.js, buf.sims = bits, owners, js, sims
	return js, sims, len(novel)
}

// generalizedJaccard is Σ_j min(a_j, b_j) / Σ_j max(a_j, b_j).
func generalizedJaccard(a, b []uint16) float64 {
	var minSum, maxSum int
	for j := range a {
		x, y := int(a[j]), int(b[j])
		if x < y {
			minSum += x
			maxSum += y
		} else {
			minSum += y
			maxSum += x
		}
	}
	if maxSum == 0 {
		return 0
	}
	return float64(minSum) / float64(maxSum)
}

// Dim returns dim L, the dimensionality of the feature space.
func (sp *Space) Dim() int { return len(sp.Vocab) }

// NumSchemas returns the number of schemas embedded in the space.
func (sp *Space) NumSchemas() int { return len(sp.Vectors) }

// Config returns the configuration the space was built with.
func (sp *Space) Config() Config { return sp.cfg }

// Similarity returns s_sim(S_i, S_j), computed on demand: the Jaccard
// coefficient of the two schemas' feature vectors, or in term-frequency mode
// the generalized Jaccard of their counts. It is the definition Row's
// entries equal.
func (sp *Space) Similarity(i, j int) float64 {
	if i == j {
		return 1
	}
	if sp.counts != nil {
		return generalizedJaccard(sp.counts[i], sp.counts[j])
	}
	return sp.Vectors[i].Jaccard(sp.Vectors[j])
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
