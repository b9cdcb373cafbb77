package feature

import (
	"fmt"
	"math"

	"schemaflow/internal/ann"
)

// NGramConfig tunes the dense hashed character-n-gram index.
type NGramConfig struct {
	// Dim is the embedding dimensionality (hashing-trick buckets). Zero
	// means 256 — wide enough that 3-gram collisions stay rare at schema
	// vocabulary sizes, small enough that a 100k-schema index fits in
	// ~100 MB.
	Dim int
	// ANN configures the HNSW index built over the embeddings.
	ANN ann.Config
}

func (c NGramConfig) normalized() NGramConfig {
	if c.Dim <= 0 {
		c.Dim = 256
	}
	return c
}

// NGramVectorizer embeds each schema's term set as an L2-normalized bag of
// hashed character 3-grams and answers neighbor queries from an HNSW index
// over those embeddings. Cosine similarity in this space is a cheap proxy
// for the term-space similarity: schemas sharing (fuzzily matching) terms
// share most of their 3-grams. The index is used only to shortlist for the
// online paths (classification and incremental assignment) and every
// shortlisted schema is re-scored exactly in term space, so embedding noise
// costs recall, never precision. It plays no part in the offline build.
type NGramVectorizer struct {
	cfg NGramConfig

	vecs  [][]float32
	index *ann.Index
}

// NewNGramVectorizer returns an unfitted index.
func NewNGramVectorizer(cfg NGramConfig) *NGramVectorizer {
	return &NGramVectorizer{cfg: cfg.normalized()}
}

// Fit embeds every schema term set of sp and builds the HNSW index. It must
// be called before Shortlist, and again whenever the Space is rebuilt —
// fitted state is derived, never persisted. Embeddings are a pure function
// of the term sets and the config, so re-fitting is deterministic.
func (v *NGramVectorizer) Fit(sp *Space) error {
	v.vecs = make([][]float32, len(sp.TermSets))
	for i, ts := range sp.TermSets {
		terms := make([]string, 0, len(ts))
		for t := range ts {
			terms = append(terms, t)
		}
		v.vecs[i] = v.Embed(terms)
	}
	ix, err := ann.Build(v.vecs, v.cfg.ANN)
	if err != nil {
		return fmt.Errorf("feature: building ANN index: %w", err)
	}
	v.index = ix
	return nil
}

// Embed maps a term list to its L2-normalized hashed character-3-gram
// vector. Term order and duplicates do not matter beyond duplicate terms
// accumulating weight; a nil or all-filtered input embeds to the zero
// vector.
func (v *NGramVectorizer) Embed(terms []string) []float32 {
	vec := make([]float32, v.cfg.Dim)
	for _, t := range terms {
		// Pad so 1- and 2-letter terms still emit a gram and boundary
		// grams are distinguished from interior ones.
		padded := "\x02" + t + "\x03"
		for i := 0; i+3 <= len(padded); i++ {
			h := hashGram(padded[i : i+3])
			j := int(h % uint64(v.cfg.Dim))
			if h&(1<<63) != 0 {
				vec[j]--
			} else {
				vec[j]++
			}
		}
	}
	var norm float64
	for _, x := range vec {
		norm += float64(x) * float64(x)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for j := range vec {
			vec[j] *= inv
		}
	}
	return vec
}

// hashGram hashes one 3-byte gram: FNV-1a mixed through a splitmix64
// finalizer so the low bits used for bucketing are well distributed.
func hashGram(g string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(g); i++ {
		h ^= uint64(g[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Shortlist returns the ANN top-k schema indices for the query's canonical
// terms, most-similar-first. The caller re-scores the shortlist exactly
// (restricted assignment or subset classification), preserving ranked
// output.
func (v *NGramVectorizer) Shortlist(terms []string, k int) []int {
	if v.index == nil || k <= 0 {
		return nil
	}
	res := v.index.Search(v.Embed(terms), k, 0)
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.ID
	}
	return out
}
