package feature

import (
	"context"
	"fmt"

	"schemaflow/internal/candgen"
)

// TermVectorizer lists MinHash-LSH candidate pairs over the term-match
// Space's binary vectors (candgen.Pairs). The build does not use it — it
// keeps the positive pairs that pass candgen's band test instead (see
// cluster.CompletePairSims) — but the benchmark's trace times it by name.
type TermVectorizer struct {
	// Cand configures the MinHash-LSH candidate generation.
	Cand candgen.Config

	sp *Space
}

// NewTermVectorizer returns the candidate generator with the given MinHash-
// LSH tuning (zero-value fields default inside candgen).
func NewTermVectorizer(cfg candgen.Config) *TermVectorizer {
	return &TermVectorizer{Cand: cfg}
}

// Fit binds the generator to a built Space. It must be called before
// CandidatePairs.
func (v *TermVectorizer) Fit(sp *Space) error {
	v.sp = sp
	return nil
}

// CandidatePairs returns the candidate schema pairs (A < B, sorted,
// deduplicated) for sub-quadratic clustering.
func (v *TermVectorizer) CandidatePairs(ctx context.Context) ([]candgen.Pair, error) {
	if v.sp == nil {
		return nil, fmt.Errorf("feature: term vectorizer not fitted")
	}
	return candgen.Pairs(ctx, v.sp.Vectors, v.Cand)
}
