package feature

import (
	"context"
	"fmt"

	"schemaflow/internal/candgen"
)

// TermVectorizer is the blocked build path's candidate generator: MinHash-
// LSH over the term-match Space's binary vectors. Candidate generation is
// only blocking — every proposed pair is re-scored exactly in term space,
// and absent pairs count as zero similarity.
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
