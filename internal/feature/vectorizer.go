package feature

import (
	"context"
	"fmt"

	"schemaflow/internal/candgen"
)

// TermVectorizer lists the pair graph of the blocked build: every schema
// pair of a Space whose similarity is at least PairFloor, read off
// Space.Row. The build does not call it — cluster.CompletePairSims stores
// the same pairs with their similarities — but the benchmark's trace times
// it by name and replays the build from its list.
type TermVectorizer struct {
	sp *Space
}

// NewTermVectorizer returns an unfitted lister. cfg names the MinHash-LSH
// tuning the blocked build once used; it is not read.
func NewTermVectorizer(cfg candgen.Config) *TermVectorizer {
	return &TermVectorizer{}
}

// Fit binds the lister to a built Space. It must be called before
// CandidatePairs.
func (v *TermVectorizer) Fit(sp *Space) error {
	v.sp = sp
	return nil
}

// CandidatePairs returns the pairs (A < B) whose similarity is at least
// PairFloor, sorted by (A, B). ctx is polled between rows.
func (v *TermVectorizer) CandidatePairs(ctx context.Context) ([]candgen.Pair, error) {
	if v.sp == nil {
		return nil, fmt.Errorf("feature: term vectorizer not fitted")
	}
	var pairs []candgen.Pair
	var buf RowBuf
	for a := range v.sp.NumSchemas() {
		if a%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		js, sims := v.sp.Row(a, a, &buf)
		for k, b := range js {
			if sims[k] >= PairFloor {
				pairs = append(pairs, candgen.Pair{A: int32(a), B: b})
			}
		}
	}
	return pairs, nil
}
