package classify

import (
	"fmt"
	"math"
	"sort"
)

// This file is the sharding support of the classifier: Prune cuts a full
// classifier down to one shard's local domains, and MergeScores
// reassembles a global ranking from the shards' partial answers. The two
// are designed as exact inverses of each other over the classification
// math: because each domain's raw LogPosterior depends only on that
// domain's own tables (log prior, Σ log Pr(F_j=0), delta row) and the
// query vector — never on other domains — a shard holding the full
// feature space computes bit-identical per-domain log posteriors, and
// merging reduces to re-running the normalization and sort that
// classifyInto would have run over the same values in the same order.

// Prune returns a classifier restricted to the given local domains: the
// kept domains' tables are shared (not copied) with the original, every
// other domain's delta row is dropped and its log prior forced to -Inf,
// exactly the representation classifyInto already uses for skipped
// domains. The pruned classifier still scores the full domain-id range —
// remote domains simply rank last at -Inf — so Score.Domain ids remain
// globally meaningful. Memory for a shard is O(|local| · dim) instead of
// O(|D| · dim). New with Config.Local builds the same form directly.
func (c *Classifier) Prune(local []int) (*Classifier, error) {
	nD := c.model.NumDomains()
	keep := make([]bool, nD)
	for _, r := range local {
		if r < 0 || r >= nD {
			return nil, fmt.Errorf("classify: prune domain %d out of range [0,%d)", r, nD)
		}
		keep[r] = true
	}
	p := &Classifier{
		model:    c.model,
		mode:     c.mode,
		logPrior: make([]float64, nD),
		sumLog0:  make([]float64, nD),
		delta:    make([][]float64, nD),
	}
	for r := 0; r < nD; r++ {
		if keep[r] {
			p.logPrior[r] = c.logPrior[r]
			p.sumLog0[r] = c.sumLog0[r]
			p.delta[r] = c.delta[r]
		} else {
			p.logPrior[r] = math.Inf(-1)
		}
	}
	p.initScratch(c.model.Space.Dim())
	return p, nil
}

// MergeScores reassembles one global ranking from disjoint per-shard
// partial score lists carrying raw LogPosterior values (Posterior fields
// are ignored and recomputed — a shard's local normalization is
// meaningless globally). The result is bit-identical to what a single
// unsharded classifier returns for the same query when the partials
// cover every domain exactly once: the partials are first laid out in
// ascending domain-id order, which reproduces classifyInto's
// pre-normalization slice exactly, so the log-sum-exp accumulates the
// same floats in the same order and the identical stable sort yields the
// identical permutation. With partial coverage (a shard down) the merge
// still returns a correctly ordered ranking over the covered domains,
// with posteriors renormalized over that subset — callers flag that
// answer as degraded.
func MergeScores(partials [][]Score) []Score {
	total := 0
	for _, p := range partials {
		total += len(p)
	}
	out := make([]Score, 0, total)
	for _, p := range partials {
		out = append(out, p...)
	}
	sort.Slice(out, func(a, b int) bool {
		return out[a].Domain < out[b].Domain
	})
	normalize(out)
	sort.SliceStable(out, func(a, b int) bool {
		return out[a].LogPosterior > out[b].LogPosterior
	})
	return out
}
