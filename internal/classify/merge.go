package classify

import (
	"cmp"
	"slices"
)

// This file is the router's half of sharded classification: a shard's
// classifier holds only its local domains' table rows (Config.Local) and
// MergeScores reassembles a global ranking from the shards' partial
// answers. It works because each domain's raw LogPosterior depends only on
// that domain's own row (base and delta entries) and the query vector —
// never on other domains — so a shard holding the full feature space
// computes bit-identical per-domain log posteriors, and merging reduces to
// re-running the normalization and rank that classifyInto would have run
// over the same values in the same order.

// MergeScores reassembles one global ranking from disjoint per-shard
// partial score lists carrying raw LogPosterior values (Posterior fields
// are ignored and recomputed — a shard's local normalization is
// meaningless globally). The result is bit-identical to what a single
// unsharded classifier returns for the same query when the partials
// cover every domain exactly once: the partials are first laid out in
// ascending domain-id order, which reproduces classifyInto's
// pre-normalization slice exactly, so the log-sum-exp accumulates the
// same floats in the same order and rank, a total order, yields the
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
	slices.SortFunc(out, func(a, b Score) int { return cmp.Compare(a.Domain, b.Domain) })
	normalize(out)
	rank(out)
	return out
}
