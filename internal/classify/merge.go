package classify

import (
	"cmp"
	"math"
	"slices"
)

// This file is the router's half of sharded classification: a shard's
// classifier holds only its local domains' table rows (Config.Local) and
// MergeTop reassembles a global ranking from the shards' partial answers. It
// works because each domain's raw LogPosterior depends only on that
// domain's own row (base, default and listed entries) and the query
// vector — never on other domains — so a shard holding the full feature
// space computes bit-identical per-domain log posteriors, and merging
// reduces to re-running the normalization and selection that classifyInto
// would have run over the same values in the same order.

// MergeTop reassembles the best k of one global ranking from disjoint
// per-shard partial score lists carrying raw LogPosterior values (Posterior
// fields are ignored and recomputed — a shard's local normalization is
// meaningless globally). The result is bit-identical to what a single
// unsharded classifier's Top returns for the same query and k when the
// partials cover every domain exactly once: the partials are first laid out
// in ascending domain-id order, which reproduces classifyInto's
// pre-normalization slice exactly, so the log-sum-exp accumulates the same
// floats in the same order and the selection, under a total order, keeps
// the same prefix. With partial coverage (a shard down) the merge still
// returns a correctly ordered ranking over the covered domains, with
// posteriors renormalized over that subset — callers flag that answer as
// degraded. k < 1 gives an empty ranking, k past the covered domains all
// of them.
func MergeTop(partials [][]Score, k int) []Score {
	total := 0
	for _, p := range partials {
		total += len(p)
	}
	asc := make([]Score, 0, total)
	for _, p := range partials {
		asc = append(asc, p...)
	}
	slices.SortFunc(asc, func(a, b Score) int { return cmp.Compare(a.Domain, b.Domain) })
	var out []Score
	if k < total {
		out = make([]Score, 0, max(k, 0))
	}
	out, _ = rankTop(asc, k, out)
	return out
}

// MergeScores is MergeTop over every covered domain: the whole global
// ranking.
func MergeScores(partials [][]Score) []Score {
	return MergeTop(partials, math.MaxInt)
}
