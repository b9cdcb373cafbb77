package cluster

import (
	"context"
	"fmt"

	"schemaflow/internal/feature"
)

// Dendrogram is a full agglomeration trace: the merges of Algorithm 2 run
// with τ = 0 (i.e. to a single cluster), in merge order with their
// similarities. For *reducible* linkages — Min, Max, and Avg Jaccard, whose
// merge similarities are non-increasing — the greedy run with threshold τ
// performs exactly the prefix of these merges with similarity ≥ τ, so one
// dendrogram answers every τ. Total Jaccard is not reducible (a merge can
// create a pair more similar than the pair just merged), so it must be
// re-run per τ; BuildDendrogram rejects it.
type Dendrogram struct {
	n      int
	merges []Merge
}

// Reducible reports whether the linkage method admits dendrogram reuse.
func Reducible(m Method) bool {
	return m == AvgJaccard || m == MinJaccard || m == MaxJaccard
}

// BuildDendrogram runs the full agglomeration once over the pair set ps of
// sp (CompletePairSims for the thesis' clustering). It returns an error for
// non-reducible linkages, where a cut would not equal a thresholded run.
func BuildDendrogram(sp *feature.Space, ps *PairSims, method Method) (*Dendrogram, error) {
	if !Reducible(method) {
		return nil, fmt.Errorf("cluster: %s is not reducible; run Agglomerative per threshold", method)
	}
	res, err := AgglomerativeSparse(context.TODO(), sp, NewLinkage(method), 0, ps, SparseOptions{})
	if err != nil {
		return nil, err
	}
	return &Dendrogram{n: sp.NumSchemas(), merges: res.Merges}, nil
}

// CutAt returns the partition a thresholded run at tau would produce: all
// merges with similarity ≥ tau applied, the rest discarded. Any real tau is
// a well-defined cut height (tau > 1 applies no merges and yields all
// singletons; tau ≤ 0 applies every merge); a NaN tau — for which every
// comparison is false — conservatively applies no merges instead of
// silently applying all of them.
func (d *Dendrogram) CutAt(tau float64) *Result {
	parent := make([]int, d.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, m := range d.merges {
		// Written as a negated ≥ so a NaN tau stops before the first merge
		// (all singletons) rather than applying every merge (one cluster).
		if !(m.Sim >= tau) {
			break
		}
		ra, rb := find(m.A), find(m.B)
		if ra != rb {
			parent[rb] = ra
		}
	}
	assign := make([]int, d.n)
	for i := range assign {
		assign[i] = find(i)
	}
	return FromAssignment(assign)
}
