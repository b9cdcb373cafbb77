// Package cluster implements the schema clustering stage (Chapter 4 of the
// thesis): hierarchical agglomerative clustering over binary feature vectors
// with Jaccard-based linkage and a similarity stop threshold τ_c_sim
// (Algorithm 2), plus the baseline clusterers the background chapter
// discusses (k-means, DBSCAN) and a He–Tao–Chang-style model-based HAC
// baseline (CIKM 2004) for comparison experiments.
//
// Algorithm 2 has one implementation, AgglomerativeSparse, which clusters
// over a PairSims adjacency. What varies is which pairs it holds:
// CompletePairSims stores every positive pair of the space (the thesis' exact
// clustering, which Agglomerative wraps) or, given a similarity floor, the
// positive pairs at or above it; PairwiseSims verifies a given pair list.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	"schemaflow/internal/feature"
)

// Merge records one agglomeration step: clusters rooted at schema indices A
// and B (their current representatives) merged at similarity Sim.
type Merge struct {
	A, B int
	Sim  float64
}

// Result is a hard partition of the input schemas.
type Result struct {
	// Assign[i] is the cluster id of schema i; ids are dense in
	// [0, NumClusters).
	Assign []int
	// Members[c] lists the schema indices of cluster c in increasing order.
	Members [][]int
	// Merges is the agglomeration trace, in merge order. Empty for
	// non-hierarchical algorithms.
	Merges []Merge
	// Components and LargestComponent describe how Algorithm 2 ran: the
	// number of independent groups of schemas it agglomerated separately
	// (see AgglomerativeSparse) and the size of the largest. One component of
	// the whole corpus means the run was a single sequential loop. Zero for
	// non-hierarchical algorithms.
	Components, LargestComponent int
}

// NumClusters returns the number of clusters in the partition.
func (r *Result) NumClusters() int { return len(r.Members) }

// Singletons returns the ids of clusters containing exactly one schema —
// the "unclustered schemas" of Section 6.1.2.
func (r *Result) Singletons() []int {
	var out []int
	for c, m := range r.Members {
		if len(m) == 1 {
			out = append(out, c)
		}
	}
	return out
}

// Agglomerative runs Algorithm 2: start from singleton clusters, repeatedly
// merge the globally most similar pair of clusters under the linkage, and
// stop when the best pair's similarity falls below tau (τ_c_sim). It is
// AgglomerativeSparse over the complete pair set of sp.
//
// tau must be a real number in [0,1]; anything else — in particular NaN,
// whose comparisons are all false and would silently disable the stop
// condition, merging every schema into one cluster — is rejected with an
// error rather than clamped, because a garbage threshold is a caller bug,
// not a preference.
func Agglomerative(sp *feature.Space, link Linkage, tau float64) (*Result, error) {
	return AgglomerativeContext(context.Background(), sp, link, tau)
}

// AgglomerativeContext is Agglomerative with cooperative cancellation: the
// pair-set construction and the merge loop both poll ctx, so a Manager
// shutting down mid-recluster gets ctx.Err() back promptly instead of
// waiting out the remaining O(n) rounds of a large build.
func AgglomerativeContext(ctx context.Context, sp *feature.Space, link Linkage, tau float64) (*Result, error) {
	// Before the O(n²) pair scan, not after it.
	if err := validateTau(tau); err != nil {
		return nil, err
	}
	ps, err := CompletePairSims(ctx, sp, 0)
	if err != nil {
		return nil, err
	}
	return AgglomerativeSparse(ctx, sp, link, tau, ps, SparseOptions{})
}

// assembleResult turns a union-find parent forest and merge trace into a
// Result with dense, first-occurrence-ordered cluster ids.
func assembleResult(n int, parent []int, merges []Merge) *Result {
	root := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	idOf := make(map[int]int)
	res := &Result{Assign: make([]int, n), Merges: merges}
	for i := 0; i < n; i++ {
		r := root(i)
		id, ok := idOf[r]
		if !ok {
			id = len(res.Members)
			idOf[r] = id
			res.Members = append(res.Members, nil)
		}
		res.Assign[i] = id
		res.Members[id] = append(res.Members[id], i)
	}
	for _, m := range res.Members {
		sort.Ints(m)
	}
	return res
}

// FromAssignment builds a Result from a raw assignment vector (cluster ids
// need not be dense). Used by the non-hierarchical baselines.
func FromAssignment(assign []int) *Result {
	idOf := make(map[int]int)
	res := &Result{Assign: make([]int, len(assign))}
	for i, raw := range assign {
		id, ok := idOf[raw]
		if !ok {
			id = len(res.Members)
			idOf[raw] = id
			res.Members = append(res.Members, nil)
		}
		res.Assign[i] = id
		res.Members[id] = append(res.Members[id], i)
	}
	return res
}

// SchemaClusterSim computes s_c_sim(S_i, C_r): the average similarity
// between schema i and every member of cluster r (Section 4.3). Membership
// of i in r is handled like any other member (self-similarity contributes 1).
func SchemaClusterSim(sp *feature.Space, i int, members []int) float64 {
	if len(members) == 0 {
		return 0
	}
	sum := 0.0
	for _, j := range members {
		sum += sp.Similarity(i, j)
	}
	return sum / float64(len(members))
}

// validateTau rejects thresholds for which Algorithm 2's stop condition is
// meaningless: values outside [0,1] and NaN (which compares false against
// everything, so `s < tau` would never trip and every schema would merge
// into a single cluster).
func validateTau(tau float64) error {
	if math.IsNaN(tau) {
		return fmt.Errorf("cluster: tau is NaN")
	}
	if tau < 0 || tau > 1 {
		return fmt.Errorf("cluster: tau %v outside [0,1]", tau)
	}
	return nil
}
