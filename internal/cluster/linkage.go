package cluster

import (
	"fmt"

	"schemaflow/internal/bitvec"
	"schemaflow/internal/feature"
)

// Linkage defines a cluster-to-cluster similarity measure c_sim together
// with its incremental merge rule. The four measures evaluated in Section
// 6.2 are provided: Avg, Min, Max, and Total Jaccard.
//
// A Linkage is stateful (Total Jaccard tracks per-cluster intersection and
// union vectors) and therefore not safe for concurrent clustering runs;
// construct one per run via NewLinkage.
type Linkage interface {
	// Name identifies the measure in experiment output.
	Name() string
	// init prepares per-cluster state for the singleton clusters of sp.
	init(sp *feature.Space)
	// merged returns c_sim(c, a∪b) given simCA = c_sim(c, a),
	// simCB = c_sim(c, b), and the current sizes of a and b. The cluster
	// ids are supplied for stateful linkages.
	merged(simCA, simCB float64, sizeA, sizeB int, c, a, b int) float64
	// onMerge notifies the linkage that b has been folded into a.
	onMerge(a, b int)
	// concurrentMerged reports whether merged and onMerge may be called from
	// several goroutines at once, each working on clusters no other touches:
	// the engine agglomerates independent components side by side when they
	// may, and one after another for a linkage with shared scratch state.
	concurrentMerged() bool
	// edgeFloor returns the largest f such that a run stopping at tau never
	// merges two clusters unless some stored schema pair across them has
	// similarity >= f. The engine agglomerates the connected components of
	// the graph of stored pairs >= f independently (see
	// AgglomerativeSparse); any lower value is also correct and only makes the
	// components coarser.
	edgeFloor(tau float64) float64
}

// avgRoundingSlack is how far, relatively, a computed Avg Jaccard c_sim can
// exceed the largest schema-pair similarity under it. Over the reals it
// cannot; in float64 the weighted-average update can round up — (1·0.1 +
// 2·0.1)/3 is the float above 0.1 — by at most three roundings per update
// of an edge's value, and an edge between two clusters is updated once per
// merge on either side, fewer than 2³¹ times with int32 ids:
// (1+2⁻⁵³)^(3·2³¹) − 1 < 2⁻²⁰.
const avgRoundingSlack = 1.0 / (1 << 20)

// Method enumerates the built-in linkage measures.
type Method int

// The four cluster-to-cluster similarity measures of Section 6.1.2.
const (
	AvgJaccard Method = iota
	MinJaccard
	MaxJaccard
	TotalJaccard
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case AvgJaccard:
		return "avg-jaccard"
	case MinJaccard:
		return "min-jaccard"
	case MaxJaccard:
		return "max-jaccard"
	case TotalJaccard:
		return "total-jaccard"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all built-in methods in the order the thesis presents them.
func Methods() []Method {
	return []Method{MinJaccard, MaxJaccard, AvgJaccard, TotalJaccard}
}

// ParseMethod converts a CLI-style name ("avg-jaccard", "avg", ...) to a
// Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "avg-jaccard", "avg", "average":
		return AvgJaccard, nil
	case "min-jaccard", "min", "single":
		return MinJaccard, nil
	case "max-jaccard", "max", "complete":
		return MaxJaccard, nil
	case "total-jaccard", "total":
		return TotalJaccard, nil
	default:
		return 0, fmt.Errorf("cluster: unknown linkage %q", s)
	}
}

// NewLinkage constructs a fresh Linkage for one clustering run.
func NewLinkage(m Method) Linkage {
	switch m {
	case AvgJaccard:
		return &avgLinkage{}
	case MinJaccard:
		return &minLinkage{}
	case MaxJaccard:
		return &maxLinkage{}
	case TotalJaccard:
		return &totalLinkage{}
	default:
		panic("cluster: unknown method " + m.String())
	}
}

// avgLinkage is the thesis default (Section 4.2): the average of the
// pairwise schema similarities across the two clusters. The merge update is
// the weighted average
//
//	c_sim(c, a∪b) = (|a|·c_sim(c,a) + |b|·c_sim(c,b)) / (|a|+|b|)
type avgLinkage struct{}

func (*avgLinkage) Name() string           { return "avg-jaccard" }
func (*avgLinkage) init(sp *feature.Space) {}
func (*avgLinkage) onMerge(a, b int)       {}
func (*avgLinkage) concurrentMerged() bool { return true }

// edgeFloor: an average of non-negative numbers is at most their maximum, so
// a c_sim >= tau has a pair >= tau under it — up to the rounding of the
// incremental update, which the slack covers.
func (*avgLinkage) edgeFloor(tau float64) float64 { return tau - tau*avgRoundingSlack }
func (*avgLinkage) merged(simCA, simCB float64, sizeA, sizeB int, c, a, b int) float64 {
	return (float64(sizeA)*simCA + float64(sizeB)*simCB) / float64(sizeA+sizeB)
}

// minLinkage is Min. Jaccard: the minimum pairwise similarity (complete-link
// behavior in distance terms — note that with similarities the *minimum*
// similarity corresponds to complete linkage).
type minLinkage struct{}

func (*minLinkage) Name() string           { return "min-jaccard" }
func (*minLinkage) init(sp *feature.Space) {}
func (*minLinkage) onMerge(a, b int)       {}
func (*minLinkage) concurrentMerged() bool { return true }

// edgeFloor: the minimum over all member pairs (absent ones count 0) is at
// most any one of them, so at c_sim >= tau every pair is stored and >= tau.
func (*minLinkage) edgeFloor(tau float64) float64 { return tau }
func (*minLinkage) merged(simCA, simCB float64, sizeA, sizeB int, c, a, b int) float64 {
	if simCA < simCB {
		return simCA
	}
	return simCB
}

// maxLinkage is Max. Jaccard: the maximum pairwise similarity (single-link
// behavior).
type maxLinkage struct{}

func (*maxLinkage) Name() string           { return "max-jaccard" }
func (*maxLinkage) init(sp *feature.Space) {}
func (*maxLinkage) onMerge(a, b int)       {}
func (*maxLinkage) concurrentMerged() bool { return true }

// edgeFloor: c_sim is one of the stored pairs' similarities, exactly.
func (*maxLinkage) edgeFloor(tau float64) float64 { return tau }
func (*maxLinkage) merged(simCA, simCB float64, sizeA, sizeB int, c, a, b int) float64 {
	if simCA > simCB {
		return simCA
	}
	return simCB
}

// totalLinkage is Total Jaccard (Section 6.1.2): the number of features set
// in *every* schema of both clusters divided by the number of features set
// in *any* schema of either cluster. It maintains, per cluster, the AND and
// OR of the member feature vectors; a merge just ANDs/ORs them.
type totalLinkage struct {
	and []*bitvec.Vector
	or  []*bitvec.Vector
	// scratch buffers reused across merged calls to avoid per-pair
	// allocations in the O(n) merge-update loop.
	scratchAnd *bitvec.Vector
	scratchOr  *bitvec.Vector
}

func (*totalLinkage) Name() string { return "total-jaccard" }

// concurrentMerged is false: merged shares the two scratch vectors across
// calls, so the engine runs its components one after another.
func (*totalLinkage) concurrentMerged() bool { return false }

// edgeFloor is 0, any stored pair: merged reads the feature vectors, not the
// stored similarities — which need not be the binary Jaccard that bounds
// Total Jaccard from above (the §4.1 ablation stores term-frequency ones) —
// so no stored value rules a merge out. What does is absence: the engine
// only ever scores a cluster against the neighbors in the merging rows, so
// an edge between two clusters exists only where a stored pair does.
func (*totalLinkage) edgeFloor(tau float64) float64 { return 0 }

func (l *totalLinkage) init(sp *feature.Space) {
	n := sp.NumSchemas()
	l.and = make([]*bitvec.Vector, n)
	l.or = make([]*bitvec.Vector, n)
	for i := 0; i < n; i++ {
		v := bitvec.New(sp.Dim())
		for _, b := range sp.Bits(i) {
			v.Set(int(b))
		}
		l.and[i], l.or[i] = v, v.Clone()
	}
	l.scratchAnd = bitvec.New(sp.Dim())
	l.scratchOr = bitvec.New(sp.Dim())
}

func (l *totalLinkage) merged(simCA, simCB float64, sizeA, sizeB int, c, a, b int) float64 {
	// Intersection features must be present in every schema of c, a and b;
	// union features in any of them.
	l.scratchAnd.CopyFrom(l.and[c])
	l.scratchAnd.InPlaceAnd(l.and[a])
	l.scratchAnd.InPlaceAnd(l.and[b])
	l.scratchOr.CopyFrom(l.or[c])
	l.scratchOr.InPlaceOr(l.or[a])
	l.scratchOr.InPlaceOr(l.or[b])
	u := l.scratchOr.Count()
	if u == 0 {
		return 0
	}
	return float64(l.scratchAnd.Count()) / float64(u)
}

func (l *totalLinkage) onMerge(a, b int) {
	l.and[a].InPlaceAnd(l.and[b])
	l.or[a].InPlaceOr(l.or[b])
}
