package cluster

import (
	"schemaflow/internal/bitvec"
	"schemaflow/internal/feature"
)

// oracleAgglomerative is Algorithm 2 written from its definition, the
// reference the one engine is compared against with ==. Every round it
// recomputes the c_sim of every pair of live clusters from the member
// schemas, picks the maximum with the lowest (a, b) breaking ties, and stops
// once that maximum is below tau. Nothing survives a round but the partition
// and its dendrogram: no value carried between rounds, no best-edge cache, no
// adjacency. It costs O(n²) or more per round, so it is for corpora of a few
// hundred schemas.
func oracleAgglomerative(sp *feature.Space, method Method, tau float64) *Result {
	n := sp.NumSchemas()
	// live[r] is the cluster whose lowest schema is r; nil once r has been
	// merged into a lower cluster.
	live := make([]*oracleCluster, n)
	rep := make([]int, n)
	for i := range live {
		live[i] = &oracleCluster{members: []int{i}}
		rep[i] = i
	}
	var merges []Merge
	for round := 1; ; round++ {
		csim := oracleLinkage(sp, method, live)
		ba, bb, bs := -1, -1, -1.0
		for a := 0; a < n; a++ {
			if live[a] == nil {
				continue
			}
			for b := a + 1; b < n; b++ {
				if live[b] == nil {
					continue
				}
				// Strict > over ascending (a, b) keeps the lowest pair.
				if s := csim(a, b); s > bs {
					ba, bb, bs = a, b, s
				}
			}
		}
		if ba < 0 || bs < tau {
			break
		}
		merges = append(merges, Merge{A: ba, B: bb, Sim: bs})
		for _, i := range live[bb].members {
			rep[i] = ba
		}
		live[ba] = &oracleCluster{
			members: append(append([]int{}, live[ba].members...), live[bb].members...),
			left:    live[ba],
			right:   live[bb],
			born:    round,
		}
		live[bb] = nil
	}
	res := FromAssignment(rep)
	res.Merges = merges
	return res
}

// oracleCluster is a live cluster: its member schemas and, for the average
// linkage, the dendrogram node it is (a leaf has no children and born 0).
type oracleCluster struct {
	members     []int
	left, right *oracleCluster
	born        int
}

// vectorOf is schema i's feature vector F^i, dense, written from its set
// bits.
func vectorOf(sp *feature.Space, i int) *bitvec.Vector {
	v := bitvec.New(sp.Dim())
	for _, b := range sp.Bits(i) {
		v.Set(int(b))
	}
	return v
}

// vectorJaccard is |andA ∩ andB| / |orA ∪ orB|, counted on copies, or 0 when
// the union is empty: Total Jaccard of two clusters given each one's AND and
// OR, and the Jaccard coefficient of two vectors passed twice each.
func vectorJaccard(andA, andB, orA, orB *bitvec.Vector) float64 {
	or := orA.Clone()
	or.InPlaceOr(orB)
	u := or.Count()
	if u == 0 {
		return 0
	}
	and := andA.Clone()
	and.InPlaceAnd(andB)
	return float64(and.Count()) / float64(u)
}

// oracleLinkage returns this round's c_sim over the live clusters.
func oracleLinkage(sp *feature.Space, method Method, live []*oracleCluster) func(a, b int) float64 {
	switch method {
	case AvgJaccard:
		return func(a, b int) float64 { return orderedAvg(sp, live[a], live[b]) }
	case TotalJaccard:
		// |AND over all members| / |OR over all members|; the per-cluster
		// halves are rebuilt from the member vectors every round so a pair
		// costs two popcounts instead of |a|+|b| clones.
		and := make([]*bitvec.Vector, len(live))
		or := make([]*bitvec.Vector, len(live))
		for r, c := range live {
			if c == nil {
				continue
			}
			and[r], or[r] = vectorOf(sp, c.members[0]), vectorOf(sp, c.members[0])
			for _, i := range c.members[1:] {
				and[r].InPlaceAnd(vectorOf(sp, i))
				or[r].InPlaceOr(vectorOf(sp, i))
			}
		}
		return func(a, b int) float64 { return vectorJaccard(and[a], and[b], or[a], or[b]) }
	default:
		return func(a, b int) float64 { return fromScratch(sp, method, live[a].members, live[b].members) }
	}
}

// orderedAvg is the average member-pair similarity of two clusters, summed
// in dendrogram order: the later-formed cluster is split into the two it was
// merged from and their averages are combined by size, down to schema pairs.
// The plain sum Σ s_sim / (|a|·|b|) is the same number only up to rounding —
// on DW∪SS it differs from the engine in the last bit of 15 of 154 merge
// similarities, and on Large{N:1500} the difference flips a merge sitting
// exactly at τ = 0.25 — so == needs the association order pinned. That plain
// sum is what TestPropertyGreedyMaxAndThreshold checks, to a tolerance —
// and for this linkage that check is the one that is independent of the
// engine: combining the halves by size is the engine's own update rule, only
// evaluated top-down from the schema pairs instead of carried round to round.
// The min, max and total oracles share no rule with it.
func orderedAvg(sp *feature.Space, x, y *oracleCluster) float64 {
	if x.left == nil && y.left == nil {
		return sp.Similarity(x.members[0], y.members[0])
	}
	if x.born < y.born {
		x, y = y, x
	}
	l, r := len(x.left.members), len(x.right.members)
	return (float64(l)*orderedAvg(sp, x.left, y) + float64(r)*orderedAvg(sp, x.right, y)) / float64(l+r)
}
