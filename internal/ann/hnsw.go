// Package ann provides a pure-Go approximate-nearest-neighbor index —
// Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2016) —
// over unit-normalized float32 vectors under cosine similarity.
//
// The index exists to make the dense vectorizer backend's two-step shape
// cheap: embed-and-prune with an ANN shortlist, then verify the shortlist
// with the exact (term-space) similarity. Recall is therefore a quality
// knob, not a correctness requirement — every shortlisted candidate is
// re-scored exactly downstream — but the recall property test in this
// package keeps it ≥ 0.95 against an exhaustive scan so the verify step
// rarely misses the true answer.
//
// Everything is deterministic for a fixed Config: node levels come from a
// seeded hash of the node id (not a shared RNG), insertion is sequential in
// id order, and every tie (equal similarity) breaks toward the lower id.
// Two builds over the same vectors are structurally identical, which is
// what lets snapshot recovery re-fit an index instead of persisting it.
package ann

import (
	"fmt"
	"math"
	"slices"
)

// Config controls index construction and search defaults. The zero value
// of each field selects the documented default (there are no meaningful
// literal-zero settings for these knobs, so no negative escape hatch is
// needed — cf. the repo-wide zero-vs-default sentinel convention).
type Config struct {
	// M is the maximum number of neighbors kept per node per layer
	// (layer 0 keeps 2M, as in the paper). Default 16.
	M int
	// EfConstruction is the beam width used while inserting. Default 200.
	EfConstruction int
	// EfSearch is the default beam width for Search when the caller passes
	// ef <= 0. Default 64.
	EfSearch int
	// Seed perturbs the per-node level hash. Builds with equal seeds over
	// equal vectors are identical. 0 is a fixed, valid seed.
	Seed int64
}

func (c Config) normalized() Config {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	return c
}

// Result is one search hit: a vector id and its cosine similarity (dot
// product — the index requires unit-normalized inputs) to the query.
type Result struct {
	ID  int
	Sim float32
}

// Index is an immutable HNSW graph. Safe for concurrent Search use after
// Build returns.
type Index struct {
	cfg   Config
	dim   int
	vecs  [][]float32
	links [][][]int32 // links[id][layer] = neighbor ids
	entry int         // entry point: a node on the top layer
	top   int         // highest layer in the graph
	mL    float64     // level multiplier 1/ln(M)
}

// splitmix64 is the SplitMix64 finalizer, used to derive per-node levels
// deterministically from (seed, id).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// levelOf draws node id's level from the geometric distribution
// floor(-ln(u) · mL) with u derived from a seeded hash of the id, so the
// level depends only on (seed, id) — never on insertion history.
func (ix *Index) levelOf(id int) int {
	h := splitmix64(uint64(ix.cfg.Seed)<<32 ^ uint64(id) ^ 0xa11ce5)
	// Map to (0,1]: never exactly 0 so the log is finite.
	u := (float64(h>>11) + 1) / float64(1<<53)
	l := int(-math.Log(u) * ix.mL)
	if l > 30 {
		l = 30
	}
	return l
}

// Dot returns the dot product of two equal-length vectors — the cosine
// similarity when both are unit-normalized.
func Dot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Build constructs the index over the given vectors (ids are slice
// positions). Vectors must share one dimensionality and should be
// unit-normalized; the all-zero vector is permitted (it is similarity 0 to
// everything and effectively unreachable by greedy search, which is the
// right behavior for an empty schema). The slice is retained, not copied.
func Build(vecs [][]float32, cfg Config) (*Index, error) {
	cfg = cfg.normalized()
	ix := &Index{
		cfg:   cfg,
		vecs:  vecs,
		links: make([][][]int32, len(vecs)),
		entry: -1,
		top:   -1,
		mL:    1 / math.Log(float64(cfg.M)),
	}
	if len(vecs) == 0 {
		return ix, nil
	}
	ix.dim = len(vecs[0])
	for i, v := range vecs {
		if len(v) != ix.dim {
			return nil, fmt.Errorf("ann: vector %d has dim %d, want %d", i, len(v), ix.dim)
		}
	}
	for i := range vecs {
		ix.insert(i)
	}
	return ix, nil
}

// insert adds node id using the standard HNSW descent: greedy search on
// layers above the node's level, beam search (efConstruction) on the rest,
// bidirectional linking with neighbor-list pruning to the per-layer cap.
func (ix *Index) insert(id int) {
	level := ix.levelOf(id)
	ix.links[id] = make([][]int32, level+1)

	if ix.entry < 0 {
		ix.entry, ix.top = id, level
		return
	}

	q := ix.vecs[id]
	ep := ix.entry
	// Greedy single-path descent through layers above the new node's level.
	for l := ix.top; l > level; l-- {
		ep = ix.greedy(q, ep, l)
	}
	// Beam search and linking from min(level, top) down to 0.
	startL := level
	if startL > ix.top {
		startL = ix.top
	}
	for l := startL; l >= 0; l-- {
		cands := ix.searchLayer(q, ep, ix.cfg.EfConstruction, l)
		m := ix.maxLinks(l)
		chosen := ix.selectHeuristic(q, cands, m, id)
		ix.links[id][l] = chosen
		for _, nb := range chosen {
			ix.linkBack(int(nb), id, l)
		}
		if len(cands) > 0 {
			ep = cands[0].ID // best candidate seeds the next layer down
		}
	}
	if level > ix.top {
		ix.entry, ix.top = id, level
	}
}

// maxLinks is the neighbor cap per layer: 2M on layer 0, M above.
func (ix *Index) maxLinks(layer int) int {
	if layer == 0 {
		return 2 * ix.cfg.M
	}
	return ix.cfg.M
}

// selectHeuristic is Algorithm 4 of the HNSW paper, in similarity form: a
// candidate is kept only if it is more similar to q than to every
// already-kept neighbor. Plain "closest m" fails on clustered corpora —
// every neighbor lands inside the candidate's own cluster, clusters become
// cliques, and greedy search cannot cross between them; the heuristic
// preserves the long-range links that keep the graph navigable. Discarded
// candidates backfill unused slots (keepPrunedConnections), so well-
// separated corpora still get full-degree nodes. cands must be sorted
// best-first; self is excluded.
func (ix *Index) selectHeuristic(q []float32, cands []Result, m, self int) []int32 {
	out := make([]int32, 0, m)
	var pruned []int32
	for _, c := range cands {
		if c.ID == self {
			continue
		}
		if len(out) == m {
			break
		}
		keep := true
		for _, s := range out {
			if Dot(ix.vecs[c.ID], ix.vecs[s]) > c.Sim {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, int32(c.ID))
		} else {
			pruned = append(pruned, int32(c.ID))
		}
	}
	for _, p := range pruned {
		if len(out) == m {
			break
		}
		out = append(out, p)
	}
	return out
}

// linkBack adds newNb to node's layer-l neighbor list; when the list
// overflows the cap it is re-selected with the same diversity heuristic
// used at insertion (sorted best-first first, ties toward lower id).
func (ix *Index) linkBack(node, newNb, l int) {
	lst := append(ix.links[node][l], int32(newNb))
	m := ix.maxLinks(l)
	if len(lst) > m {
		v := ix.vecs[node]
		cands := make([]Result, len(lst))
		for i, nb := range lst {
			cands[i] = Result{ID: int(nb), Sim: Dot(v, ix.vecs[nb])}
		}
		slices.SortFunc(cands, compareResults)
		lst = ix.selectHeuristic(v, cands, m, node)
	}
	ix.links[node][l] = lst
}

// greedy walks layer l from ep to a local similarity maximum for q.
func (ix *Index) greedy(q []float32, ep, l int) int {
	cur := ep
	curSim := Dot(q, ix.vecs[cur])
	for {
		improved := false
		for _, nb := range ix.links[cur][l] {
			if s := Dot(q, ix.vecs[nb]); s > curSim {
				cur, curSim, improved = int(nb), s, true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer runs a best-first beam of width ef on layer l starting at ep
// and returns the visited ef best results sorted best-first (tie → lower
// id). It is the workhorse of both insertion and query search.
func (ix *Index) searchLayer(q []float32, ep, ef, l int) []Result {
	visited := map[int]bool{ep: true}
	epSim := Dot(q, ix.vecs[ep])
	// cand: max-heap by sim; res: min-heap by sim, capped at ef.
	cand := resultHeap{less: betterThan}
	res := resultHeap{less: worseThan}
	cand.push(Result{ID: ep, Sim: epSim})
	res.push(Result{ID: ep, Sim: epSim})

	for cand.len() > 0 {
		c := cand.pop()
		if res.len() >= ef && worseOrEqual(c, res.peek()) {
			break
		}
		for _, nb := range ix.links[c.ID][l] {
			n := int(nb)
			if visited[n] {
				continue
			}
			visited[n] = true
			s := Dot(q, ix.vecs[n])
			r := Result{ID: n, Sim: s}
			if res.len() < ef || betterThan(r, res.peek()) {
				cand.push(r)
				res.push(r)
				if res.len() > ef {
					res.pop()
				}
			}
		}
	}
	out := res.items
	slices.SortFunc(out, compareResults)
	return out
}

// Search returns the k highest-similarity indexed vectors for q, best
// first (ties toward the lower id). ef <= 0 selects Config.EfSearch;
// larger ef trades latency for recall. Search never returns more than the
// number of indexed vectors.
func (ix *Index) Search(q []float32, k, ef int) []Result {
	if ix.entry < 0 || k <= 0 {
		return nil
	}
	if ef <= 0 {
		ef = ix.cfg.EfSearch
	}
	if ef < k {
		ef = k
	}
	ep := ix.entry
	for l := ix.top; l > 0; l-- {
		ep = ix.greedy(q, ep, l)
	}
	out := ix.searchLayer(q, ep, ef, 0)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.vecs) }

// BruteForce returns the exact k highest-similarity vectors for q by
// exhaustive scan — the reference the recall tests (and any caller wanting
// certainty on a small corpus) compare against. Ordering matches Search's:
// descending similarity, ties toward the lower id.
func BruteForce(vecs [][]float32, q []float32, k int) []Result {
	if k <= 0 {
		return nil
	}
	out := make([]Result, 0, len(vecs))
	for i, v := range vecs {
		out = append(out, Result{ID: i, Sim: Dot(q, v)})
	}
	slices.SortFunc(out, compareResults)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// betterThan orders results descending by similarity, ties toward the
// lower id — the single ordering every code path in this package uses.
func betterThan(a, b Result) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.ID < b.ID
}

// compareResults is betterThan for slices.SortFunc. Ids are unique within
// every sorted list, so the order is total and needs no stable sort.
func compareResults(a, b Result) int {
	switch {
	case betterThan(a, b):
		return -1
	case betterThan(b, a):
		return 1
	}
	return 0
}

func worseThan(a, b Result) bool    { return betterThan(b, a) }
func worseOrEqual(a, b Result) bool { return !betterThan(a, b) }

// resultHeap is a small binary heap over Results with a pluggable order;
// less(parent, child) holds for every edge.
type resultHeap struct {
	items []Result
	less  func(a, b Result) bool
}

func (h *resultHeap) len() int     { return len(h.items) }
func (h *resultHeap) peek() Result { return h.items[0] }

func (h *resultHeap) push(r Result) {
	h.items = append(h.items, r)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.less(h.items[p], h.items[i]) {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *resultHeap) pop() Result {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.items) && h.less(h.items[l], h.items[best]) {
			best = l
		}
		if r < len(h.items) && h.less(h.items[r], h.items[best]) {
			best = r
		}
		if best == i {
			return top
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}
