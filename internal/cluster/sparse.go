package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"schemaflow/internal/candgen"
	"schemaflow/internal/feature"
)

// PairSims holds exact pairwise similarities for a set of schema pairs,
// stored symmetrically in CSR form. Pairs absent from the structure are
// treated as zero-similarity everywhere downstream (linkage updates, domain
// assignment). Zero-similarity pairs are dropped during construction — they
// are indistinguishable from absent pairs.
//
// A PairSims is immutable once its constructor (CompletePairSims or
// PairwiseSims) returns and safe for concurrent readers.
type PairSims struct {
	n        int
	rowStart []int64
	nbr      []int32
	sim      []float64
	numPairs int
	examined int
}

// N returns the number of schemas covered.
func (ps *PairSims) N() int { return ps.n }

// NumPairs returns the number of stored (positive-similarity) pairs.
func (ps *PairSims) NumPairs() int { return ps.numPairs }

// Examined returns the number of positive pairs CompletePairSims read off
// the space, those below its floor included; it is 0 on a PairwiseSims
// result.
func (ps *PairSims) Examined() int { return ps.examined }

// Degree returns the number of stored neighbors of schema i.
func (ps *PairSims) Degree(i int) int {
	return int(ps.rowStart[i+1] - ps.rowStart[i])
}

// Row returns schema i's stored neighbors, ascending, and their
// similarities: slices of the structure, which the caller must not write.
func (ps *PairSims) Row(i int) ([]int32, []float64) {
	lo, hi := ps.rowStart[i], ps.rowStart[i+1]
	return ps.nbr[lo:hi], ps.sim[lo:hi]
}

// Sim returns the stored similarity of (i, j), or 0 when the pair is
// absent.
func (ps *PairSims) Sim(i, j int) float64 {
	lo, hi := ps.rowStart[i], ps.rowStart[i+1]
	row := ps.nbr[lo:hi]
	k := sort.Search(len(row), func(x int) bool { return row[x] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		return ps.sim[lo+int64(k)]
	}
	return 0
}

// PairwiseSims computes the exact schema similarity for every listed pair
// and assembles the symmetric sparse structure. No build calls it: the
// benchmark's trace replays the blocked build through it, from the pairs
// feature.TermVectorizer lists.
//
// pairs must be sorted (A ascending, then B) with A < B, as
// feature.TermVectorizer lists them; duplicates are tolerated and collapsed (a
// repeat is verified as 0, which drops it like a genuine zero); the caller's
// slice is never written. The pair list is cut into one contiguous chunk per
// worker (workers goroutines, 0 means GOMAXPROCS), and each chunk is
// validated, verified and counted, then written into the CSR through its own
// cursors — so the structure is the same for every worker count. ctx is
// polled during verification. In binary feature mode |A∩B| is a probe of A's
// vector at each set bit of B (bitvec.AndCountIndices): a handful of
// branch-free loads for schemas with a few set bits out of thousands, on a
// vector that stays in cache across the run of pairs sharing A. The
// similarity is inter/(|A|+|B|−inter) from the same integers as
// Vector.Jaccard's, so the same float64. Term-frequency mode falls back to
// the space's own pairwise measure.
func PairwiseSims(ctx context.Context, sp *feature.Space, pairs []candgen.Pair, workers int) (*PairSims, error) {
	n := sp.NumSchemas()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	binary := sp.Config().Mode == feature.Binary
	var idxLists [][]int32
	if binary {
		// All n set-bit lists live in one flat slab; per-schema slices are
		// carved at capacity-pinned offsets so workers fill them in place.
		offs := make([]int64, n+1)
		for i := 0; i < n; i++ {
			offs[i+1] = offs[i] + int64(sp.Vectors[i].Count())
		}
		flat := make([]int32, offs[n])
		idxLists = make([][]int32, n)
		if err := parallelRange(ctx, n, workers, func(_, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if i%1024 == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				idxLists[i] = sp.Vectors[i].IndicesAppend32(flat[offs[i]:offs[i]:offs[i+1]])
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	sims := make([]float64, len(pairs))
	// A chunk's tallies, then its cursors; parallelRange may cut fewer chunks
	// than this, and an unused one tallies nothing.
	degs := make([][]int64, min(workers, len(pairs)))
	for w := range degs {
		degs[w] = make([]int64, n)
	}
	if err := parallelRange(ctx, len(pairs), workers, func(w, lo, hi int) error {
		deg := degs[w]
		for k := lo; k < hi; k++ {
			if k%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			p := pairs[k]
			if p.A >= p.B || p.A < 0 || int(p.B) >= n {
				return fmt.Errorf("cluster: candidate pair (%d,%d) invalid for n=%d", p.A, p.B, n)
			}
			if k > 0 {
				prev := pairs[k-1]
				if p == prev {
					continue
				}
				if p.A < prev.A || (p.A == prev.A && p.B < prev.B) {
					return fmt.Errorf("cluster: candidate pairs not sorted at index %d", k)
				}
			}
			if binary {
				a, b := idxLists[p.A], idxLists[p.B]
				inter := sp.Vectors[p.A].AndCountIndices(b)
				if union := len(a) + len(b) - inter; union != 0 {
					sims[k] = float64(inter) / float64(union)
				}
			} else {
				sims[k] = sp.Similarity(int(p.A), int(p.B))
			}
			count(deg, p.A, p.B, sims[k])
		}
		return nil
	}); err != nil {
		return nil, err
	}

	ps := newPairSims(n)
	ps.alloc(degs)
	if err := parallelRange(ctx, len(pairs), workers, func(w, lo, hi int) error {
		for k := lo; k < hi; k++ {
			ps.put(degs[w], pairs[k].A, pairs[k].B, sims[k])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return ps, nil
}

// CompletePairSims stores the similarity of every schema pair of sp that is
// positive and at least floor. With floor ≤ 0 that is every positive pair,
// over which AgglomerativeSparse and core.AssignDomainsSparse are the
// thesis' exact Algorithms 2 and 3; the blocked build passes
// feature.PairFloor. Only the positive pairs are ever visited: each
// schema's upper row comes off feature.Space.Row, a pair it leaves out has
// similarity exactly 0, and the floor drops pairs from the row before they
// are counted. The rows are cut into one contiguous chunk per GOMAXPROCS
// worker, sized to hold about equal shares of the upper triangle; a chunk
// keeps its rows until every chunk has counted, then writes them into the
// CSR through its own cursors, so the structure is the same for every worker
// count. ctx is polled between rows.
func CompletePairSims(ctx context.Context, sp *feature.Space, floor float64) (*PairSims, error) {
	n := sp.NumSchemas()
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	bounds := make([]int, workers+1)
	for w := 1; w <= workers; w++ {
		// Rows [0, r) hold a share 1 − (1 − r/n)² of the triangle.
		bounds[w] = n - int(float64(n)*math.Sqrt(1-float64(w)/float64(workers)))
	}
	// A chunk holds its rows' entries in pages, with no row split across
	// two, so none is copied before it reaches the CSR.
	const page = 1 << 15
	type chunk struct {
		deg      []int64
		lens     []int32 // lens[i-lo]: row i's entry count
		nbr      [][]int32
		sim      [][]float64
		examined int
	}
	chunks := make([]chunk, workers)
	if err := parallelChunks(bounds, func(w, lo, hi int) error {
		c := &chunks[w]
		c.deg, c.lens = make([]int64, n), make([]int32, 0, hi-lo)
		var buf feature.RowBuf
		for i := lo; i < hi; i++ {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			js, sims := sp.Row(i, i, &buf)
			c.examined += len(js)
			js, sims = filterRow(js, sims, floor)
			c.deg[i] += int64(len(js))
			for _, j := range js {
				c.deg[j]++
			}
			c.lens = append(c.lens, int32(len(js)))
			if len(js) == 0 {
				continue
			}
			p := len(c.nbr) - 1
			if p < 0 || len(c.nbr[p])+len(js) > cap(c.nbr[p]) {
				p++
				c.nbr = append(c.nbr, make([]int32, 0, max(page, len(js))))
				c.sim = append(c.sim, make([]float64, 0, max(page, len(js))))
			}
			c.nbr[p], c.sim[p] = append(c.nbr[p], js...), append(c.sim[p], sims...)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	degs := make([][]int64, workers)
	ps := newPairSims(n)
	for w := range chunks {
		degs[w] = chunks[w].deg
		ps.examined += chunks[w].examined
	}
	ps.alloc(degs)
	if err := parallelChunks(bounds, func(w, lo, hi int) error {
		c, p, k := &chunks[w], 0, 0
		for i := lo; i < hi; i++ {
			l := int(c.lens[i-lo])
			if l > 0 && k+l > len(c.nbr[p]) {
				p, k = p+1, 0
			}
			for end := k + l; k < end; k++ {
				ps.put(c.deg, int32(i), c.nbr[p][k], c.sim[p][k])
			}
		}
		*c = chunk{}
		return nil
	}); err != nil {
		return nil, err
	}
	return ps, nil
}

// GraphRow is schema i's row of the pair graph CompletePairSims(sp, floor)
// stores, read off the space instead: its neighbors j ≠ i, ascending, and
// their similarities, the same float64s. The slices live in buf, as
// feature.Space.Row's do.
func GraphRow(sp *feature.Space, i int, floor float64, buf *feature.RowBuf) ([]int32, []float64) {
	js, sims := sp.Row(i, -1, buf)
	return filterRow(js, sims, floor)
}

// filterRow keeps, in place, the entries of a row whose similarity is at
// least floor. A floor ≤ 0 keeps the row as it is: Space.Row lists only
// positive similarities.
func filterRow(js []int32, sims []float64, floor float64) ([]int32, []float64) {
	if floor <= 0 {
		return js, sims
	}
	k := 0
	for x, s := range sims {
		if s >= floor {
			js[k], sims[k] = js[x], s
			k++
		}
	}
	return js[:k], sims[:k]
}

// newPairSims starts the assembly of a symmetric CSR over n schemas from a
// stream of (a < b, sim) triples in (a, b) order, cut into one or more
// consecutive chunks. Each chunk is streamed twice: count tallies the entries
// each row receives from the chunk into the chunk's own deg, alloc turns the
// tallies into every chunk's write cursors, and put fills through them — so
// chunks can be filled concurrently. Zero similarities are dropped by both
// passes.
func newPairSims(n int) *PairSims {
	return &PairSims{n: n, rowStart: make([]int64, n+1)}
}

func count(deg []int64, a, b int32, s float64) {
	if s != 0 {
		deg[a]++
		deg[b]++
	}
}

// alloc sizes the rows from the chunks' tallies, in chunk order, and leaves
// each chunk's deg[i] at the slot of row i that the chunk's first entry
// into it takes.
func (ps *PairSims) alloc(degs [][]int64) {
	pos := int64(0)
	for i := 0; i < ps.n; i++ {
		for _, deg := range degs {
			deg[i], pos = pos, pos+deg[i]
		}
		ps.rowStart[i+1] = pos
	}
	ps.numPairs = int(pos / 2)
	ps.nbr = make([]int32, pos)
	ps.sim = make([]float64, pos)
}

// put appends the pair to both rows at the chunk's cursors cur. Rows come out
// sorted by construction: row i receives its B-side neighbors first (pairs
// (a, i) with a < i, streamed in ascending a) and its A-side neighbors after
// (pairs (i, b), ascending b > i), so the stream visits a row's entries in
// ascending order — and alloc lays the chunks' shares of a row out in stream
// order too.
func (ps *PairSims) put(cur []int64, a, b int32, s float64) {
	if s == 0 {
		return
	}
	ka, kb := cur[a], cur[b]
	ps.nbr[ka], ps.sim[ka] = b, s
	ps.nbr[kb], ps.sim[kb] = a, s
	cur[a], cur[b] = ka+1, kb+1
}

// parallelRange splits [0,n) into at most workers contiguous chunks, w-th
// chunk [lo,hi), runs fn on each concurrently and returns the first error.
func parallelRange(ctx context.Context, n, workers int, fn func(w, lo, hi int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	workers = min(workers, n)
	chunk := (n + workers - 1) / workers
	bounds := []int{0}
	for hi := chunk; bounds[len(bounds)-1] < n; hi += chunk {
		bounds = append(bounds, min(hi, n))
	}
	return parallelChunks(bounds, fn)
}

// parallelChunks runs fn on every chunk [bounds[w], bounds[w+1]), each on its
// own goroutine when there are several, and returns the first error by chunk.
func parallelChunks(bounds []int, fn func(w, lo, hi int) error) error {
	if len(bounds) <= 2 {
		return fn(0, bounds[0], bounds[len(bounds)-1])
	}
	errs := make([]error, len(bounds)-1)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w, bounds[w], bounds[w+1])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SparseOptions tunes AgglomerativeSparse.
type SparseOptions struct {
	// Workers bounds the goroutines that agglomerate independent components
	// side by side (see AgglomerativeSparse). 0 means GOMAXPROCS. Results are
	// identical for every worker count: each component's merges are its own,
	// and their interleaving is decided by the merges, not by arrival order.
	Workers int
}

// bestHeap is an indexed max-heap with one slot per live cluster, keyed by
// the cluster's best outgoing edge (its highest current similarity, with
// the lexicographically smallest pair breaking similarity ties). The heap
// top is therefore always the globally best pair — the same pair a heap
// over every edge would surface — at a fraction of the traffic: merges
// update a handful of slots in place instead of pushing one entry per
// rewritten edge.
//
// Keys are maintained as exact values or overestimates, never
// underestimates: similarity increases update a slot eagerly, decreases
// just mark it dirty and are reconciled (refreshBest) when the slot
// reaches the top. An overestimate popping early is harmless — it gets
// refreshed and re-sifted — whereas an underestimate could let a worse
// pair merge first, so the asymmetry is load-bearing.
type bestHeap struct {
	sim     []float64 // best edge similarity; -1 when the cluster has none
	partner []int32   // best edge partner; -1 when the cluster has none
	dirty   []bool    // sim may overestimate; refresh before merging on it
	ids     []int32   // heap order over cluster ids
	pos     []int32   // cluster id -> index in ids; -1 once removed
}

func newBestHeap(n int) *bestHeap {
	h := &bestHeap{
		sim:     make([]float64, n),
		partner: make([]int32, n),
		dirty:   make([]bool, n),
		ids:     make([]int32, n),
		pos:     make([]int32, n),
	}
	for i := 0; i < n; i++ {
		h.sim[i] = -1
		h.partner[i] = -1
		h.ids[i] = int32(i)
		h.pos[i] = int32(i)
	}
	return h
}

// orderedPair returns cluster x's best edge as an (a < b) pair; slots with
// no edge order as the degenerate (x, x).
func orderedPair(x, p int32) (int32, int32) {
	if p < 0 {
		return x, x
	}
	if p < x {
		return p, x
	}
	return x, p
}

func (h *bestHeap) less(x, y int32) bool {
	if h.sim[x] != h.sim[y] {
		return h.sim[x] > h.sim[y]
	}
	ax, bx := orderedPair(x, h.partner[x])
	ay, by := orderedPair(y, h.partner[y])
	if ax != ay {
		return ax < ay
	}
	if bx != by {
		return bx < by
	}
	// Fully equal keys only happen for the two slots of one pair (or two
	// empty slots); any deterministic order works.
	return x < y
}

func (h *bestHeap) swap(i, j int32) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = i
	h.pos[h.ids[j]] = j
}

func (h *bestHeap) siftUp(i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.ids[i], h.ids[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *bestHeap) siftDown(i int32) {
	n := int32(len(h.ids))
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.ids[l], h.ids[m]) {
			m = l
		}
		if r < n && h.less(h.ids[r], h.ids[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// fix restores the heap order after cluster c's key changed either way.
func (h *bestHeap) fix(c int32) {
	h.siftUp(h.pos[c])
	h.siftDown(h.pos[c])
}

// build heapifies in O(n) after the initial keys are assigned.
func (h *bestHeap) build() {
	for i := int32(len(h.ids))/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// remove deletes cluster c's slot (it lost a merge and no longer exists).
func (h *bestHeap) remove(c int32) {
	i := h.pos[c]
	last := int32(len(h.ids) - 1)
	if i != last {
		h.swap(i, last)
	}
	h.ids = h.ids[:last]
	h.pos[c] = -1
	if i != last {
		h.siftUp(i)
		h.siftDown(h.pos[h.ids[i]])
	}
}

func (h *bestHeap) top() int32 { return h.ids[0] }

// AgglomerativeSparse runs Algorithm 2 over a pair-similarity adjacency:
// start from singleton clusters, repeatedly merge the globally most similar
// pair of clusters under the linkage (the lexicographically lowest pair on
// equal similarity), and stop when the best similarity falls below tau.
// Schema pairs absent from ps are zero-similarity: they contribute 0 to
// linkage updates and never order a merge. Over CompletePairSims at floor 0
// this is the thesis' exact clustering; above it the result differs only by
// the pairs below the floor.
//
// Zero-similarity merges clear the threshold only at tau == 0, where
// agglomeration runs until a single cluster remains. They carry no
// information to order them by, so they come last, after every
// positive-similarity merge, in index order: the lowest remaining cluster
// absorbs the others ascending, each recorded at Sim 0 — the order the
// lowest-pair tie rule gives when every remaining similarity is 0.
//
// ps is only read: the run works on its own copy of the rows, so a caller can
// hand the same pairs to Algorithm 3 afterwards.
//
// The "globally best pair" loop is run once per connected component of the
// graph of stored pairs at or above link.edgeFloor(tau), over that
// component's rows alone. No merge crosses such a component (that is what
// edgeFloor promises), and c_sim between two clusters inside one is a
// function of the pairs inside it only, so each component's merges are the
// global run's merges among its schemas, in the global run's order and to the
// bit. The global run takes, every round, the best pair over all components —
// which is the best of the components' own next merges — so its trace is the
// merge of the per-component traces by their heads (interleave). Components
// are claimed largest first by up to opts.Workers goroutines; within one the
// loop is sequential, each round depending on the last. A corpus that is one
// component runs the same code on one goroutine. ctx is polled between
// components, every 4096 rows while one is loaded and every 1024 rounds.
func AgglomerativeSparse(ctx context.Context, sp *feature.Space, link Linkage, tau float64, ps *PairSims, opts SparseOptions) (*Result, error) {
	if err := validateTau(tau); err != nil {
		return nil, err
	}
	n := sp.NumSchemas()
	if ps.N() != n {
		return nil, fmt.Errorf("cluster: pair sims cover %d schemas, space has %d", ps.N(), n)
	}
	if n == 0 {
		return &Result{}, nil
	}
	link.init(sp)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if !link.concurrentMerged() {
		workers = 1
	}
	return components(ps, link.edgeFloor(tau)).agglomerate(ctx, link, tau, ps, workers)
}

// agglomerate is Algorithm 2 over ps given the groups no merge crosses:
// every group's own run, their traces interleaved, and the tau == 0 tail.
func (p *partition) agglomerate(ctx context.Context, link Linkage, tau float64, ps *PairSims, workers int) (*Result, error) {
	traces, err := p.traces(ctx, link, tau, ps, workers)
	if err != nil {
		return nil, err
	}
	merges := interleave(traces)

	n := ps.n
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	for _, m := range merges {
		parent[m.B] = m.A
	}
	if tau == 0 {
		// Every component has drained: the remaining cluster pairs are all at
		// similarity 0, which still clears tau.
		rep := -1
		for c := 0; c < n; c++ {
			if parent[c] != c {
				continue
			}
			if rep < 0 {
				rep = c
				continue
			}
			merges = append(merges, Merge{A: rep, B: c, Sim: 0})
			parent[c] = rep
		}
	}
	res := assembleResult(n, parent, merges)
	res.Components = len(p.members)
	for _, ids := range p.members {
		res.LargestComponent = max(res.LargestComponent, len(ids))
	}
	return res, nil
}

// partition splits the schemas into the groups Algorithm 2 runs on
// independently. Inside a group a schema goes by its rank among the group's
// members — a dense local id, and monotone in the schema index, so "the lowest
// pair wins a tie" means the same thing in either numbering.
type partition struct {
	comp    []int32   // schema -> group
	local   []int32   // schema -> local id
	members [][]int32 // group -> schemas ascending (local id -> schema)
}

// components partitions the schemas by connectivity over the stored pairs
// with similarity >= floor: one union-find pass over the upper triangle.
// Groups are numbered by their lowest schema. (The pass does not stop early
// when a single component is left: a schema joins at the row of its lowest
// strong neighbor, and on the one-component DDH the last does at row 2,284 of
// 2,323.)
func components(ps *PairSims, floor float64) *partition {
	n := ps.n
	root := make([]int32, n)
	for i := range root {
		root[i] = int32(i)
	}
	find := func(x int32) int32 {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	for i := int32(0); int(i) < n; i++ {
		ri := find(i)
		for k := ps.rowStart[i+1] - 1; k >= ps.rowStart[i] && ps.nbr[k] > i; k-- {
			if ps.sim[k] < floor {
				continue
			}
			rj := find(ps.nbr[k])
			if rj == ri {
				continue
			}
			// The lower root survives, so a group's root is its lowest schema.
			if rj < ri {
				ri, rj = rj, ri
			}
			root[rj] = ri
		}
	}

	p := &partition{comp: make([]int32, n), local: make([]int32, n)}
	var sizes []int32
	for i := int32(0); int(i) < n; i++ {
		r := find(i)
		if r == i {
			p.comp[i] = int32(len(sizes))
			sizes = append(sizes, 0)
		}
		c := p.comp[r]
		p.comp[i], p.local[i] = c, sizes[c]
		sizes[c]++
	}
	flat := make([]int32, n)
	p.members = make([][]int32, len(sizes))
	off := 0
	for c, sz := range sizes {
		p.members[c] = flat[off : off : off+int(sz)]
		off += int(sz)
	}
	for i := int32(0); int(i) < n; i++ {
		p.members[p.comp[i]] = append(p.members[p.comp[i]], i)
	}
	return p
}

// traces runs the engine on every group of two or more schemas and returns
// each group's merges, in its own merge order, by group index.
// Groups differ in size by orders of magnitude, so workers claim them one at a
// time from a shared counter, largest first; nothing a worker writes depends
// on which worker it is, and none outlives the call.
func (p *partition) traces(ctx context.Context, link Linkage, tau float64, ps *PairSims, workers int) ([][]Merge, error) {
	order := make([]int, 0, len(p.members))
	for c, ids := range p.members {
		if len(ids) > 1 {
			order = append(order, c)
		}
	}
	slices.SortStableFunc(order, func(x, y int) int { return len(p.members[y]) - len(p.members[x]) })

	traces := make([][]Merge, len(p.members))
	var next atomic.Int64
	work := func() error {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(order) {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			st, err := newSparseState(ctx, link, ps, p, order[k])
			if err != nil {
				return err
			}
			if traces[order[k]], err = st.run(ctx, tau); err != nil {
				return err
			}
		}
	}
	// One worker is the caller itself.
	errs := make([]error, max(1, min(workers, len(order))))
	var wg sync.WaitGroup
	for w := range errs[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[1+w] = work()
		}()
	}
	errs[0] = work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// mergesBefore is the order Algorithm 2 takes merges in: higher similarity
// first, the lexicographically lowest pair on equal similarity — the heap's
// own key (bestHeap.less).
func mergesBefore(x, y Merge) bool {
	if x.Sim != y.Sim {
		return x.Sim > y.Sim
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// interleave merges the per-group traces into the one trace the global run
// records: every round, the first of the groups' next merges. It is a merge
// of heads and not a sort — a group's own trace need not be ordered: a merge
// can raise a similarity above the one just merged on (Total Jaccard), and
// can make a pair that is lexicographically lower than the last at the same
// similarity — and the global run meets a group's merges in the group's order
// whatever their keys.
func interleave(traces [][]Merge) []Merge {
	// heads is a binary heap of the unfinished traces, ordered by their first
	// remaining merge.
	var heads [][]Merge
	total := 0
	for _, t := range traces {
		if len(t) > 0 {
			heads = append(heads, t)
			total += len(t)
		}
	}
	switch len(heads) {
	case 0:
		return nil
	case 1:
		return heads[0]
	}
	siftDown := func(i int) {
		for {
			m := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(heads) && mergesBefore(heads[c][0], heads[m][0]) {
					m = c
				}
			}
			if m == i {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Merge, 0, total)
	for len(heads) > 0 {
		out = append(out, heads[0][0])
		if heads[0] = heads[0][1:]; len(heads[0]) == 0 {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(0)
	}
	return out
}

// newSparseState is one group's state before its first merge: singleton
// clusters under their local ids, each with its row of ps cut down to the
// neighbors inside the group and copied into the group's own slabs, and each
// cluster's best edge, heapified. link must already be initialised over the
// space.
func newSparseState(ctx context.Context, link Linkage, ps *PairSims, p *partition, c int) (*sparseState, error) {
	ids := p.members[c]
	n := len(ids)
	st := &sparseState{
		n:      n,
		link:   link,
		ids:    ids,
		active: make([]bool, n),
		size:   make([]int, n),
		rows:   make([]sparseRow, n),
		best:   newBestHeap(n),
		tailV:  make([]float64, n),
		inTail: make([]bool, n),
	}
	// Rows that outgrow their slots are carved from slabs of the group's own
	// scale: a slab of the full size per group, most of it never touched,
	// would be the largest allocation of a blocked build.
	degrees := 0
	for _, g := range ids {
		degrees += ps.Degree(int(g))
	}
	st.slabSize = min(degrees, sparseSlabSize)
	for i, g := range ids {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		st.active[i] = true
		st.size[i] = 1
		// CSR rows ascend by neighbor and the relabelling is monotone, so the
		// filtered row ascends, as rows must. Capacity is pinned at the new
		// row's length, so that a row outgrowing its slot reallocates instead
		// of running into the next one.
		lo, hi := ps.rowStart[g], ps.rowStart[g+1]
		keys, vals := st.carve(int(hi - lo))
		for k := lo; k < hi; k++ {
			if j := ps.nbr[k]; p.comp[j] == int32(c) {
				keys, vals = append(keys, p.local[j]), append(vals, ps.sim[k])
			}
		}
		keys, vals = st.uncarve(keys, vals)
		bs, bp := -1.0, int32(-1)
		for k, s := range vals {
			// Strict > on an ascending scan keeps the lowest partner,
			// which is the lexicographically smallest pair at this sim.
			if s > bs {
				bs, bp = s, keys[k]
			}
		}
		st.rows[i] = sparseRow{keys: keys, vals: vals}
		st.best.sim[i], st.best.partner[i] = bs, bp
	}
	st.best.build()
	return st, nil
}

// run is Algorithm 2's loop over one group: merge the best pair until the
// best falls below tau. The merges are returned in order, by schema index.
func (st *sparseState) run(ctx context.Context, tau float64) ([]Merge, error) {
	merges := make([]Merge, 0, st.n-1)
	for rounds := 1; len(merges) < st.n-1; rounds++ {
		if rounds%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		x := st.best.top()
		s := st.best.sim[x]
		if s < tau {
			// Keys never underestimate, so the max key clearing nothing
			// means no live pair clears tau. (Checking before staleness is
			// sound for the same reason: a stale key only overestimates.) A
			// drained heap reads -1 here.
			break
		}
		p := st.best.partner[x]
		if !st.active[p] || st.best.dirty[x] {
			st.refreshBest(x)
			continue
		}
		a, b := x, p
		if a > b {
			a, b = b, a
		}
		merges = append(merges, Merge{A: int(st.ids[a]), B: int(st.ids[b]), Sim: s})
		st.merge(a, b)
	}
	return merges, nil
}

// sparseState is the working state of one sparse agglomeration run.
type sparseState struct {
	n    int
	link Linkage
	// ids[i] is the schema that cluster i started as: clusters go by their
	// group-local ids everywhere but in the trace and in calls to the linkage.
	ids    []int32
	active []bool
	size   []int
	// rows[i] holds cluster i's current neighbor similarities. The
	// invariant is symmetry over active clusters: rows[i] stores sim(i,j)
	// iff rows[j] stores sim(j,i) with the same value, whenever both are
	// active. Entries keyed by inactive clusters are stale leftovers —
	// deleting them eagerly is expensive, so readers filter on active[].
	rows []sparseRow
	best *bestHeap
	// Scratch buffers reused across merges/normalizations.
	union        []int32
	sims         []float64
	simsA, simsB []float64
	fromA        []bool // union[k] was a neighbor of the merge's winner
	normK        [2][]int32
	normV        [2][]float64
	// Tail-fold scratch: a cluster-indexed table that collapses repeated
	// tail keys to their latest value, and the distinct keys (see normalized).
	tailV  []float64
	inTail []bool
	added  []int32
	// Bump-allocation slabs for the rows the run allocates: its copy of the
	// input rows, and the merged rows that outgrow the slot of the row they
	// replace. Carving them out of pointer-free slabs turns tens of
	// thousands of small GC-visible allocations into a few dozen large ones.
	slabK    []int32
	slabV    []float64
	slabSize int
}

// sparseSlabSize caps a slab's entries (3 MB of keys and values); a group
// with fewer neighbor entries than that gets slabs of its own size.
const sparseSlabSize = 1 << 18

// carve cuts empty parallel int32/float64 slices of capacity m out of the
// slabs. Capacity is pinned at m with a three-index slice, so a row append
// past m reallocates normally instead of bleeding into the next carve.
func (st *sparseState) carve(m int) ([]int32, []float64) {
	if len(st.slabK)+m > cap(st.slabK) {
		st.slabK = make([]int32, 0, max(m, st.slabSize))
	}
	if len(st.slabV)+m > cap(st.slabV) {
		st.slabV = make([]float64, 0, max(m, st.slabSize))
	}
	k := st.slabK[len(st.slabK) : len(st.slabK) : len(st.slabK)+m]
	v := st.slabV[len(st.slabV) : len(st.slabV) : len(st.slabV)+m]
	st.slabK = st.slabK[:len(st.slabK)+m]
	st.slabV = st.slabV[:len(st.slabV)+m]
	return k, v
}

// uncarve hands the capacity that the latest carve's slices (k, v) have not
// used back to the slabs, and pins the slices at their length.
func (st *sparseState) uncarve(k []int32, v []float64) ([]int32, []float64) {
	unused := cap(k) - len(k)
	st.slabK, st.slabV = st.slabK[:len(st.slabK)-unused], st.slabV[:len(st.slabV)-unused]
	return k[:len(k):len(k)], v[:len(v):len(v)]
}

// allocKV carves filled copies of parallel key/value slices from the slabs.
func (st *sparseState) allocKV(srcK []int32, srcV []float64) ([]int32, []float64) {
	k, v := st.carve(len(srcK))
	k = append(k, srcK...)
	v = append(v, srcV...)
	return k, v
}

// sparseRow is one cluster's neighbor row: keys ascending with vals
// parallel, plus an appended tail (xk, xv) of the edges that merges this row
// didn't lead created — keys the sorted part lacks; an update to an edge the
// row already holds is written in place (find). The tail may repeat a key;
// the latest append wins. Rows are only read when they lead a merge or their
// best edge needs refreshing, so the tail is folded in lazily at those
// points, via normalized.
type sparseRow struct {
	keys []int32
	vals []float64
	xk   []int32
	xv   []float64
}

// normalized returns r's current neighbor row as sorted parallel slices, the
// tail folded into the base. Rows with an empty tail are returned as-is;
// otherwise the result lives in state scratch and nothing is written back —
// callers that keep the row (refreshBest) copy the result in themselves.
//
// Entries keyed by inactive clusters are dead weight — those clusters never
// revive, and every reader filters on active[] — so each fold also compacts
// them away, keeping long-lived hub rows from accreting one stale entry per
// lost neighbor.
func (st *sparseState) normalized(r *sparseRow, which int) ([]int32, []float64) {
	if len(r.xk) == 0 {
		return r.keys, r.vals
	}
	// The distinct live tail keys, each at its latest value.
	added := st.added[:0]
	for t, k := range r.xk {
		if !st.active[k] {
			continue
		}
		if !st.inTail[k] {
			st.inTail[k] = true
			added = append(added, k)
		}
		st.tailV[k] = r.xv[t]
	}
	slices.Sort(added)
	st.added = added
	outK := st.normK[which][:0]
	outV := st.normV[which][:0]
	i, j := 0, 0
	for i < len(r.keys) || j < len(added) {
		if j >= len(added) || (i < len(r.keys) && r.keys[i] < added[j]) {
			if k := r.keys[i]; st.active[k] {
				outK = append(outK, k)
				outV = append(outV, r.vals[i])
			}
			i++
			continue
		}
		k := added[j]
		if i < len(r.keys) && r.keys[i] == k {
			i++ // a tail entry supersedes the base entry of its key
		}
		outK = append(outK, k)
		outV = append(outV, st.tailV[k])
		st.inTail[k] = false
		j++
	}
	st.normK[which], st.normV[which] = outK, outV
	return outK, outV
}

// find returns the position of key c in the sorted part of the row, or -1.
// Keys are distinct cluster ids below n in ascending order, so keys[t] >= t
// and at most n-len(keys) ids are missing before any position: c can only
// sit in [c-(n-len), c]. On a near-complete row that window is a handful of
// slots; on a sparse one it is the whole row and this is a binary search.
func (r *sparseRow) find(c int32, n int) int {
	lo, hi := max(0, int(c)-(n-len(r.keys))), min(int(c), len(r.keys)-1)
	for lo <= hi {
		m := int(uint(lo+hi) >> 1)
		switch k := r.keys[m]; {
		case k < c:
			lo = m + 1
		case k > c:
			hi = m - 1
		default:
			return m
		}
	}
	return -1
}

// refreshBest recomputes cluster x's exact best edge from its row and
// restores the heap order. Called lazily, only when x reaches the heap top
// with a key that can no longer be trusted (dirty, or a dead partner).
func (st *sparseState) refreshBest(x int32) {
	r := &st.rows[x]
	k, v := st.normalized(r, 0)
	if len(r.xk) > 0 {
		// Unlike in merge — where both rows are discarded — x's row
		// survives, so fold the tail back in to keep repeat refreshes O(deg).
		r.keys = append(r.keys[:0], k...)
		r.vals = append(r.vals[:0], v...)
		r.xk = r.xk[:0]
		r.xv = r.xv[:0]
		k, v = r.keys, r.vals
	}
	bs, bp := -1.0, int32(-1)
	for t, c := range k {
		// Explicit zeros mean "pair absent" and never order a merge; at
		// tau == 0 they are folded in once the heap has drained.
		if st.active[c] && v[t] > 0 && v[t] > bs {
			bs, bp = v[t], c
		}
	}
	st.best.sim[x], st.best.partner[x] = bs, bp
	st.best.dirty[x] = false
	st.best.fix(x)
}

// merge folds cluster b into cluster a (a < b as popped from the heap).
func (st *sparseState) merge(a, b int32) {
	// Fold both rows' tails, then walk the two sorted rows in lockstep:
	// the union comes out sorted for free, and each neighbor's (sa, sb)
	// pair falls out of the walk with no lookups at all.
	aK, aV := st.normalized(&st.rows[a], 0)
	bK, bV := st.normalized(&st.rows[b], 1)
	st.union = st.union[:0]
	st.simsA = st.simsA[:0]
	st.simsB = st.simsB[:0]
	st.fromA = st.fromA[:0]
	i, j := 0, 0
	for i < len(aK) || j < len(bK) {
		var c int32
		var sa, sb float64
		inA := true
		switch {
		case j >= len(bK) || (i < len(aK) && aK[i] < bK[j]):
			c, sa = aK[i], aV[i]
			i++
		case i >= len(aK) || bK[j] < aK[i]:
			c, sb, inA = bK[j], bV[j], false
			j++
		default:
			c, sa, sb = aK[i], aV[i], bV[j]
			i++
			j++
		}
		if c == a || c == b || !st.active[c] {
			continue
		}
		st.union = append(st.union, c)
		st.simsA = append(st.simsA, sa)
		st.simsB = append(st.simsB, sb)
		st.fromA = append(st.fromA, inA)
	}

	if cap(st.sims) < len(st.union) {
		st.sims = make([]float64, len(st.union))
	}
	st.sims = st.sims[:len(st.union)]
	ga, gb := int(st.ids[a]), int(st.ids[b])
	for k, c := range st.union {
		st.sims[k] = st.link.merged(st.simsA[k], st.simsB[k], st.size[a], st.size[b], int(st.ids[c]), ga, gb)
	}

	// Rewrite row a: the sorted union is exactly its live neighbor set, so
	// the new row drops every stale inactive-keyed entry. It goes where the
	// old one was when it fits — it always does once rows are near complete,
	// which keeps a dense corpus from allocating a row per merge. Neighbors
	// take the new similarity where they already hold the edge, in their
	// tails where the merge just created it, and have their best-edge keys
	// reconciled in place. A neighbor only b's row held cannot hold the edge
	// (rows are symmetric), so it is not searched for it.
	ra := &st.rows[a]
	if cap(ra.keys) >= len(st.union) {
		ra.keys = append(ra.keys[:0], st.union...)
		ra.vals = append(ra.vals[:0], st.sims...)
	} else {
		ra.keys, ra.vals = st.allocKV(st.union, st.sims)
	}
	ra.xk, ra.xv = ra.xk[:0], ra.xv[:0]
	na, ns := int32(-1), -1.0
	for k, c := range st.union {
		s := st.sims[k]
		rc := &st.rows[c]
		t := -1
		if st.fromA[k] {
			t = rc.find(a, st.n)
		}
		if t >= 0 {
			rc.vals[t] = s
		} else {
			rc.xk = append(rc.xk, a)
			rc.xv = append(rc.xv, s)
		}
		// A zero similarity means the pair is semantically absent; the
		// explicit 0 supersedes any stale value but is never a best edge.
		if s > 0 && s > ns {
			// Strict > over the ascending union keeps the lowest partner.
			ns, na = s, c
		}
		bs, bp := st.best.sim[c], st.best.partner[c]
		switch {
		case s > 0 && (s > bs || (s == bs && a < bp)):
			// The rewritten edge beats c's recorded best — either outright
			// or as the lex-smaller pair at equal sim. Increases must be
			// applied eagerly; a key that underestimates would let a worse
			// pair merge first.
			st.best.sim[c], st.best.partner[c] = s, a
			st.best.dirty[c] = false
			st.best.fix(c)
		case bp == a && s < bs:
			// c's recorded best was this very edge and it just dropped:
			// the key is now an overestimate. Reconciling lazily is safe.
			st.best.dirty[c] = true
		}
	}
	// The winner's exact best fell out of the union walk for free; the
	// loser's slot disappears with its cluster.
	st.best.sim[a], st.best.partner[a] = ns, na
	st.best.dirty[a] = false
	st.best.fix(a)
	st.best.remove(b)
	st.rows[b] = sparseRow{}
	st.link.onMerge(ga, gb)
	st.active[b] = false
	st.size[a] += st.size[b]
}
