// Package classify implements the naive Bayesian query classifier of
// Chapter 5: given a keyword query, rank the probabilistic domains by the
// posterior probability that the query belongs to them.
//
// The classifier is exact with respect to the thesis' model: because domain
// contents are themselves probabilistic, the prior Pr(D_r) and the
// per-feature likelihoods Pr(F_j | D_r) are expectations over all 2^k
// possible contents of the domain, where k is the number of *uncertain*
// schemas (certain members appear in every possible content — Section 5.3).
// Every term of those expectations depends on a content only through its
// size, whose distribution a Poisson-binomial recurrence gives, so setup is
// polynomial in k; classification is O(|D| · |matched query terms|).
//
// Robustness follows Section 5.2: m-estimate smoothing with p = 1/dim L and
// m = 1 + |S'|, which biases heavily toward tolerating missing terms, as
// keyword queries are much shorter than schemas.
package classify

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"schemaflow/internal/bitvec"
	"schemaflow/internal/core"
	"schemaflow/internal/par"
)

// Mode selects how the expectation over uncertain domain contents is
// computed.
type Mode int

const (
	// Exact takes the expectations over every possible content of each
	// domain (the thesis' construction).
	Exact Mode = iota
	// Approximate replaces them with expected counts (E[|S'|], E[count_j]) —
	// the approximation the thesis' future-work section proposes against
	// the exponential setup factor. Only Figure 6.7's exact-versus-
	// approximate comparison builds it.
	Approximate
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Approximate {
		return "approximate"
	}
	return "exact"
}

// Config controls classifier construction.
type Config struct {
	// Mode selects exact or approximate setup. Default Exact.
	Mode Mode
	// P overrides the m-estimate prior fraction p. Zero means 1/dim L
	// (Section 5.2). Set to 0.5 for the unbiased variant the thesis
	// considers and rejects.
	P float64
	// Local restricts setup to the listed domains — a shard's share. Every
	// other domain gets no table row and scores -Inf, without its statistics
	// ever being computed, so a shard holds its local domains' rows and the
	// terms their members mention. Nil means every domain.
	Local []int
}

// Score is one ranked domain.
type Score struct {
	// Domain is the domain id in the model.
	Domain int
	// LogPosterior is log(Pr(F^Q | D_r) · Pr(D_r)), i.e. the posterior up
	// to the query-constant log Pr(F^Q).
	LogPosterior float64
	// Posterior is the posterior normalized across all domains.
	Posterior float64
}

// Classifier is an immutable, query-ready classifier. Safe for concurrent
// use.
type Classifier struct {
	model *core.Model
	mode  Mode

	// The score table, one row per local domain, stored as sparse columns:
	// a query reads one column per set feature. Row i belongs to domain r
	// with row[r] == i; row[r] < 0 marks a domain that is not local, which
	// scores -Inf.
	row      []int32
	logPrior []float64 // per row: log Pr(D_r); -Inf if every possible content is empty
	sumLog0  []float64 // per row: Σ_j log Pr(F_j=0 | D_r)
	base     []float64 // per row: logPrior + sumLog0, the score of a query matching nothing
	// The adjustment of row i when query feature j is set is
	// log Pr(F_j=1|D_r) − log Pr(F_j=0|D_r). Under m-estimate smoothing it
	// is the same for every term no member of D_r mentions: that value is
	// def[i]. Column j lists the rows whose members mention term j, rows
	// ascending, with their own adjustment: colRow[colStart[j]:colStart[j+1]]
	// and colDelta at the same positions. A listed entry may equal def[i].
	def      []float64
	colStart []int // len dim+1
	colRow   []int32
	colDelta []float64

	// scratch pools per-call working state (query vector, set-bit list,
	// per-row and per-domain scores) so the hot path does not allocate it
	// per classification. The pooled buffers are sized to the model's
	// dimensionality and domain count, fixed for the classifier's lifetime.
	scratch sync.Pool
}

// queryScratch is the reusable per-call working state.
type queryScratch struct {
	vec *bitvec.Vector
	idx []int
	lp  []float64 // per table row: the query's raw log posterior (score)
	col []float64 // per table row: the current column's adjustments
	asc []Score   // every domain's score in ascending domain order; cap NumDomains
}

// statsScratch carries the working buffers of the per-domain setup-phase
// statistics across domains, so building a classifier over thousands of
// domains allocates its feature-width buffers once per setup worker instead
// of once per domain. The stats functions read and write the dim-wide
// buffers only at the current domain's terms.
type statsScratch struct {
	terms []int32   // the terms the current domain's members mention, ascending
	count []float64 // per term: the members' count; zero between domains
	p1    []float64 // per term: Pr(F_j=1 | D_r), valid at terms
	// uncertain lists the current domain's uncertain members, in order.
	uncertain []core.Membership
	// accumulators' working state: A_u per uncertain member, and the flat
	// triangular size distributions (row n at tri(n)) of how many of the
	// first, and of the last, n uncertain members are drawn in.
	accU, pre, suf []float64
}

// New builds the classifier from a probabilistic domain model. This is the
// expensive setup phase of Section 5.3.
func New(m *core.Model, cfg Config) (*Classifier, error) {
	dim := m.Space.Dim()
	if dim == 0 {
		return nil, fmt.Errorf("classify: empty vocabulary")
	}
	p := cfg.P
	if p == 0 {
		p = 1 / float64(dim)
	}
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("classify: m-estimate p=%v outside (0,1)", p)
	}

	nD := m.NumDomains()
	c := &Classifier{model: m, mode: cfg.Mode, row: make([]int32, nD)}
	c.scratch.New = func() any {
		return &queryScratch{vec: bitvec.New(dim), col: make([]float64, len(c.def)), asc: make([]Score, 0, nD)}
	}
	if cfg.Local != nil {
		for r := range c.row {
			c.row[r] = -1
		}
		for _, r := range cfg.Local {
			if r < 0 || r >= nD {
				return nil, fmt.Errorf("classify: local domain %d out of range [0,%d)", r, nD)
			}
			c.row[r] = 0
		}
	}
	var domainOf []int // table row → domain id, ascending
	for r, i := range c.row {
		if i == 0 {
			c.row[r] = int32(len(domainOf))
			domainOf = append(domainOf, r)
		}
	}
	rows := len(domainOf)
	c.logPrior = make([]float64, rows)
	c.sumLog0 = make([]float64, rows)
	c.base = make([]float64, rows)
	c.def = make([]float64, rows)
	// rowTerm[i] and rowDelta[i] are row i's listed entries, terms
	// ascending, until they are transposed into the columns.
	rowTerm := make([][]int32, rows)
	rowDelta := make([][]float64, rows)

	total := len(m.Schemas)
	// fillRow computes one domain's statistics and writes its row of every
	// table.
	fillRow := func(sc *statsScratch, i int) {
		r := domainOf[i]
		d := &m.Domains[r]
		// Only the terms some member mentions can move p1 off the smoothed
		// prior p0, so only they are computed and listed; every other term's
		// adjustment is the row's default.
		sc.terms = sc.terms[:0]
		for _, mem := range d.Members {
			sc.terms = append(sc.terms, m.Space.Bits(mem.Schema)...)
		}
		slices.Sort(sc.terms)
		sc.terms = slices.Compact(sc.terms)
		var prior, p0 float64
		if cfg.Mode == Exact {
			prior, p0 = exactDomainStats(m, d, total, p, sc)
		} else {
			prior, p0 = approxDomainStats(m, d, total, p, sc)
		}
		if prior <= 0 {
			// A domain whose every possible content is empty (all members
			// uncertain and the empty subset dominates) carries no signal;
			// rank it last unconditionally. It lists no entries and its
			// default stays zero, so its score is -Inf for every query.
			c.logPrior[i] = math.Inf(-1)
			c.base[i] = math.Inf(-1)
			return
		}
		// Σ_j log Pr(F_j=0 | D_r) is summed over every term in index order,
		// the unmentioned ones adding p0's log, whose two logs are taken once.
		term := slices.Clone(sc.terms)
		delta := make([]float64, len(term))
		l1, l0 := math.Log(p0), math.Log(1-p0)
		sum0, next := 0.0, 0
		for k, t := range term {
			for ; next < int(t); next++ {
				sum0 += l0
			}
			q := sc.p1[t]
			lq := math.Log(1 - q)
			sum0 += lq
			delta[k] = math.Log(q) - lq
			next = int(t) + 1
		}
		for ; next < dim; next++ {
			sum0 += l0
		}
		if len(term) < dim { // with every term mentioned, no term has p0 and def stays 0
			c.def[i] = l1 - l0
		}
		rowTerm[i], rowDelta[i] = term, delta
		c.logPrior[i] = math.Log(prior)
		c.sumLog0[i] = sum0
		c.base[i] = c.logPrior[i] + sum0
	}

	// Rows are independent, so they fan out, one row per claim. A row is
	// computed exactly as on one goroutine: the tables do not depend on the
	// worker count.
	par.EachWith(rows, func() *statsScratch {
		buf := make([]float64, 2*dim)
		return &statsScratch{count: buf[:dim], p1: buf[dim:]}
	}, fillRow)

	// Transpose the row lists into columns. Rows are visited in order, so
	// each column lists its rows ascending.
	c.colStart = make([]int, dim+1)
	for _, term := range rowTerm {
		for _, j := range term {
			c.colStart[j+1]++
		}
	}
	for j := 0; j < dim; j++ {
		c.colStart[j+1] += c.colStart[j]
	}
	c.colRow = make([]int32, c.colStart[dim])
	c.colDelta = make([]float64, c.colStart[dim])
	fill := slices.Clone(c.colStart[:dim])
	for i, term := range rowTerm {
		for e, j := range term {
			c.colRow[fill[j]], c.colDelta[fill[j]] = int32(i), rowDelta[i][e]
			fill[j]++
		}
	}
	return c, nil
}

// TableBytes reports the bytes the classifier's tables hold: the per-domain
// row index, the per-row priors, baselines and defaults, and the column
// lists.
func (c *Classifier) TableBytes() int {
	const i32, f64, word = 4, 8, 8
	return i32*(len(c.row)+len(c.colRow)) +
		f64*(len(c.logPrior)+len(c.sumLog0)+len(c.base)+len(c.def)+len(c.colDelta)) +
		word*len(c.colStart)
}

// exactDomainStats computes Pr(D_r) and Pr(F_j = 1 | D_r) as expectations
// over the 2^k possible contents S' of a domain with k uncertain schemas
// (Equations 5.3–5.9).
//
// Write w(S') = Pr(D_r | D_r=S') · Pr(D_r=S') = (|S'|/|S|) · Pr(D_r=S').
// Then Pr(D_r) = Σ w(S') and, with m-estimate m = 1+|S'|,
//
//	Pr(F_j=1 | D_r) = Σ_S' [ (count_j(S') + p·m) / (|S'|+m) ] · w(S') / Pr(D_r)
//
// Since count_j(S') = certainCount_j + Σ_{u ∈ S'} F_j^u, the sum factors into
// the accumulators A, B and A_u of statsScratch.accumulators, and p1 is
// (certainCount_j·A + B + Σ_{u mentions j} A_u) / Pr(D_r).
//
// It writes p1 into sc.p1 at sc.terms, the terms the domain's members
// mention, and returns the prior and p0, the p1 of every other term:
// (0·A + B)/Pr(D_r).
func exactDomainStats(m *core.Model, d *core.Domain, totalSchemas int, p float64, sc *statsScratch) (float64, float64) {
	// One pass splits the members as Domain.Certain and Uncertain do: the
	// certain ones are counted, the uncertain ones listed in order.
	certain, certainCount, p1 := 0, sc.count, sc.p1
	sc.uncertain = sc.uncertain[:0]
	for _, mem := range d.Members {
		if mem.Prob < 1 {
			sc.uncertain = append(sc.uncertain, mem)
			continue
		}
		certain++
		for _, j := range m.Space.Bits(mem.Schema) {
			certainCount[j]++
		}
	}
	// prior is 0 only without a certain member, when nothing was counted:
	// returning leaves the counts zero.
	prior, accA, accB, accU := sc.accumulators(certain, sc.uncertain, totalSchemas, p)
	if prior == 0 {
		return 0, 0
	}
	for _, j := range sc.terms {
		p1[j] = certainCount[j]*accA + accB
		certainCount[j] = 0
	}
	for u, mem := range sc.uncertain {
		if accU[u] == 0 {
			continue
		}
		for _, j := range m.Space.Bits(mem.Schema) {
			p1[j] += accU[u]
		}
	}
	inv := 1 / prior
	for _, j := range sc.terms {
		p1[j] *= inv
	}
	return prior, accB * inv
}

// accumulators returns, for a domain of c certain members and the given
// uncertain ones out of total schemas, the sums over its possible contents
// S' that exactDomainStats factors Pr(F_j=1 | D_r) into:
//
//	prior = Σ w(S'),  A = Σ w(S')/(|S'|+m),  B = Σ w(S')·p·m/(|S'|+m),
//	A_u = Σ_{S' ∋ u} w(S')/(|S'|+m)   (accU[u], valid until the next call).
//
// Each summand depends on S' only through its size c+N, N the number of
// uncertain members drawn in. Memberships are independent, so N is
// Poisson-binomial and the sums run over sizes, not subsets: Pr(N=s) is the
// last row of the prefix recurrence
//
//	pre[u+1][a] = pre[u][a]·(1−q_u) + pre[u][a−1]·q_u,
//
// and A_u weighs the size of the other k−1 members,
// Pr(N₋ᵤ=s) = Σ_x pre[u][x]·suf[u+1][s−x], suf being the same recurrence
// run from the last member back. That is O(k³) at every k, where the
// subsets number 2^k. With k ≤ 1 it adds the very floats, in the same order,
// that a walk over the subsets adds.
func (sc *statsScratch) accumulators(c int, uncertain []core.Membership, total int, p float64) (prior, accA, accB float64, accU []float64) {
	k := len(uncertain)
	if n := tri(k + 1); len(sc.pre) < n {
		buf := make([]float64, k+2*n)
		sc.accU, sc.pre, sc.suf = buf[:k], buf[k:k+n], buf[k+n:]
	}
	pre, suf, accU := sc.pre, sc.suf, sc.accU[:k]
	pre[0], suf[0] = 1, 1
	for u := 0; u < k; u++ {
		addMember(pre[tri(u):tri(u+1)], pre[tri(u+1):tri(u+2)], uncertain[u].Prob)
		addMember(suf[tri(u):tri(u+1)], suf[tri(u+1):tri(u+2)], uncertain[k-1-u].Prob)
	}
	// stat returns the weight of a content of the given size drawn with
	// probability pr, its m-estimate m and the denominator |S'|+m.
	stat := func(size int, pr float64) (w, mEst, denom float64) {
		w = float64(size) / float64(total) * pr
		mEst = float64(1 + size)
		return w, mEst, float64(size) + mEst
	}
	for s, pr := range pre[tri(k):tri(k+1)] {
		w, mEst, denom := stat(c+s, pr) // w = 0 at size 0 adds nothing
		prior += w
		accA += w / denom
		accB += w * p * mEst / denom
	}
	for u, mem := range uncertain {
		left, right := pre[tri(u):tri(u+1)], suf[tri(k-1-u):tri(k-u)]
		accU[u] = 0
		for s := 0; s < k; s++ {
			loo := 0.0 // Pr(N₋ᵤ = s)
			for x := max(0, s-len(right)+1); x <= min(u, s); x++ {
				loo += left[x] * right[s-x]
			}
			w, _, denom := stat(c+s+1, mem.Prob*loo)
			accU[u] += w / denom
		}
	}
	return prior, accA, accB, accU
}

// tri(n) = n(n+1)/2 is where row n, of n+1 entries, starts in a flat
// triangular buffer.
func tri(n int) int { return n * (n + 1) / 2 }

// addMember extends the distribution of a count over n members (from, n+1
// entries) to n+1 members (to, n+2 entries) by one drawn in with
// probability q.
func addMember(from, to []float64, q float64) {
	n := len(from) - 1
	to[0] = from[0] * (1 - q)
	for a := 1; a <= n; a++ {
		to[a] = from[a]*(1-q) + from[a-1]*q
	}
	to[n+1] = from[n] * q
}

// approxDomainStats replaces the expectations over contents with expected
// counts: E[|S'|] = Σ_i Pr(S_i ∈ D_r), E[count_j] = Σ_i Pr(S_i ∈ D_r)·F_j^i,
// plugged into one m-estimate. This is the linear-time approximation the
// conclusion proposes; Figure 6.7's comparison measures its accuracy cost
// against Exact. Like exactDomainStats it writes p1 at sc.terms and returns
// the prior and p0 = (0 + p·m)/(E[|S'|] + m).
func approxDomainStats(m *core.Model, d *core.Domain, totalSchemas int, p float64, sc *statsScratch) (float64, float64) {
	expSize := 0.0
	for _, mem := range d.Members {
		expSize += mem.Prob
	}
	if expSize == 0 {
		return 0, 0
	}
	expCount, p1 := sc.count, sc.p1
	for _, mem := range d.Members {
		for _, j := range m.Space.Bits(mem.Schema) {
			expCount[j] += mem.Prob
		}
	}
	prior := expSize / float64(totalSchemas)
	mEst := 1 + expSize
	denom := expSize + mEst
	for _, j := range sc.terms {
		p1[j] = (expCount[j] + p*mEst) / denom
		expCount[j] = 0
	}
	return prior, p * mEst / denom
}

// Classify embeds the keyword query into the feature space and returns every
// domain scored and sorted by descending posterior. Posterior values are
// normalized across domains (Pr(F^Q) cancels in the ranking, Section 5.1).
func (c *Classifier) Classify(keywords []string) []Score {
	return c.Top(keywords, c.model.NumDomains())
}

// Top returns the best-ranked k domains for the query, bit for bit
// Classify(keywords)[:k], without ranking the rest: k > NumDomains → all,
// k < 1 → none (and nothing is classified).
func (c *Classifier) Top(keywords []string, k int) []Score {
	k = max(0, min(k, c.model.NumDomains()))
	return c.classifyInto(keywords, k, make([]Score, 0, k))
}

// classifyInto answers Top(keywords, k) into the provided slice (len 0,
// cap ≥ k, 0 ≤ k ≤ NumDomains()) and returns it. Per-call working state —
// the query vector, its set-bit list, the per-row scores and, unless the
// answer is every domain, the domain-ordered score list — comes from the
// scratch pool, so a steady stream of classifications allocates only the
// returned scores.
func (c *Classifier) classifyInto(keywords []string, k int, out []Score) []Score {
	if k < 1 {
		return out
	}
	sc := c.scratch.Get().(*queryScratch)
	c.embed(keywords, sc)
	c.score(sc)
	asc := sc.asc[:0]
	if k == len(c.row) {
		asc = out // the whole ranking is normalized and sorted in the answer itself
	}
	for r := range c.row {
		asc = append(asc, Score{Domain: r, LogPosterior: c.logPosterior(sc, r)})
	}
	out, h := rankTop(asc, k, out)
	c.scratch.Put(sc)
	observeClassification(out, h)
	return out
}

// embed maps the keyword query into the feature space: sc.idx lists its set
// features in index order.
func (c *Classifier) embed(keywords []string, sc *queryScratch) {
	c.model.Space.QueryVectorInto(keywords, sc.vec)
	sc.idx = sc.vec.IndicesAppend(sc.idx[:0])
}

// score fills sc.lp with every table row's raw log posterior for the
// embedded query: the row's base plus one column of adjustments per set
// feature, in index order. A column is built in sc.col from the rows'
// defaults with the listed rows overwritten, so each row adds the same
// float64 per feature whether or not that row is listed. It is the only
// scoring loop — Classify and Explain both read their domains' scores out
// of sc.lp — and each row's floating-point summation order is base, then
// the set features ascending.
func (c *Classifier) score(sc *queryScratch) {
	lp, col := append(sc.lp[:0], c.base...), sc.col
	for _, j := range sc.idx {
		copy(col, c.def)
		for e := c.colStart[j]; e < c.colStart[j+1]; e++ {
			col[c.colRow[e]] = c.colDelta[e]
		}
		for i := range lp {
			lp[i] += col[i]
		}
	}
	sc.lp = lp
}

// adjustment returns row i's entry of column j: the listed one, or the
// row's default.
func (c *Classifier) adjustment(j, i int) float64 {
	lo, hi := c.colStart[j], c.colStart[j+1]
	if e, ok := slices.BinarySearch(c.colRow[lo:hi], int32(i)); ok {
		return c.colDelta[lo+e]
	}
	return c.def[i]
}

// logPosterior reads domain r's score out of a scored scratch; a domain
// without a table row scores -Inf.
func (c *Classifier) logPosterior(sc *queryScratch, r int) float64 {
	if i := c.row[r]; i >= 0 {
		return sc.lp[i]
	}
	return math.Inf(-1)
}

// ClassifyBatch classifies many queries with bounded CPU-parallel fan-out
// and returns the best k domains of each, in input order. Results are
// identical to calling Top once per query; the batch path exists for
// throughput — workers share the classifier's scratch pool, and all score
// slices are carved from one flat allocation of n × min(k, NumDomains).
func (c *Classifier) ClassifyBatch(queries [][]string, k int) [][]Score {
	out := make([][]Score, len(queries))
	n := len(queries)
	if n == 0 {
		return out
	}
	k = max(0, min(k, c.model.NumDomains()))
	flat := make([]Score, 0, n*k)
	par.Each(n, func(i int) {
		out[i] = c.classifyInto(queries[i], k, flat[i*k:i*k:(i+1)*k])
	})
	return out
}

// Mode reports which setup rule built this classifier.
func (c *Classifier) Mode() Mode { return c.mode }

// rankTop ranks one query's scores. asc holds them in ascending domain order
// (their Posterior is ignored) and the answer is the best min(k, len(asc))
// under rank's order, with Posterior normalized over all of asc: bit for bit
// the first k entries that normalize and rank leave in asc. When k covers
// asc that is what runs, in place, and asc is returned. Otherwise the k best
// are selected into out (len 0, cap ≥ k, not aliasing asc) and nothing is
// sorted. The second result is the posterior's entropy.
func rankTop(asc []Score, k int, out []Score) ([]Score, float64) {
	if k >= len(asc) {
		h := normalize(asc)
		rank(asc)
		return asc, h
	}
	if k < 1 {
		return out, 0
	}
	out = selectTop(asc, k, out)
	return out, normalizeTop(asc, out)
}

// selectTop appends to out (len 0, cap ≥ k ≥ 1) the k best of asc, best
// first, in one pass. asc is in ascending domain order, so a score enters
// only when strictly better than the k-th kept so far and is shifted in
// behind every kept score at least as good: equal scores keep the smaller
// domain id first, which is the prefix rank leaves.
func selectTop(asc []Score, k int, out []Score) []Score {
	for _, s := range asc {
		if len(out) == k {
			if s.LogPosterior <= out[k-1].LogPosterior {
				continue
			}
			out = out[:k-1]
		}
		i := len(out)
		out = append(out, s)
		for ; i > 0 && out[i-1].LogPosterior < s.LogPosterior; i-- {
			out[i] = out[i-1]
		}
		out[i] = s
	}
	return out
}

// normalize fills Posterior via a log-sum-exp over LogPosterior, summing in
// slice order, and returns the posterior's entropy.
func normalize(scores []Score) float64 {
	maxLP := math.Inf(-1)
	for _, s := range scores {
		if s.LogPosterior > maxLP {
			maxLP = s.LogPosterior
		}
	}
	if math.IsInf(maxLP, -1) {
		for i := range scores {
			scores[i].Posterior = 0 // whatever a MergeTop partial carried
		}
		return 0
	}
	sum, h := expSum(scores, maxLP)
	for i := range scores {
		scores[i].Posterior /= sum
	}
	return h
}

// normalizeTop is normalize for a selection: top holds the best entries of
// asc, best first, and gets the Posterior normalize over asc would give
// them. The maximum is top[0]'s score — the first of the largest in domain
// order, the one normalize's scan keeps — and the sum is normalize's, over
// the same floats in the same order, so each answer is the same x/sum of
// the same x. asc's Posteriors are left as scratch.
func normalizeTop(asc, top []Score) float64 {
	maxLP := top[0].LogPosterior
	if math.IsInf(maxLP, -1) {
		for i := range top {
			top[i].Posterior = 0
		}
		return 0
	}
	sum, h := expSum(asc, maxLP)
	for i := range top {
		top[i].Posterior = math.Exp(top[i].LogPosterior-maxLP) / sum
	}
	return h
}

// expSum sets each score's Posterior to e = exp(LogPosterior − maxLP) and
// returns their sum S, in slice order, with the entropy of the posterior
// e/S in closed form: H = log S − Σ e·(LogPosterior − maxLP) / S over the
// e > 0, one Log per query instead of one per domain.
func expSum(scores []Score, maxLP float64) (sum, entropy float64) {
	dot := 0.0
	for i := range scores {
		x := scores[i].LogPosterior - maxLP
		e := math.Exp(x)
		scores[i].Posterior = e
		sum += e
		if e > 0 {
			dot += e * x
		}
	}
	return sum, math.Log(sum) - dot/sum
}

// rank sorts scores best first, ties by ascending domain id. No table entry
// is NaN, so this is a total order over distinct domains and every correct
// sort yields the same permutation — in particular the one a stable sort by
// descending LogPosterior yields from a slice in ascending domain order,
// which is the order rankTop is handed.
func rank(scores []Score) {
	slices.SortFunc(scores, func(a, b Score) int {
		switch {
		case a.LogPosterior > b.LogPosterior:
			return -1
		case a.LogPosterior < b.LogPosterior:
			return 1
		}
		return cmp.Compare(a.Domain, b.Domain)
	})
}
