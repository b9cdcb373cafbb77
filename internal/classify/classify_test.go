package classify

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

func travelBibSet() schema.Set {
	return schema.Set{
		{Name: "travel1", Attributes: []string{"departure airport", "destination airport", "airline", "class"}},
		{Name: "travel2", Attributes: []string{"departure", "destination", "departing date", "returning date"}},
		{Name: "travel3", Attributes: []string{"departure city", "destination city", "airline", "price"}},
		{Name: "bib1", Attributes: []string{"title", "authors", "publication year", "conference"}},
		{Name: "bib2", Attributes: []string{"paper title", "author", "year", "venue"}},
	}
}

func buildModel(t *testing.T, set schema.Set, tau float64) *core.Model {
	t.Helper()
	sp := feature.BuildLite(set, feature.DefaultConfig())
	cl, err := cluster.Agglomerative(sp, cluster.NewLinkage(cluster.AvgJaccard), tau)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.AssignDomains(set, sp, cl, core.Options{TauCSim: tau, Theta: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// modelWithMemberships builds a model with explicitly controlled
// probabilistic memberships, for exercising the uncertain-schema math.
func modelWithMemberships(t *testing.T, set schema.Set, assign []int, memberships [][]core.Membership) *core.Model {
	t.Helper()
	sp := feature.BuildLite(set, feature.DefaultConfig())
	cl := cluster.FromAssignment(assign)
	m, err := core.RestoreModel(set, sp, cl, memberships, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func domainOf(m *core.Model, schemaIdx int) int {
	return m.Clustering.Assign[schemaIdx]
}

func TestClassifyRoutesToRightDomain(t *testing.T) {
	m := buildModel(t, travelBibSet(), 0.2)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	scores := c.Classify([]string{"departure", "toronto", "destination", "cairo"})
	if scores[0].Domain != domainOf(m, 0) {
		t.Fatalf("travel query routed to domain %d (travel is %d)", scores[0].Domain, domainOf(m, 0))
	}
	scores = c.Classify([]string{"books", "authored", "title"})
	if scores[0].Domain != domainOf(m, 3) {
		t.Fatalf("bibliography query routed to domain %d (bib is %d)", scores[0].Domain, domainOf(m, 3))
	}
}

func TestExtraTermDoesNotZeroPosterior(t *testing.T) {
	// Section 5.2's first robustness issue: an extra term (present in the
	// vocabulary but absent from the target domain) must not annihilate the
	// posterior. "mileage" exists only in a third, unrelated schema.
	set := append(travelBibSet(), schema.Schema{
		Name: "car1", Attributes: []string{"make", "model", "mileage"}})
	m := buildModel(t, set, 0.2)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	scores := c.Classify([]string{"departure", "destination", "airline", "mileage"})
	if scores[0].Domain != domainOf(m, 0) {
		t.Fatalf("extra term flipped the ranking: top = %d", scores[0].Domain)
	}
	if math.IsInf(scores[0].LogPosterior, -1) {
		t.Fatal("posterior collapsed to zero")
	}
}

func TestMissingTermsTolerated(t *testing.T) {
	// Second robustness issue: a query mentioning only one of a domain's
	// many terms still ranks that domain first.
	m := buildModel(t, travelBibSet(), 0.2)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	scores := c.Classify([]string{"airline"})
	if scores[0].Domain != domainOf(m, 0) {
		t.Fatalf("single-keyword query misrouted: top = %d", scores[0].Domain)
	}
}

func TestPosteriorsNormalized(t *testing.T) {
	m := buildModel(t, travelBibSet(), 0.2)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	scores := c.Classify([]string{"departure", "airline"})
	sum := 0.0
	for _, s := range scores {
		if s.Posterior < 0 || s.Posterior > 1 {
			t.Fatalf("posterior %v out of range", s.Posterior)
		}
		sum += s.Posterior
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posteriors sum to %v", sum)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i-1].LogPosterior < scores[i].LogPosterior {
			t.Fatal("scores not sorted descending")
		}
	}
}

func TestTopTruncates(t *testing.T) {
	m := buildModel(t, travelBibSet(), 0.2)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Top([]string{"airline"}, 1); len(got) != 1 {
		t.Fatalf("Top(1) returned %d", len(got))
	}
	if got := c.Top([]string{"airline"}, 100); len(got) != m.NumDomains() {
		t.Fatalf("Top(100) returned %d", len(got))
	}
	for _, k := range []int{0, -1, math.MinInt} {
		if got := c.Top([]string{"airline"}, k); got == nil || len(got) != 0 {
			t.Fatalf("Top(%d) returned %v, want an empty answer", k, got)
		}
	}
}

// TestTopIsThePrefix: Top(q, k) is Classify(q)[:k] — domain, LogPosterior
// bits and Posterior bits — over every wideModel query at k from 1 to past
// the domain count, on the full classifier and on a shard's (Config.Local),
// whose non-local domains all tie at -Inf.
func TestTopIsThePrefix(t *testing.T) {
	m, queries := wideModel(t, 6000, 10)
	n := m.NumDomains()
	var local []int
	for r := 0; r < n; r += 3 {
		local = append(local, r)
	}
	for name, cfg := range map[string]Config{"full": {}, "local": {Local: local}} {
		c, err := New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			full := c.Classify(q)
			for _, k := range []int{1, 2, 3, 10, 100, len(local) - 1, len(local), len(local) + 1, n - 1, n, n + 1} {
				if got := c.Top(q, k); !sameScores(got, full[:min(k, n)]) {
					t.Fatalf("%s query %v k=%d: Top %+v, Classify prefix %+v", name, q, k, got, full[:min(k, n)])
				}
			}
		}
	}
}

// TestEntropyClosedForm: the entropy a classification observes is
// log S − Σ e_i·(lp_i − max)/S, one Log per query; it must agree with the
// per-domain −Σ p_i·log p_i over the p_i > 0 to 1e-12 relative, and every
// path — full ranking, selection, all -Inf — must hand the same value on.
func TestEntropyClosedForm(t *testing.T) {
	m, queries := wideModel(t, 600, 10)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]Score{
		{{Domain: 0, LogPosterior: math.Inf(-1)}, {Domain: 1, LogPosterior: math.Inf(-1)}},
		{{Domain: 0, LogPosterior: -3}},
		{{Domain: 0, LogPosterior: -1.5}, {Domain: 1, LogPosterior: -1.5}, {Domain: 2, LogPosterior: math.Inf(-1)}, {Domain: 3, LogPosterior: -800}},
	}
	for _, q := range queries {
		asc := c.Classify(q)
		slices.SortFunc(asc, func(a, b Score) int { return a.Domain - b.Domain })
		inputs = append(inputs, asc)
	}
	for _, asc := range inputs {
		full := slices.Clone(asc)
		h := normalize(full)
		want := 0.0
		for _, s := range full {
			if s.Posterior > 0 {
				want -= s.Posterior * math.Log(s.Posterior)
			}
		}
		if math.Abs(h-want) > 1e-12*math.Abs(want) {
			t.Fatalf("%d scores: closed-form entropy %v, per-domain sum %v", len(asc), h, want)
		}
		for k := 1; k <= len(asc)+1; k++ {
			_, hk := rankTop(slices.Clone(asc), k, make([]Score, 0, k))
			if math.Float64bits(hk) != math.Float64bits(h) {
				t.Fatalf("%d scores, k=%d: rankTop entropy %v, normalize %v", len(asc), k, hk, h)
			}
		}
	}
}

func TestApproximateMatchesExactWhenAllCertain(t *testing.T) {
	// With no uncertain schemas the size distribution has a single term,
	// and the approximate expectations coincide with it exactly.
	m := buildModel(t, travelBibSet(), 0.2)
	if m.UncertainCount() != 0 {
		t.Fatalf("test premise broken: %d uncertain schemas", m.UncertainCount())
	}
	exact, err := New(m, Config{Mode: Exact})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := New(m, Config{Mode: Approximate})
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]string{{"departure"}, {"title", "authors"}, {"airline", "class", "price"}}
	for _, q := range queries {
		se, sa := exact.Classify(q), approx.Classify(q)
		for k := range se {
			if se[k].Domain != sa[k].Domain || math.Abs(se[k].LogPosterior-sa[k].LogPosterior) > 1e-9 {
				t.Fatalf("query %v: exact %+v vs approx %+v", q, se[k], sa[k])
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if Exact.String() != "exact" || Approximate.String() != "approximate" {
		t.Fatal("Mode.String broken")
	}
}

func TestConfigValidation(t *testing.T) {
	m := buildModel(t, travelBibSet(), 0.2)
	if _, err := New(m, Config{P: 1.5}); err == nil {
		t.Fatal("invalid P accepted")
	}
}

// referenceDomainScore evaluates Equations 5.2–5.9 literally: enumerate
// subsets S' of the domain's members that contain all certain schemas,
// compute Pr(D_r), Pr(F_j|D_r) per feature by direct summation, and combine
// with the query vector. O(2^k · dim), no algebraic factoring — an
// independent oracle for the optimized implementation.
func referenceDomainScore(m *core.Model, d *core.Domain, fq []bool, pAdd float64) float64 {
	certain := d.Certain()
	uncertain := d.Uncertain()
	dim := m.Space.Dim()
	total := len(m.Schemas)

	prior := 0.0
	p1 := make([]float64, dim)
	for mask := 0; mask < 1<<len(uncertain); mask++ {
		pS := 1.0
		for u, mem := range uncertain {
			if mask&(1<<u) != 0 {
				pS *= mem.Prob
			} else {
				pS *= 1 - mem.Prob
			}
		}
		size := len(certain) + bits.OnesCount(uint(mask))
		w := float64(size) / float64(total) * pS
		prior += w
		mEst := float64(1 + size)
		for j := 0; j < dim; j++ {
			cnt := 0.0
			for _, mem := range certain {
				if slices.Contains(m.Space.Bits(mem.Schema), int32(j)) {
					cnt++
				}
			}
			for u, mem := range uncertain {
				if mask&(1<<u) != 0 && slices.Contains(m.Space.Bits(mem.Schema), int32(j)) {
					cnt++
				}
			}
			p1[j] += w * (cnt + pAdd*mEst) / (float64(size) + mEst)
		}
	}
	if prior == 0 {
		return math.Inf(-1)
	}
	score := math.Log(prior)
	for j := 0; j < dim; j++ {
		pj := p1[j] / prior
		if fq[j] {
			score += math.Log(pj)
		} else {
			score += math.Log(1 - pj)
		}
	}
	return score
}

func TestExactMatchesReference(t *testing.T) {
	set := travelBibSet()
	memberships := [][]core.Membership{
		{{Schema: 0, Prob: 1}},
		{{Schema: 0, Prob: 0.6}, {Schema: 1, Prob: 0.4}},
		{{Schema: 0, Prob: 0.7}, {Schema: 1, Prob: 0.3}},
		{{Schema: 1, Prob: 1}},
		{{Schema: 0, Prob: 0.1}, {Schema: 1, Prob: 0.9}},
	}
	m := modelWithMemberships(t, set, []int{0, 0, 0, 1, 1}, memberships)
	c, err := New(m, Config{Mode: Exact})
	if err != nil {
		t.Fatal(err)
	}
	pAdd := 1 / float64(m.Space.Dim())

	queries := [][]string{
		{"departure", "destination"},
		{"title"},
		{"airline", "authors", "price"},
		{"zzzz"},
	}
	for _, q := range queries {
		fqv := m.Space.QueryVector(q)
		fq := make([]bool, m.Space.Dim())
		for _, j := range fqv.IndicesAppend(nil) {
			fq[j] = true
		}
		scores := c.Classify(q)
		for _, s := range scores {
			want := referenceDomainScore(m, &m.Domains[s.Domain], fq, pAdd)
			if math.Abs(s.LogPosterior-want) > 1e-12*math.Abs(want) {
				t.Fatalf("query %v domain %d: got %v, reference %v", q, s.Domain, s.LogPosterior, want)
			}
		}
	}
}

// TestPropertyExactMatchesReference fuzzes corpora, memberships and queries
// against the reference oracle, to 1e-12 relative. One corpus in four is
// wide: 12–14 of its 14–16 schemas are uncertain members of both domains.
func TestPropertyExactMatchesReference(t *testing.T) {
	words := []string{
		"title", "author", "year", "venue", "make", "model", "price",
		"color", "name", "phone", "genre", "rating",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, uncertain := 3+rng.Intn(5), -1 // uncertain < 0: each schema by a coin
		if rng.Intn(4) == 0 {
			n, uncertain = 14+rng.Intn(3), 12+rng.Intn(3)
		}
		set := make(schema.Set, n)
		for i := range set {
			k := 2 + rng.Intn(3)
			attrs := make([]string, k)
			for j := range attrs {
				attrs[j] = words[rng.Intn(len(words))]
			}
			set[i] = schema.Schema{Name: "s", Attributes: attrs}
		}
		// Random 2-cluster assignment with random fractional memberships.
		assign := make([]int, n)
		memberships := make([][]core.Membership, n)
		for i := range set {
			assign[i] = rng.Intn(2)
			if uncertain < 0 && rng.Float64() < 0.5 || uncertain >= 0 && i < n-uncertain {
				memberships[i] = []core.Membership{{Schema: assign[i], Prob: 1}}
			} else {
				p := 0.1 + 0.8*rng.Float64()
				memberships[i] = []core.Membership{
					{Schema: 0, Prob: p},
					{Schema: 1, Prob: 1 - p},
				}
			}
		}
		// Ensure both clusters are non-empty for FromAssignment stability.
		assign[0], assign[n-1] = 0, 1
		sp := feature.BuildLite(set, feature.DefaultConfig())
		cl := cluster.FromAssignment(assign)
		if cl.NumClusters() != 2 {
			return true // degenerate; skip
		}
		m, err := core.RestoreModel(set, sp, cl, memberships, core.DefaultOptions())
		if err != nil {
			return false
		}
		c, err := New(m, Config{Mode: Exact})
		if err != nil {
			return false
		}
		pAdd := 1 / float64(sp.Dim())
		q := []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]}
		fqv := sp.QueryVector(q)
		fq := make([]bool, sp.Dim())
		for _, j := range fqv.IndicesAppend(nil) {
			fq[j] = true
		}
		scores := c.Classify(q)
		for _, s := range scores {
			want := referenceDomainScore(m, &m.Domains[s.Domain], fq, pAdd)
			if math.IsInf(want, -1) != math.IsInf(s.LogPosterior, -1) {
				return false
			}
			if !math.IsInf(want, -1) && math.Abs(s.LogPosterior-want) > 1e-12*math.Abs(want) {
				return false
			}
		}
		// Output must be sorted descending.
		return sort.SliceIsSorted(scores, func(a, b int) bool {
			return scores[a].LogPosterior > scores[b].LogPosterior
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestExactAtAnyWidth: exact setup runs at any number k of uncertain
// members, here 40 and 64, which no walk over 2^k subsets reaches. With one
// membership probability q shared by all of them the content size is c + N,
// N ~ Binomial(k, q), so over T schemas at m-estimate fraction p
//
//	prior = Σ_s (c+s)/T · b(s; k, q) = (c + k·q)/T
//	A     = Σ_s (c+s)/T · b(s; k, q) / (2(c+s)+1)
//	B     = Σ_s (c+s)/T · b(s; k, q) · p·(c+s+1) / (2(c+s)+1)
//	A_u   = Σ_s (c+s+1)/T · q·b(s; k−1, q) / (2(c+s)+3)   for every u
//
// and the accumulators must match these to 1e-12 relative. New on a model
// whose two domains hold 64 uncertain members each gives every row the
// prior (c + k·q)/T.
func TestExactAtAnyWidth(t *testing.T) {
	binom := func(s, k int, q float64) float64 { // b(s; k, q) by log-gamma
		lk, _ := math.Lgamma(float64(k + 1))
		ls, _ := math.Lgamma(float64(s + 1))
		lr, _ := math.Lgamma(float64(k - s + 1))
		return math.Exp(lk - ls - lr + float64(s)*math.Log(q) + float64(k-s)*math.Log1p(-q))
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	const total, p = 200, 0.01
	sc := &statsScratch{}
	for _, k := range []int{40, 64} {
		for _, c := range []int{0, 5} {
			for _, q := range []float64{0.6, 0.05} {
				members := make([]core.Membership, k)
				for u := range members {
					members[u] = core.Membership{Schema: u, Prob: q}
				}
				var wantA, wantB, wantU float64
				for s := 0; s <= k; s++ {
					size := float64(c + s)
					w := size / total * binom(s, k, q)
					wantA += w / (2*size + 1)
					wantB += w * p * (size + 1) / (2*size + 1)
					if s < k {
						wantU += (size + 1) / total * q * binom(s, k-1, q) / (2*size + 3)
					}
				}
				prior, accA, accB, accU := sc.accumulators(c, members, total, p)
				if !near(prior, (float64(c)+float64(k)*q)/total) || !near(accA, wantA) || !near(accB, wantB) {
					t.Errorf("k=%d c=%d q=%v: prior, A, B = %v, %v, %v; binomial %v, %v, %v",
						k, c, q, prior, accA, accB, (float64(c)+float64(k)*q)/total, wantA, wantB)
				}
				for u, a := range accU {
					if !near(a, wantU) {
						t.Fatalf("k=%d c=%d q=%v: A_%d = %v; binomial %v", k, c, q, u, a, wantU)
					}
				}
			}
		}
	}

	m := benchModel(t, 70, 32) // per domain: 38 certain members and 64 uncertain ones
	cl, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for r, d := range m.Domains {
		uncertain := d.Uncertain()
		if len(uncertain) != 64 {
			t.Fatalf("domain %d has %d uncertain members; want 64", r, len(uncertain))
		}
		want := (float64(len(d.Certain())) + 64*uncertain[0].Prob) / float64(len(m.Schemas))
		if got := math.Exp(cl.logPrior[cl.row[r]]); math.Abs(got-want) > 1e-12*want {
			t.Errorf("domain %d: prior %v; binomial %v", r, got, want)
		}
	}
}

// byRankDefinition is the ranking as first specified — a stable sort by
// descending LogPosterior — written from that definition for the tests.
type byRankDefinition []Score

func (s byRankDefinition) Len() int           { return len(s) }
func (s byRankDefinition) Swap(a, b int)      { s[a], s[b] = s[b], s[a] }
func (s byRankDefinition) Less(a, b int) bool { return s[a].LogPosterior > s[b].LogPosterior }

// sameScores compares bit for bit, so +0 and -0 differ and NaN equals itself.
func sameScores(a, b []Score) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Domain != b[i].Domain ||
			math.Float64bits(a[i].LogPosterior) != math.Float64bits(b[i].LogPosterior) ||
			math.Float64bits(a[i].Posterior) != math.Float64bits(b[i].Posterior) {
			return false
		}
	}
	return true
}

// TestPropertyRankIsTheStableSort is the argument rank rests on: over a
// slice in ascending domain order, "stable, descending by LogPosterior" is
// the total order (LogPosterior desc, Domain asc), so an unstable sort on
// that order gives the same permutation — with heavy ties, a -Inf block and
// both zeros, for Classify's slice and for MergeScores over 1–4 shuffled
// partials. The k-best selection must give that permutation's first k, with
// the same Posterior bits, for every k from 0 to past the end.
func TestPropertyRankIsTheStableSort(t *testing.T) {
	values := []float64{math.Inf(-1), math.Inf(-1), 0, math.Copysign(0, -1), -1.5, -1.5, -7, -700, -1e-300, 3}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		asc := make([]Score, rng.Intn(200))
		for r := range asc {
			asc[r] = Score{Domain: r, LogPosterior: values[rng.Intn(len(values))]}
			if rng.Intn(8) == 0 {
				asc[r].LogPosterior = -10 * rng.Float64()
			}
		}
		want := append([]Score(nil), asc...)
		sort.Stable(byRankDefinition(want))
		got := append([]Score(nil), asc...)
		rank(got)
		if !sameScores(got, want) {
			return false
		}

		want = append(want[:0], asc...)
		normalize(want)
		sort.Stable(byRankDefinition(want))
		partials := make([][]Score, 1+rng.Intn(4))
		for _, s := range asc {
			s.Posterior = rng.Float64() // a shard's local normalization: ignored
			p := rng.Intn(len(partials))
			partials[p] = append(partials[p], s)
		}
		for _, p := range partials {
			rng.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		}
		// The selection is the stable sort's prefix at every k, on
		// classifyInto's domain-ordered slice and through MergeTop.
		for k := 0; k <= len(asc)+1; k++ {
			prefix := want[:min(k, len(want))]
			got, _ := rankTop(slices.Clone(asc), k, make([]Score, 0, k))
			if !sameScores(got, prefix) || !sameScores(MergeTop(partials, k), prefix) {
				return false
			}
		}
		return sameScores(MergeScores(partials), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomModel draws a small corpus over a shared word list, a random
// assignment into 2–5 clusters and random fractional memberships.
func randomModel(t *testing.T, rng *rand.Rand) *core.Model {
	t.Helper()
	words := []string{
		"title", "author", "year", "venue", "make", "model", "price",
		"color", "name", "phone", "genre", "rating", "departure", "airline",
	}
	k := 2 + rng.Intn(4)
	n := k + rng.Intn(8)
	set := make(schema.Set, n)
	assign := make([]int, n)
	memberships := make([][]core.Membership, n)
	for i := range set {
		attrs := make([]string, 2+rng.Intn(3))
		for j := range attrs {
			attrs[j] = words[rng.Intn(len(words))]
		}
		set[i] = schema.Schema{Name: "s", Attributes: attrs}
		assign[i] = rng.Intn(k)
		if i < k {
			assign[i] = i // every cluster non-empty
		}
		memberships[i] = []core.Membership{{Schema: assign[i], Prob: 1}}
		if other := rng.Intn(k); other != assign[i] && rng.Intn(2) == 0 {
			p := 0.1 + 0.8*rng.Float64()
			memberships[i] = []core.Membership{{Schema: assign[i], Prob: p}, {Schema: other, Prob: 1 - p}}
		}
	}
	return modelWithMemberships(t, set, assign, memberships)
}

// TestPropertyOneTableOneLoop fences what the sparse table promises on
// random models — exact, approximate, p overridden, restricted to a local
// subset: no base, default or listed entry is NaN (rank's total order needs
// it) and Explain's score is Classify's LogPosterior bit for bit for every
// domain.
func TestPropertyOneTableOneLoop(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(t, rng)
		cfg := Config{Mode: Mode(rng.Intn(2))}
		if rng.Intn(2) == 0 {
			cfg.P = []float64{0.5, 0.01, 0.99}[rng.Intn(3)]
		}
		if rng.Intn(2) == 0 {
			cfg.Local = rng.Perm(m.NumDomains())[:rng.Intn(m.NumDomains()+1)]
		}
		c, err := New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range [][]float64{c.base, c.def, c.colDelta} {
			for _, v := range table {
				if math.IsNaN(v) {
					t.Fatalf("seed %d (%+v): NaN in the score table", seed, cfg)
				}
			}
		}
		for _, q := range [][]string{{"title", "author"}, {"price", "departure", "name"}, {"zzzz"}, {}} {
			full := c.Classify(q)
			for _, s := range full {
				ex, err := c.Explain(q, s.Domain)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(ex.Score()) != math.Float64bits(s.LogPosterior) {
					t.Fatalf("seed %d (%+v) query %v domain %d: Explain scores %v, Classify %v", seed, cfg, q, s.Domain, ex.Score(), s.LogPosterior)
				}
			}
		}
	}
}

// TestNewLocalMatchesFull pins the shard form of setup: New restricted to a
// local set scores each local domain bit for bit as the full classifier does
// and every other domain -Inf, holds table rows for the local domains alone
// (every column lists local rows only), and rejects ids outside the model.
func TestNewLocalMatchesFull(t *testing.T) {
	set := travelBibSet()
	memberships := [][]core.Membership{
		{{Schema: 0, Prob: 1}},
		{{Schema: 0, Prob: 0.6}, {Schema: 1, Prob: 0.4}},
		{{Schema: 0, Prob: 0.7}, {Schema: 1, Prob: 0.3}},
		{{Schema: 1, Prob: 1}},
		{{Schema: 2, Prob: 1}},
	}
	m := modelWithMemberships(t, set, []int{0, 0, 0, 1, 2}, memberships)
	full, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, local := range [][]int{{}, {1}, {2, 0}, {0, 1, 2}} {
		got, err := New(m, Config{Local: local})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.base) != len(local) || len(got.def) != len(local) {
			t.Fatalf("local %v: table holds %d rows (%d defaults), want %d", local, len(got.base), len(got.def), len(local))
		}
		for _, i := range got.colRow {
			if i < 0 || int(i) >= len(local) {
				t.Fatalf("local %v: a column lists row %d of %d", local, i, len(local))
			}
		}
		for _, q := range [][]string{{"departure", "airline"}, {"title", "year"}, {"zzzz"}} {
			want := make([]Score, m.NumDomains())
			for _, s := range full.Classify(q) {
				want[s.Domain] = Score{Domain: s.Domain, LogPosterior: math.Inf(-1)}
				if slices.Contains(local, s.Domain) {
					want[s.Domain].LogPosterior = s.LogPosterior
				}
			}
			normalize(want)
			sort.Stable(byRankDefinition(want))
			if g := got.Classify(q); !sameScores(g, want) {
				t.Fatalf("local %v query %v: %+v, full classifier cut to the local domains %+v", local, q, g, want)
			}
		}
	}
	for _, bad := range []int{-1, m.NumDomains()} {
		if _, err := New(m, Config{Local: []int{bad}}); err == nil {
			t.Fatalf("local domain %d accepted", bad)
		}
	}
}

// TestClassifyAllocations: beyond embedding the query (term extraction
// allocates per keyword), one Classify or Top allocates the scores slice it
// returns and at most the top-domain metric label. A per-call table, map or
// row buffer shows here first.
func TestClassifyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	m, queries := wideModel(t, 600, 10)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vec := m.Space.QueryVector(nil)
	for _, q := range queries[:4] {
		embed := testing.AllocsPerRun(20, func() { m.Space.QueryVectorInto(q, vec) })
		total := testing.AllocsPerRun(20, func() { sinkScores = c.Classify(q) })
		if total-embed > 2 {
			t.Fatalf("query %v: Classify allocates %v times, %v of them embedding the query; want at most 2 more", q, total, embed)
		}
		top := testing.AllocsPerRun(20, func() { sinkScores = c.Top(q, 3) })
		if top-embed > 2 {
			t.Fatalf("query %v: Top allocates %v times, %v of them embedding the query; want at most 2 more", q, top, embed)
		}
	}
}

// TestNewIsWorkerCountInvariant: New fills its rows from GOMAXPROCS workers
// and transposes them into columns, and every entry of every table must be
// the one a single goroutine computes — compared with ==, at 1, 2 and 7
// workers, over 37 domains, with uncertain members, a domain no schema
// belongs to (prior ≤ 0), both modes and a local subset of 13 rows.
func TestNewIsWorkerCountInvariant(t *testing.T) {
	const per, domains = 10, 37
	set := dataset.Large(dataset.LargeConfig{N: per * domains, Domains: 8, Seed: 3})
	sp := feature.BuildLite(set, feature.DefaultConfig())
	assign := make([]int, len(set))
	memberships := make([][]core.Membership, len(set))
	for i := range set {
		own := i / per
		assign[i] = own
		switch {
		case own == domains-1: // the last cluster's schemas all answer to domain 0
			memberships[i] = []core.Membership{{Schema: 0, Prob: 1}}
		case i%7 == 0:
			memberships[i] = []core.Membership{{Schema: own, Prob: 0.6}, {Schema: (own + 1) % (domains - 1), Prob: 0.4}}
		default:
			memberships[i] = []core.Membership{{Schema: own, Prob: 1}}
		}
	}
	m, err := core.RestoreModel(set, sp, cluster.FromAssignment(assign), memberships, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	local := []int{30, 12, 17, 36, 0, 1, 2, 3, 25, 26, 27, 28, 35}
	configs := map[string]Config{
		"exact":       {},
		"approximate": {Mode: Approximate},
		"local":       {Local: local},
	}
	type tables struct {
		def, colDelta, base, sumLog0, logPrior []float64
		colStart                               []int
		colRow                                 []int32
	}
	build := func(cfg Config) tables {
		c, err := New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tables{def: c.def, colDelta: c.colDelta, base: c.base, sumLog0: c.sumLog0, logPrior: c.logPrior,
			colStart: c.colStart, colRow: c.colRow}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := make(map[string]tables)
	for name, cfg := range configs {
		want[name] = build(cfg)
	}
	if lp := want["exact"].logPrior; !math.IsInf(lp[domains-1], -1) || math.IsInf(lp[0], -1) {
		t.Fatalf("log priors %v: the memberless domain should be the only -Inf", lp)
	}
	if got := len(want["local"].base); got != len(local) {
		t.Fatalf("local table has %d rows; want %d", got, len(local))
	}
	for _, procs := range []int{2, 7} {
		runtime.GOMAXPROCS(procs)
		for name, cfg := range configs {
			got, w := build(cfg), want[name]
			if !slices.Equal(got.def, w.def) || !slices.Equal(got.colStart, w.colStart) ||
				!slices.Equal(got.colRow, w.colRow) || !slices.Equal(got.colDelta, w.colDelta) ||
				!slices.Equal(got.base, w.base) || !slices.Equal(got.sumLog0, w.sumLog0) || !slices.Equal(got.logPrior, w.logPrior) {
				t.Errorf("%s: tables at GOMAXPROCS %d differ from one worker's", name, procs)
			}
		}
	}
}

// TestNewRetainsWhatDomainsMention: at 600 certain domains over a
// ~3.6k-term vocabulary a classifier holds its per-row defaults and the
// terms each domain's members mention, not a dense rows × dim table: New
// retains ≈ 0.28 MB here, where the dense table it kept before the sparse
// columns retained 17.3 MB. Every column lists table rows, strictly
// ascending, as Explain's binary search needs.
func TestNewRetainsWhatDomainsMention(t *testing.T) {
	m, _ := wideModel(t, 6000, 10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := New(m, Config{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 1 << 20
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > ceiling {
		t.Fatalf("New retains %d bytes over %d domains × %d terms; want at most %d", retained, len(c.base), m.Space.Dim(), ceiling)
	}
	dim := m.Space.Dim()
	if len(c.colStart) != dim+1 || c.colStart[0] != 0 || c.colStart[dim] != len(c.colRow) || len(c.colRow) != len(c.colDelta) {
		t.Fatalf("column index: %d starts for dim %d, first %d, last %d, %d rows and %d adjustments listed",
			len(c.colStart), dim, c.colStart[0], c.colStart[len(c.colStart)-1], len(c.colRow), len(c.colDelta))
	}
	for j := 0; j < dim; j++ {
		rows := c.colRow[c.colStart[j]:c.colStart[j+1]]
		for k, i := range rows {
			if i < 0 || int(i) >= len(c.base) || k > 0 && rows[k-1] >= i {
				t.Fatalf("column %d lists rows %v: want strictly ascending rows of [0,%d)", j, rows, len(c.base))
			}
		}
	}
}

// TestTableBytesCountsEverySlice: TableBytes is the sum of len × element
// size over every slice the classifier holds.
func TestTableBytesCountsEverySlice(t *testing.T) {
	c, err := New(buildModel(t, travelBibSet(), 0.2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	v := reflect.ValueOf(c).Elem()
	for f := 0; f < v.NumField(); f++ {
		if field := v.Field(f); field.Kind() == reflect.Slice {
			want += field.Len() * int(field.Type().Elem().Size())
		}
	}
	if got := c.TableBytes(); got != want || got == 0 {
		t.Fatalf("TableBytes() = %d; the classifier's slices hold %d", got, want)
	}
}
