package payg

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/eval"
)

// fidelity is how closely a blocked build tracks the exact build of the same
// corpus, and the labels.
type fidelity struct {
	// f1Exact and f1Labels are the pairwise F1 of the blocked build's
	// Algorithm 2 clustering against the exact build's and against the
	// generator's labels.
	f1Exact, f1Labels float64
	// maxDP and meanDP compare Algorithm 3 over the blocked graph with
	// Algorithm 3 over every positive pair, on the blocked build's
	// clustering: the largest |Δp| of any (schema, domain) membership, and
	// the sum of |Δp| per schema.
	maxDP, meanDP float64
	// top3 is the share of the exact build's top-3 domains the blocked
	// build's top 3 also name, over the 200 queries TestClassifyDigest
	// serves; a blocked domain names the exact domain its cluster shares
	// the most members with.
	top3 float64
}

func measureFidelity(t *testing.T, set []Schema) fidelity {
	t.Helper()
	blocked, err := Build(set, Options{CandidateGen: "lsh", SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Build(set, Options{CandidateGen: "exact", SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	var f fidelity
	ba, ea := assignOf(blocked), assignOf(exact)
	f.f1Exact = eval.PairwiseF1(ba, ea)
	labels, ids := make([]int, len(set)), map[string]int{}
	for i, s := range set {
		if _, ok := ids[s.Labels[0]]; !ok {
			ids[s.Labels[0]] = len(ids)
		}
		labels[i] = ids[s.Labels[0]]
	}
	f.f1Labels = eval.PairwiseF1(ba, labels)

	bm := blocked.Model()
	full, err := core.AssignDomainsRows(set, bm.Space, bm.Clustering, 0, bm.Opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set {
		for _, m := range bm.DomainsOf(i) {
			d := math.Abs(m.Prob - full.Prob(i, m.Schema))
			f.maxDP, f.meanDP = math.Max(f.maxDP, d), f.meanDP+d/float64(len(set))
		}
		for _, m := range full.DomainsOf(i) {
			if bm.Prob(i, m.Schema) == 0 {
				f.maxDP, f.meanDP = math.Max(f.maxDP, m.Prob), f.meanDP+m.Prob/float64(len(set))
			}
		}
	}

	overlap := make([]map[int]int, blocked.NumDomains())
	for i, r := range ba {
		if overlap[r] == nil {
			overlap[r] = map[int]int{}
		}
		overlap[r][ea[i]]++
	}
	match := make([]int, len(overlap))
	for r, o := range overlap {
		best := -1
		for e, c := range o {
			if best < 0 || c > o[best] || c == o[best] && e < best {
				best = e
			}
		}
		match[r] = best
	}
	rng := rand.New(rand.NewSource(30))
	const queries = 200
	for range queries {
		attrs := set[rng.Intn(len(set))].Attributes
		var kw []string
		for _, j := range rng.Perm(len(attrs))[:min(len(attrs), 2+rng.Intn(3))] {
			kw = append(kw, attrs[j])
		}
		words := strings.Fields(strings.Join(kw, " "))
		want, got := map[int]bool{}, map[int]bool{}
		for _, s := range exact.ClassifyTop(words, 3) {
			want[s.Domain] = true
		}
		for _, s := range blocked.ClassifyTop(words, 3) {
			if e := match[s.Domain]; want[e] && !got[e] {
				got[e] = true
				f.top3 += 1.0 / (3 * queries)
			}
		}
	}
	return f
}

// TestBlockedBuildFidelity is the fence on the blocked build's pair graph:
// on the gated corpus' shape over five seeds, and at the size where "auto"
// starts blocking, the similarity floor must track the exact build and the
// labels at least as well as the MinHash-LSH band test it replaced. The bars
// are that band test's own numbers (128 bands × 2 rows, measured at the
// commit before it was deleted), per corpus for the four graded measures;
// max |Δp| is one schema's membership moving between two domains, which the
// band test did on four of the six corpora, so its bar is the fence's worst
// case. docs/runs/PR-41.txt has both builds' tables. Six blocked and six
// exact builds; gated like the reproduction check (make repro-check).
func TestBlockedBuildFidelity(t *testing.T) {
	if os.Getenv("PAYG_REPRO") == "" {
		t.Skip("set PAYG_REPRO=1 (or run make repro-check)")
	}
	const maxDPBar = 1.0
	for _, tc := range []struct {
		cfg dataset.LargeConfig
		bar fidelity // the band test's; maxDP unused
	}{
		{dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1}, fidelity{f1Exact: 0.9803, f1Labels: 0.7932, meanDP: 0.00334, top3: 0.9433}},
		{dataset.LargeConfig{N: 6000, Domains: 120, Seed: 2}, fidelity{f1Exact: 0.9826, f1Labels: 0.7883, meanDP: 0.00483, top3: 0.9650}},
		{dataset.LargeConfig{N: 6000, Domains: 120, Seed: 3}, fidelity{f1Exact: 0.9805, f1Labels: 0.7735, meanDP: 0.00562, top3: 0.9433}},
		{dataset.LargeConfig{N: 6000, Domains: 120, Seed: 4}, fidelity{f1Exact: 0.9843, f1Labels: 0.7841, meanDP: 0.00417, top3: 0.9533}},
		{dataset.LargeConfig{N: 6000, Domains: 120, Seed: 5}, fidelity{f1Exact: 0.9747, f1Labels: 0.7630, meanDP: 0.00335, top3: 0.9483}},
		{dataset.LargeConfig{N: 4096, Domains: 82, Seed: 1}, fidelity{f1Exact: 0.9804, f1Labels: 0.7764, meanDP: 0.00375, top3: 0.9500}},
	} {
		f, bar := measureFidelity(t, dataset.Large(tc.cfg)), tc.bar
		t.Logf("Large{%d,%d,%d}: F1 vs exact %.4f, vs labels %.4f; Algorithm 3 max |Δp| %.4f, mean %.5f; top-3 agreement %.4f",
			tc.cfg.N, tc.cfg.Domains, tc.cfg.Seed, f.f1Exact, f.f1Labels, f.maxDP, f.meanDP, f.top3)
		if f.f1Exact < bar.f1Exact || f.f1Labels < bar.f1Labels || f.meanDP > bar.meanDP || f.top3 < bar.top3 || f.maxDP > maxDPBar {
			t.Errorf("Large{%d,%d,%d} misses a bar: got %+v, bars %+v with max |Δp| ≤ %v", tc.cfg.N, tc.cfg.Domains, tc.cfg.Seed, f, bar, maxDPBar)
		}
	}
}
