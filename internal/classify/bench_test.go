package classify

import (
	"math/rand"
	"testing"
	"time"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// benchModel builds a model with a controllable number of uncertain schemas
// per domain, which is the exponent of exact setup (Section 5.3).
func benchModel(tb testing.TB, nPerDomain, uncertainPerDomain int) *core.Model {
	tb.Helper()
	words := [][]string{
		{"title", "authors", "publication year", "venue", "pages", "publisher"},
		{"make", "model", "mileage", "price", "color", "transmission"},
	}
	rng := rand.New(rand.NewSource(5))
	var set schema.Set
	for d := 0; d < 2; d++ {
		for i := 0; i < nPerDomain; i++ {
			attrs := make([]string, 4)
			perm := rng.Perm(len(words[d]))
			for j := range attrs {
				attrs[j] = words[d][perm[j]]
			}
			set = append(set, schema.Schema{Name: "s", Attributes: attrs})
		}
	}
	sp := feature.BuildLite(set, feature.DefaultConfig())
	assign := make([]int, len(set))
	memberships := make([][]core.Membership, len(set))
	for i := range set {
		d := 0
		if i >= nPerDomain {
			d = 1
		}
		assign[i] = d
		if i%nPerDomain < uncertainPerDomain {
			memberships[i] = []core.Membership{
				{Schema: 0, Prob: 0.6},
				{Schema: 1, Prob: 0.4},
			}
		} else {
			memberships[i] = []core.Membership{{Schema: d, Prob: 1}}
		}
	}
	cl := cluster.FromAssignment(assign)
	m, err := core.RestoreModel(set, sp, cl, memberships, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func benchSetup(b *testing.B, uncertain int, mode Mode) {
	m := benchModel(b, 50, uncertain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(m, Config{Mode: mode}); err != nil {
			b.Fatal(err)
		}
	}
}

// Exact setup over k uncertain members per domain costs O(k³) for the size
// distributions plus the members' terms; every uncertain schema here belongs
// to both domains, so k is twice benchSetup's parameter.
func BenchmarkSetupExactK0(b *testing.B)   { benchSetup(b, 0, Exact) }
func BenchmarkSetupExactK8(b *testing.B)   { benchSetup(b, 4, Exact) }
func BenchmarkSetupExactK16(b *testing.B)  { benchSetup(b, 8, Exact) }
func BenchmarkSetupExactK32(b *testing.B)  { benchSetup(b, 16, Exact) }
func BenchmarkSetupApproxK16(b *testing.B) { benchSetup(b, 8, Approximate) }

// BenchmarkSetupWide is New at ~2,000 certain domains over a ~12k-term
// vocabulary, the scale where a dense rows × dim table would be ~190 MB;
// table-MB is what the classifier holds (TableBytes).
func BenchmarkSetupWide(b *testing.B) {
	m, _ := wideModel(b, 20000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	var c *Classifier
	for i := 0; i < b.N; i++ {
		var err error
		if c, err = New(m, Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.TableBytes())/1e6, "table-MB")
}

func BenchmarkClassifyQuery(b *testing.B) {
	m := benchModel(b, 50, 4)
	c, err := New(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	q := []string{"title", "authors", "price"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Classify(q)
	}
}

// wideModel is a model at the scale where scoring, normalizing and ranking
// show beside term matching: n dataset.Large schemas, every per consecutive
// ones (they share a ground-truth domain) made one certain domain. At
// (6000, 10) that is 600 domains over a ~3.6k-term vocabulary, the
// over-split shape clustering gives the benchmark's classify-wide corpus.
// The queries are 2–4 attributes of one random schema each.
func wideModel(tb testing.TB, n, per int) (*core.Model, [][]string) {
	tb.Helper()
	set := dataset.Large(dataset.LargeConfig{N: n, Domains: n / (5 * per), Seed: 7})
	sp := feature.BuildLite(set, feature.DefaultConfig())
	assign := make([]int, len(set))
	memberships := make([][]core.Membership, len(set))
	for i := range set {
		assign[i] = i / per
		memberships[i] = []core.Membership{{Schema: assign[i], Prob: 1}}
	}
	m, err := core.RestoreModel(set, sp, cluster.FromAssignment(assign), memberships, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	queries := make([][]string, 256)
	for i := range queries {
		attrs := set[rng.Intn(len(set))].Attributes
		for _, j := range rng.Perm(len(attrs))[:min(len(attrs), 2+rng.Intn(3))] {
			queries[i] = append(queries[i], attrs[j])
		}
	}
	return m, queries
}

var sinkScores []Score

// BenchmarkClassifyWide's 50 domains hide everything but term matching;
// this one runs Top at the benchmark's classify-wide scale — top3 is the
// shape the server answers by default, all is Classify's full ranking — and
// then splits one more pass over the same queries into the phases
// classifyInto runs, so a regression names its phase. rank-ns is the k-best
// selection for top3 and the sort for all; normalize-ns is the log-sum-exp
// over every domain in both.
func BenchmarkClassifyWide(b *testing.B) {
	m, queries := wideModel(b, 6000, 10)
	c, err := New(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		k    int
	}{{"top3", 3}, {"all", m.NumDomains()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkScores = c.Top(queries[i%len(queries)], bc.k)
			}
			b.StopTimer()

			var embed, score, norm, sorted time.Duration
			sc := c.scratch.Get().(*queryScratch)
			asc := make([]Score, 0, m.NumDomains())
			out := make([]Score, 0, bc.k)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				c.embed(queries[i%len(queries)], sc)
				t1 := time.Now()
				c.score(sc)
				asc = asc[:0]
				for r := range c.row {
					asc = append(asc, Score{Domain: r, LogPosterior: c.logPosterior(sc, r)})
				}
				t2 := time.Now()
				var nrm, sel time.Duration
				if bc.k < len(asc) {
					top := selectTop(asc, bc.k, out[:0])
					t3 := time.Now()
					normalizeTop(asc, top)
					sel, nrm = t3.Sub(t2), time.Since(t3)
				} else {
					normalize(asc)
					t3 := time.Now()
					rank(asc)
					nrm, sel = t3.Sub(t2), time.Since(t3)
				}
				embed, score, norm, sorted = embed+t1.Sub(t0), score+t2.Sub(t1), norm+nrm, sorted+sel
			}
			for name, d := range map[string]time.Duration{"embed-ns": embed, "score-ns": score, "normalize-ns": norm, "rank-ns": sorted} {
				b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), name)
			}
		})
	}
}
