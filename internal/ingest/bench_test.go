package ingest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// benchSet generates a deterministic synthetic corpus: five domain templates
// with randomly dropped attributes plus mutated suffix variants, so arriving
// schemas carry a mix of known vocabulary and novel terms — the load profile
// incremental extension is built for.
func benchSet(n int, seed int64) schema.Set {
	rng := rand.New(rand.NewSource(seed))
	domains := [][]string{
		{"title", "author", "publication year", "venue", "pages", "abstract"},
		{"make", "model", "mileage", "price", "transmission", "fuel type"},
		{"departure city", "arrival city", "airline", "flight number", "fare"},
		{"hotel name", "check in date", "check out date", "room rate", "guests"},
		{"song title", "artist name", "album", "duration", "genre"},
	}
	variants := []string{"", "s", "ing", "number", "code", "info"}
	set := make(schema.Set, 0, n)
	for i := 0; i < n; i++ {
		dom := domains[i%len(domains)]
		var attrs []string
		for _, a := range dom {
			if rng.Intn(10) < 7 {
				attrs = append(attrs, a)
			}
		}
		for k := 0; k < 2; k++ {
			base := dom[rng.Intn(len(dom))]
			attrs = append(attrs, fmt.Sprintf("%s %s%02d", base, variants[rng.Intn(len(variants))], rng.Intn(30)))
		}
		if len(attrs) == 0 {
			attrs = dom[:1]
		}
		set = append(set, schema.Schema{Name: fmt.Sprintf("s%04d", i), Attributes: attrs})
	}
	return set
}

// benchModel builds a model over n synthetic schemas. The clustering comes
// from the generator's known template labels rather than HAC — Assign's cost
// does not depend on how the partition was found, and this keeps setup
// linear in n.
func benchModel(tb testing.TB, n int) (*core.Model, schema.Set, feature.Config) {
	tb.Helper()
	set := benchSet(n, 1)
	cfg := feature.DefaultConfig()
	sp := feature.BuildLite(set, cfg)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % 5
	}
	m, err := core.AssignDomains(set, sp, cluster.FromAssignment(assign), core.Options{TauCSim: 0.2, Theta: 0.02})
	if err != nil {
		tb.Fatal(err)
	}
	return m, set, cfg
}

// benchArrival is a held-out schema of the first template carrying two novel
// suffixed terms, matching the generator's arrival profile.
func benchArrival() schema.Schema {
	return schema.Schema{
		Name:       "arrival",
		Attributes: []string{"title", "author", "venue", "pages rev99", "abstract draft98"},
	}
}

// assignByRebuild is the pre-incremental Assign: rebuild the feature space
// over all n+1 schemas for every arrival, then run the same Algorithm 3
// gates. Kept as the benchmark baseline the incremental path is measured
// against.
func assignByRebuild(m *core.Model, set schema.Set, cfg feature.Config, s schema.Schema) *Assignment {
	union := append(append(schema.Set{}, set...), s)
	sp := feature.BuildLite(union, cfg)
	newIdx := len(union) - 1

	nD := m.NumDomains()
	sims := make([]float64, nD)
	a := &Assignment{Best: -1}
	for r := 0; r < nD; r++ {
		sims[r] = cluster.SchemaClusterSim(sp, newIdx, m.Clustering.Members[r])
		if sims[r] > a.BestSim {
			a.BestSim, a.Best = sims[r], r
		}
	}
	var ds []int
	total := 0.0
	for r := 0; r < nD; r++ {
		if sims[r] >= m.Opts.TauCSim && a.BestSim > 0 && sims[r]/a.BestSim >= 1-m.Opts.Theta {
			ds = append(ds, r)
			total += sims[r]
		}
	}
	if len(ds) == 0 {
		a.Fresh = true
		return a
	}
	for _, r := range ds {
		a.Domains = append(a.Domains, core.Membership{Schema: r, Prob: sims[r] / total})
	}
	return a
}

func benchAssignIncremental(b *testing.B, n int) {
	m, _, _ := benchModel(b, n)
	s := benchArrival()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Assign(m, s)
		if err != nil {
			b.Fatal(err)
		}
		if a.Fresh {
			b.Fatal("arrival unexpectedly fresh")
		}
	}
}

func benchAssignRebuild(b *testing.B, n int) {
	m, set, cfg := benchModel(b, n)
	s := benchArrival()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := assignByRebuild(m, set, cfg, s)
		if a.Fresh {
			b.Fatal("arrival unexpectedly fresh")
		}
	}
}

// largeModel serves n schemas of a dataset.Large corpus over 24 domains —
// the corpus of 5n/4 schemas with every fifth one held out — clustered by
// their ground-truth domains, and returns one arrival: the first held-out
// schema plus a misspelling of its first attribute, a novel term that
// matches known ones. The arrival is the same schema at every n.
func largeModel(tb testing.TB, n int) (*core.Model, schema.Schema) {
	tb.Helper()
	corpus := dataset.Large(dataset.LargeConfig{N: n + n/4, Domains: 24, Seed: 1})
	var set, held schema.Set
	for i, s := range corpus {
		if i%5 == 4 {
			held = append(held, s)
		} else {
			set = append(set, s)
		}
	}
	domainOf := map[string]int{}
	assign := make([]int, len(set))
	for i, s := range set {
		d, ok := domainOf[s.Labels[0]]
		if !ok {
			d = len(domainOf)
			domainOf[s.Labels[0]] = d
		}
		assign[i] = d
	}
	m, err := core.AssignDomains(set, feature.BuildLite(set, feature.DefaultConfig()), cluster.FromAssignment(assign), core.Options{TauCSim: 0.2, Theta: 0.02})
	if err != nil {
		tb.Fatal(err)
	}
	s := held[0]
	s.Name = "arrival"
	s.Attributes = append(slices.Clone(s.Attributes), s.Attributes[0]+"x")
	return m, s
}

// TestAssignAllocatesPerArrivalNotPerCorpus: the arrival is scored on the
// serving space, not on a copy of it, so what Assign allocates does not grow
// with the corpus — the same count at 1,500 and 3,000 schemas, and a few
// dozen (building the extended space for the comparison cost 1,731 and
// 3,358).
func TestAssignAllocatesPerArrivalNotPerCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	var allocs []float64
	for _, n := range []int{1500, 3000} {
		m, s := largeModel(t, n)
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			if _, err := Assign(m, s); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] > 64 {
		t.Fatalf("Assign allocates %v times per arrival at 1,500 schemas and %v at 3,000; want the same count, at most 64", allocs[0], allocs[1])
	}
}

// sinkAssignment keeps the compiler from dropping a benchmarked Assign.
var sinkAssignment *Assignment

func benchAssignLarge(b *testing.B, n int) {
	m, s := largeModel(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Assign(m, s)
		if err != nil {
			b.Fatal(err)
		}
		sinkAssignment = a
	}
}

func BenchmarkAssignLarge1500(b *testing.B) { benchAssignLarge(b, 1500) }
func BenchmarkAssignLarge3000(b *testing.B) { benchAssignLarge(b, 3000) }

func BenchmarkAssignIncremental300(b *testing.B)  { benchAssignIncremental(b, 300) }
func BenchmarkAssignRebuild300(b *testing.B)      { benchAssignRebuild(b, 300) }
func BenchmarkAssignIncremental1000(b *testing.B) { benchAssignIncremental(b, 1000) }
func BenchmarkAssignRebuild1000(b *testing.B)     { benchAssignRebuild(b, 1000) }

// TestAssignEquivalentToRebuild pins that the benchmark pair measures the
// same computation: for a stream of arrivals, the incremental path and the
// rebuild-per-arrival path produce identical assignments.
func TestAssignEquivalentToRebuild(t *testing.T) {
	m, set, cfg := benchModel(t, 100)
	arrivals := append(schema.Set{benchArrival()}, benchSet(10, 42)...)
	for _, s := range arrivals {
		inc, err := Assign(m, s)
		if err != nil {
			t.Fatal(err)
		}
		reb := assignByRebuild(m, set, cfg, s)
		if inc.Best != reb.Best || inc.BestSim != reb.BestSim || inc.Fresh != reb.Fresh {
			t.Fatalf("%s: incremental %+v != rebuild %+v", s.Name, inc, reb)
		}
		if len(inc.Domains) != len(reb.Domains) {
			t.Fatalf("%s: domains %+v != %+v", s.Name, inc.Domains, reb.Domains)
		}
		for k := range inc.Domains {
			if inc.Domains[k] != reb.Domains[k] {
				t.Fatalf("%s: membership %d: %+v != %+v", s.Name, k, inc.Domains[k], reb.Domains[k])
			}
		}
	}
}
