package ingest_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/feature"
	"schemaflow/internal/feedback"
	"schemaflow/internal/ingest"
	"schemaflow/internal/schema"
)

// prefixSim is asymmetric: sim(a, b) = 1 iff a is a prefix of b. Under it the
// bit a schema sets for a vocabulary term says nothing about the reverse
// direction, so anything derived from the term relation instead of the
// vectors themselves goes wrong.
type prefixSim struct{}

func (prefixSim) Sim(a, b string) float64 {
	if len(a) <= len(b) && b[:len(a)] == a {
		return 1
	}
	return 0
}
func (prefixSim) Name() string { return "prefix" }

var (
	propStems    = []string{"depart", "arriv", "airlin", "author", "titl", "publish", "price", "cost", "hotel", "room", "speci", "miner"}
	propSuffixes = []string{"", "s", "ure", "ing", "al", "er"}
)

// propWord draws from a pool small enough that schemas share terms and that
// near-duplicates ("departs" / "departure") match under LCS at 0.8.
func propWord(rng *rand.Rand) string {
	return propStems[rng.Intn(len(propStems))] + propSuffixes[rng.Intn(len(propSuffixes))]
}

// novelWord is outside that pool: letters no stem contains.
func novelWord(rng *rand.Rand) string {
	b := make([]byte, 4+rng.Intn(4))
	for i := range b {
		b[i] = "jkqwxyz"[rng.Intn(7)]
	}
	return string(b)
}

func propSchema(rng *rand.Rand, name string, word func(*rand.Rand) string) schema.Schema {
	s := schema.Schema{Name: name}
	for k := 1 + rng.Intn(5); k > 0; k-- {
		attr := word(rng)
		if rng.Intn(3) == 0 {
			attr += " " + word(rng)
		}
		s.Attributes = append(s.Attributes, attr)
	}
	return s
}

// exactFloor is the pair floor of an exact build, whose graph AddSchema
// grows the model over: every positive pair.
func exactFloor(int) float64 { return 0 }

// randomModel is a random clustering (not Algorithm 2's: the comparison must
// hold for any) over a random corpus, grown by 0–3 AddSchemas, some of whose
// arrivals bring novel terms.
func randomModel(t *testing.T, rng *rand.Rand, cfg feature.Config) *core.Model {
	t.Helper()
	n := 2 + rng.Intn(40)
	set := make(schema.Set, n)
	for i := range set {
		word := propWord
		if rng.Intn(8) == 0 {
			word = novelWord // a schema nothing else matches
		}
		set[i] = propSchema(rng, fmt.Sprintf("s%d", i), word)
	}
	k := 1 + rng.Intn(8)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(k)
	}
	opts := core.Options{
		TauCSim: []float64{0, 0.1, 0.25}[rng.Intn(3)],
		Theta:   []float64{0, 0.02, 0.3}[rng.Intn(3)],
	}
	m, err := core.AssignDomains(set, feature.BuildLite(set, cfg), cluster.FromAssignment(assign), opts)
	if err != nil {
		t.Fatal(err)
	}
	for grow := rng.Intn(4); grow > 0; grow-- {
		word := propWord
		if rng.Intn(2) == 0 {
			word = novelWord
		}
		m, _, err = feedback.AddSchema(m, propSchema(rng, fmt.Sprintf("grown%d", grow), word), exactFloor)
		if err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestPropertyComparisonIsTheDefinition: the posting-driven comparison in
// AssignRestricted is s_c_sim as defined — cluster.SchemaClusterSim over
// Members[r] — to the last bit, for every domain, and so are Best, BestSim,
// Domains and Fresh, under a symmetric and an asymmetric term similarity, on
// models grown by AddSchema, for arrivals with only novel terms, no novel
// term, or nothing that matches, and under any include restriction. The
// definition reads the arrival's similarities off BuildLite over the model's
// schemas followed by the arrival.
func TestPropertyComparisonIsTheDefinition(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := feature.DefaultConfig()
		if seed%3 == 1 {
			cfg.Sim, cfg.Tau = prefixSim{}, 0.6
		}
		m := randomModel(t, rng, cfg)
		nD := m.NumDomains()

		arrivals := []schema.Schema{
			propSchema(rng, "mixed", func(rng *rand.Rand) string {
				if rng.Intn(2) == 0 {
					return novelWord(rng)
				}
				return propWord(rng)
			}),
			propSchema(rng, "all-novel", novelWord),
			{Name: "no-novel", Attributes: m.Schemas[rng.Intn(len(m.Schemas))].Attributes},
			{Name: "no-match", Attributes: []string{"ffffff", "gggggg vvvvvv"}},
		}
		for _, s := range arrivals {
			// The definition, over the grown set.
			newIdx := len(m.Schemas)
			sp := feature.BuildLite(append(m.Schemas[:newIdx:newIdx], s), cfg)
			want := make([]float64, nD)
			for r := range want {
				want[r] = cluster.SchemaClusterSim(sp, newIdx, m.Clustering.Members[r])
			}

			includes := []func(r int) bool{nil, func(int) bool { return false }}
			for r := 0; r < nD; r++ {
				includes = append(includes, func(x int) bool { return x == r }) // reads sims[r] back as BestSim
			}
			for k := 0; k < 3; k++ {
				in := make([]bool, nD)
				for r := range in {
					in[r] = rng.Intn(2) == 0
				}
				includes = append(includes, func(r int) bool { return in[r] })
			}
			for ii, include := range includes {
				got, err := ingest.AssignRestricted(m, s, include)
				if err != nil {
					t.Fatal(err)
				}
				exp := &ingest.Assignment{Best: -1}
				var cands []int
				if include != nil {
					cands = []int{}
				}
				sims := make([]float64, nD)
				for r := 0; r < nD; r++ {
					if include != nil {
						if !include(r) {
							continue
						}
						cands = append(cands, r)
					}
					sims[r] = want[r]
					if sims[r] > exp.BestSim {
						exp.BestSim, exp.Best = sims[r], r
					}
				}
				exp.Domains = core.Gate(sims, cands, m.Opts)
				exp.Fresh = len(exp.Domains) == 0
				if got.Best != exp.Best || math.Float64bits(got.BestSim) != math.Float64bits(exp.BestSim) ||
					got.Fresh != exp.Fresh || !reflect.DeepEqual(got.Domains, exp.Domains) {
					t.Fatalf("seed %d (%s) arrival %s include #%d:\n got %+v\nwant %+v", seed, cfg.Sim.Name(), s.Name, ii, got, exp)
				}
			}
		}
	}
}
