package experiments

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"schemaflow/internal/cluster"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
	"schemaflow/internal/terms"
)

// TestTermFrequencyRowsAreTheDefinition pins the pair graph of the feature
// ablation's term-frequency run against the definition worked out by brute
// force over every pair of a small corpus: schema i's count of vocabulary term
// b is the number of term occurrences t of its attributes with t = L_b or
// t_sim(t, L_b) ≥ τ_t_sim — the similarity itself, not the match lists — and
// two schemas are Σ min / Σ max of their counts apart. Every positive pair
// must be stored with that float64 and no other pair stored. The corpus
// repeats "departure" in one schema, so counting differs from the binary
// Jaccard somewhere.
func TestTermFrequencyRowsAreTheDefinition(t *testing.T) {
	set := schema.Set{
		{Name: "a", Attributes: []string{"departure airport", "departure city", "airline"}},
		{Name: "b", Attributes: []string{"departure airport", "airline"}},
		{Name: "c", Attributes: []string{"make", "model"}},
	}
	set = append(set, dataset.DW(DefaultSeed)[:40]...)
	cfg := feature.DefaultConfig()
	sp := feature.BuildLite(set, cfg)
	counts := make([][]int, len(set))
	for i, s := range set {
		counts[i] = make([]int, sp.Dim())
		for _, a := range s.Attributes {
			for _, term := range terms.FromAttribute(a, cfg.TermOpts) {
				for b, l := range sp.Vocab {
					if term == l || cfg.Sim.Sim(term, l) >= cfg.Tau {
						counts[i][b]++
					}
				}
			}
		}
	}
	ps, err := cluster.PairSimsFromRows(context.Background(), len(set), 0, termFrequencyRows(set, sp))
	if err != nil {
		t.Fatal(err)
	}
	stored, differs := 0, false
	for i := range set {
		for j := range set {
			if i == j {
				continue
			}
			lo, hi := 0, 0
			for b := range counts[i] {
				lo += min(counts[i][b], counts[j][b])
				hi += max(counts[i][b], counts[j][b])
			}
			want := 0.0
			if hi > 0 {
				want = float64(lo) / float64(hi)
			}
			if got := ps.Sim(i, j); got != want {
				t.Fatalf("pair (%d, %d): stored %v, the counts' Σmin/Σmax %v", i, j, got, want)
			}
			if want > 0 {
				stored++
			}
			differs = differs || want != sp.Similarity(i, j)
		}
	}
	if stored != 2*ps.NumPairs() || stored == 0 {
		t.Fatalf("%d positive ordered pairs, %d stored pairs", stored, ps.NumPairs())
	}
	if !differs {
		t.Fatal("every term-frequency similarity equals the binary Jaccard; the corpus tests nothing")
	}
	if ps.Sim(0, 1) >= 1 || ps.Sim(0, 2) >= ps.Sim(0, 1) {
		t.Fatalf("sim(a,b) = %v should be below 1 and above sim(a,c) = %v", ps.Sim(0, 1), ps.Sim(0, 2))
	}
}

func TestGeneralizedJaccard(t *testing.T) {
	tests := []struct {
		a, b []int32
		want float64
	}{
		{[]int32{1, 2, 0}, []int32{1, 2, 0}, 1},
		{[]int32{1, 0}, []int32{0, 1}, 0},
		{[]int32{2, 1}, []int32{1, 1}, 2.0 / 3},
		{[]int32{0, 0}, []int32{0, 0}, 0},
	}
	for _, tc := range tests {
		if got := generalizedJaccard(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("generalizedJaccard(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPropertyGeneralizedJaccard(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a := make([]int32, n)
		b := make([]int32, n)
		nonzero := false
		for i := range a {
			a[i] = int32(rng.Intn(4))
			b[i] = int32(rng.Intn(4))
			nonzero = nonzero || a[i] != 0
		}
		v := generalizedJaccard(a, b)
		if v != generalizedJaccard(b, a) || v < 0 || v > 1 {
			return false
		}
		// Identity.
		return generalizedJaccard(a, a) == 1 || !nonzero
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
