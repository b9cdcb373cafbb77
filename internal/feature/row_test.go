package feature

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"schemaflow/internal/schema"
)

var rowWords = []string{"depart", "departure", "arrival", "airline", "author", "authors", "title", "publish", "price", "cost", "hotel", "room", "mineral", "species"}

// rowCorpus draws n schemas of one to four attributes, each one or two words
// from a pool small enough that many pairs share a bit and many do not; one
// schema in ten has a single short attribute that extraction drops, so it
// has an empty vector.
func rowCorpus(rng *rand.Rand, n int) schema.Set {
	set := make(schema.Set, n)
	for i := range set {
		attrs := make([]string, 1+rng.Intn(4))
		for k := range attrs {
			words := make([]string, 1+rng.Intn(2))
			for w := range words {
				words[w] = rowWords[rng.Intn(len(rowWords))]
			}
			attrs[k] = strings.Join(words, " ")
		}
		if rng.Intn(10) == 0 {
			attrs = []string{"ab"}
		}
		set[i] = schema.Schema{Name: fmt.Sprintf("s%d", i), Attributes: attrs}
	}
	return set
}

// jaccard is |a ∩ b| / |a ∪ b| of two duplicate-free bit lists, 0 when both
// are empty.
func jaccard(a, b []int32) float64 {
	inter := 0
	for _, x := range a {
		if slices.Contains(b, x) {
			inter++
		}
	}
	if len(a)+len(b) == 0 {
		return 0
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// TestPropertyRowIsTheDefinition holds Space.Row to Similarity, and
// Similarity to the Jaccard coefficient of the two bit lists: for every
// schema i and every from, the row is exactly [(j, Similarity(i, j)) : j >
// from, j ≠ i, Similarity(i, j) > 0], ascending, compared with ==. It covers
// LCS and the asymmetric prefixSim, on a BuildLite space over a random corpus
// and on one over that corpus grown by arrivals with novel words, with one
// RowBuf reused across every call.
func TestPropertyRowIsTheDefinition(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		if seed%2 == 1 {
			cfg.Sim, cfg.Tau = prefixSim{}, 0.6
		}
		set := rowCorpus(rng, 30+rng.Intn(20))
		grownSet := slices.Clone(set)
		for k := 0; k < 6; k++ {
			grownSet = append(grownSet, probeSchema(rng, fmt.Sprintf("grown%d", k), probeWord))
		}
		var buf RowBuf
		for label, sp := range map[string]*Space{"corpus": BuildLite(set, cfg), "grown": BuildLite(grownSet, cfg)} {
			name := fmt.Sprintf("seed %d, %s, %s", seed, cfg.Sim.Name(), label)
			positive := 0
			for i := 0; i < sp.NumSchemas(); i++ {
				for from := -1; from < sp.NumSchemas(); from++ {
					js, sims := sp.Row(i, from, &buf)
					if len(js) != len(sims) {
						t.Fatalf("%s: Row(%d, %d) lists %d schemas and %d similarities", name, i, from, len(js), len(sims))
					}
					k := 0
					for j := from + 1; j < sp.NumSchemas(); j++ {
						want := sp.Similarity(i, j)
						if j != i && want != jaccard(sp.Bits(i), sp.Bits(j)) {
							t.Fatalf("%s: Similarity(%d, %d) = %v, the Jaccard of %v and %v is %v", name, i, j, want, sp.Bits(i), sp.Bits(j), jaccard(sp.Bits(i), sp.Bits(j)))
						}
						if j == i || want == 0 {
							continue
						}
						if k >= len(js) || int(js[k]) != j || sims[k] != want {
							t.Fatalf("%s: Row(%d, %d) = %v %v; entry %d should be (%d, %v)", name, i, from, js, sims, k, j, want)
						}
						k++
					}
					if k != len(js) {
						t.Fatalf("%s: Row(%d, %d) = %v, only the first %d are positive similarities", name, i, from, js, k)
					}
					if from == -1 {
						positive += k
					}
				}
			}
			if n := sp.NumSchemas(); positive == 0 || positive == n*(n-1) {
				t.Fatalf("%s: %d positive similarities among %d schemas; the corpus should have zeros and non-zeros", name, positive, n)
			}
		}
	}
}
