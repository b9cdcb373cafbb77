package feature

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"schemaflow/internal/schema"
)

// probeWord draws an arrival's attribute word: a known word, a known word
// grown by a suffix or cut to a prefix (novel terms that match known ones,
// forwards, backwards or both, under LCS and under prefixSim), or a word of
// letters no known word holds.
func probeWord(rng *rand.Rand) string {
	w := rowWords[rng.Intn(len(rowWords))]
	switch rng.Intn(4) {
	case 0:
		return w + []string{"s", "ing", "al"}[rng.Intn(3)]
	case 1:
		return w[:4+rng.Intn(len(w)-3)]
	case 2:
		return novelProbeWord(rng)
	}
	return w
}

func novelProbeWord(rng *rand.Rand) string {
	b := make([]byte, 4+rng.Intn(4))
	for i := range b {
		b[i] = "jkqvxz"[rng.Intn(6)]
	}
	return string(b)
}

func probeSchema(rng *rand.Rand, name string, word func(*rand.Rand) string) schema.Schema {
	s := schema.Schema{Name: name}
	for k := 1 + rng.Intn(4); k > 0; k-- {
		attr := word(rng)
		if rng.Intn(3) == 0 {
			attr += " " + word(rng)
		}
		s.Attributes = append(s.Attributes, attr)
	}
	return s
}

// grownRow is the definition Probe answers to: the arrival's row of the space
// BuildLite builds over sp's schemas followed by s, copied out of buf, and
// the number of dimensions that space adds.
func grownRow(sp *Space, s schema.Schema, cfg Config, buf *RowBuf) ([]int32, []float64, int, *Space) {
	n := sp.NumSchemas()
	grown := BuildLite(append(sp.set[:n:n], s), cfg)
	js, sims := grown.Row(n, -1, buf)
	return slices.Clone(js), slices.Clone(sims), grown.Dim() - sp.Dim(), grown
}

// TestPropertyProbeIsExtendThenRow holds Space.Probe to its definition,
// the arrival's row of the space Extend builds — BuildLite over the space's
// schemas followed by the arrival, spelled out here — compared by schema id and with == on the float64s, and its count
// of novel terms to the dimensions that space adds. It covers LCS and the
// asymmetric prefixSim, spaces over a random corpus and over that corpus
// grown by arrivals with novel words, and arrivals mixing known, grown, cut
// and novel words, with only novel terms, with no novel term, matching
// nothing, and with an empty vector — one RowBuf reused across every probe.
func TestPropertyProbeIsExtendThenRow(t *testing.T) {
	var buf, defBuf RowBuf
	gains := map[string]int{}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		if seed%2 == 1 {
			cfg.Sim, cfg.Tau = prefixSim{}, 0.6
		}
		set := rowCorpus(rng, 10+rng.Intn(40))
		grownSet := slices.Clone(set)
		for k := 0; k < 3; k++ {
			grownSet = append(grownSet, probeSchema(rng, fmt.Sprintf("grown%d", k), probeWord))
		}
		arrivals := []schema.Schema{
			probeSchema(rng, "mixed", probeWord),
			probeSchema(rng, "all-novel", novelProbeWord),
			{Name: "no-novel", Attributes: set[rng.Intn(len(set))].Attributes},
			{Name: "no-match", Attributes: []string{"ffffff", "gggggg vvvvvv"}},
			{Name: "empty-vector", Attributes: []string{"ab"}},
		}
		for label, sp := range map[string]*Space{"corpus": BuildLite(set, cfg), "grown": BuildLite(grownSet, cfg)} {
			for _, s := range arrivals {
				name := fmt.Sprintf("seed %d, %s, %s space, arrival %s %q", seed, cfg.Sim.Name(), label, s.Name, s.Attributes)
				wantJs, wantSims, wantNew, grown := grownRow(sp, s, cfg, &defBuf)
				js, sims, novel := sp.Probe(s, &buf)
				if !slices.Equal(js, wantJs) || !slices.Equal(sims, wantSims) || novel != wantNew {
					t.Fatalf("%s:\n Probe = %v %v, %d novel\nwant    %v %v, %d novel", name, js, sims, novel, wantJs, wantSims, wantNew)
				}
				for _, j := range js {
					if len(grown.Bits(int(j))) > len(sp.Bits(int(j))) {
						gains[cfg.Sim.Name()]++
					}
				}
			}
		}
	}
	// The new-bit path must have been walked under both similarities: schemas
	// that gain a bit for a term the arrival brings.
	for _, sim := range []string{"lcs", "prefix"} {
		if gains[sim] == 0 {
			t.Errorf("no probe under %s met a schema gaining a new bit", sim)
		}
	}
}

// TestProbeConcurrentFirstUse: eight goroutines probe one fresh BuildLite
// space at once, each reading the bit→schema postings BuildLite left; every
// answer must still be its definition's.
func TestProbeConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := rowCorpus(rng, 300)
	cfg := DefaultConfig()
	arrivals := make([]schema.Schema, 8)
	wantJs := make([][]int32, len(arrivals))
	wantSims := make([][]float64, len(arrivals))
	ref := BuildLite(set, cfg)
	var defBuf RowBuf
	for g := range arrivals {
		arrivals[g] = probeSchema(rng, fmt.Sprintf("a%d", g), probeWord)
		wantJs[g], wantSims[g], _, _ = grownRow(ref, arrivals[g], cfg, &defBuf)
	}

	sp := BuildLite(set, cfg)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range arrivals {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf RowBuf
			<-start
			js, sims, _ := sp.Probe(arrivals[g], &buf)
			if !slices.Equal(js, wantJs[g]) || !slices.Equal(sims, wantSims[g]) {
				t.Errorf("arrival %d: Probe = %v %v, want %v %v", g, js, sims, wantJs[g], wantSims[g])
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
