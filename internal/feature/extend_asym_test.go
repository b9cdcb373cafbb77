package feature

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"schemaflow/internal/schema"
)

// prefixSim is deliberately asymmetric: sim(a, b) = 1 iff a is a prefix of
// b. symmetricSim does not recognize it, so crossMatches must scan the
// reverse direction of every novel term on its own.
type prefixSim struct{}

func (prefixSim) Sim(a, b string) float64 {
	if len(a) <= len(b) && b[:len(a)] == a {
		return 1
	}
	return 0
}
func (prefixSim) Name() string { return "prefix" }

// lenBiasSim is asymmetric in degree rather than kind: the shared prefix
// length is normalized by the FIRST argument's length only, so sim(a, b)
// and sim(b, a) cross a threshold independently.
type lenBiasSim struct{}

func (lenBiasSim) Sim(a, b string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	common := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			break
		}
		common++
	}
	return float64(common) / float64(len(a))
}
func (lenBiasSim) Name() string { return "lenbias" }

// checkMatchListEquivalence compares per-term match lists between two spaces
// over the same vocabulary, as sets of terms: a full scan lists a term's
// matches ascending and the gram index in first-seen order. It is a stronger
// check than vector equality, since a wrong match list can coincidentally
// produce the right bits when the owning schemas overlap.
func checkMatchListEquivalence(t *testing.T, got, want *Space) {
	t.Helper()
	for _, term := range want.Vocab {
		gj, ok := got.VocabIndex[term]
		if !ok {
			t.Fatalf("term %q missing from the vocabulary", term)
		}
		var gm, wm []string
		for _, j := range got.matcher.matchesOfVocab(gj) {
			gm = append(gm, got.Vocab[j])
		}
		for _, j := range want.matcher.matchesOfVocab(want.VocabIndex[term]) {
			wm = append(wm, want.Vocab[j])
		}
		sort.Strings(gm)
		sort.Strings(wm)
		if fmt.Sprint(gm) != fmt.Sprint(wm) {
			t.Fatalf("term %q: match list %v, want %v", term, gm, wm)
		}
	}
}

// TestExtendAsymmetricSim pins the symmetry contract on hand-picked terms
// where prefix relations run one way only ("foob" is a prefix of "foobarbar"
// but not vice versa): the grown space's match lists hold each term's matches
// in its own direction (checkLexicon spells the similarity out), and Probe,
// which cross-matches the newcomer's novel terms against the receiver's
// vocabulary in both directions, reads the newcomer's row of that space.
func TestExtendAsymmetricSim(t *testing.T) {
	base := schema.Set{
		{Name: "a", Attributes: []string{"foo", "barbaz"}},
		{Name: "b", Attributes: []string{"foobar", "qux"}},
	}
	newcomer := schema.Schema{Name: "c", Attributes: []string{"foob", "foobarbar", "quxx"}}
	cfg := DefaultConfig()
	cfg.Sim = prefixSim{}
	sp := BuildLite(base, cfg)
	ext, n := sp.Extend(newcomer)
	ref := BuildLite(append(base[:2:2], newcomer), cfg)
	checkSameSpace(t, ext, ref)
	checkMatchListEquivalence(t, ext, ref)

	var buf, refBuf RowBuf
	js, sims, novel := sp.Probe(newcomer, &buf)
	wantJs, wantSims := ref.Row(n, -1, &refBuf)
	if !slices.Equal(js, wantJs) || !slices.Equal(sims, wantSims) || novel != ref.Dim()-sp.Dim() {
		t.Fatalf("Probe = %v %v, %d novel; the grown space's row %v %v, %d new terms", js, sims, novel, wantJs, wantSims, ref.Dim()-sp.Dim())
	}
}

// TestExtendAsymmetricSimChained holds a space grown by fifteen chained
// Extends to BuildLite over the whole corpus, vectors and match lists alike,
// under two different asymmetric similarities.
func TestExtendAsymmetricSimChained(t *testing.T) {
	sims := []struct {
		name string
		sim  interface {
			Sim(a, b string) float64
			Name() string
		}
	}{
		{"prefix", prefixSim{}},
		{"lenbias", lenBiasSim{}},
	}
	for seed := int64(0); seed < 3; seed++ {
		corpus := extendCorpus(40, seed)
		for _, s := range sims {
			t.Run(fmt.Sprintf("%s/seed%d", s.name, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Sim = s.sim
				cfg.Tau = 0.6
				sp := BuildLite(corpus[:25], cfg)
				for _, sch := range corpus[25:] {
					sp, _ = sp.Extend(sch)
				}
				ref := BuildLite(corpus, cfg)
				checkSameSpace(t, sp, ref)
				checkMatchListEquivalence(t, sp, ref)
			})
		}
	}
}
