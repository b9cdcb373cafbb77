package feature

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"schemaflow/internal/dataset"
	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

func smallSet() schema.Set {
	return schema.Set{
		{Name: "bib1", Attributes: []string{"title", "authors", "year of publish", "conference name"}},
		{Name: "bib2", Attributes: []string{"paper title", "author", "publication year", "venue"}},
		{Name: "car1", Attributes: []string{"year", "type", "make", "model"}},
	}
}

func TestBuildVocabulary(t *testing.T) {
	sp := BuildLite(smallSet(), DefaultConfig())
	// Vocabulary must be sorted and contain every extracted term.
	for j := 1; j < len(sp.Vocab); j++ {
		if sp.Vocab[j-1] >= sp.Vocab[j] {
			t.Fatalf("vocabulary not strictly sorted at %d: %q >= %q", j, sp.Vocab[j-1], sp.Vocab[j])
		}
	}
	for _, term := range []string{"title", "authors", "year", "publish", "conference", "name", "make", "model"} {
		if _, ok := sp.VocabIndex[term]; !ok {
			t.Errorf("vocabulary missing %q", term)
		}
	}
	if sp.Dim() != len(sp.Vocab) {
		t.Fatal("Dim != len(Vocab)")
	}
}

func TestOwnTermsAlwaysSet(t *testing.T) {
	// F^i_j = 1 whenever schema i literally contains vocabulary term j
	// (self-similarity is 1 ≥ τ).
	sp := BuildLite(smallSet(), DefaultConfig())
	for i := range smallSet() {
		for _, j := range sp.TermIDs[i] {
			if !sp.Vectors[i].Get(int(j)) {
				t.Errorf("schema %d: own term %q not set", i, sp.Vocab[j])
			}
		}
	}
}

// TestTermIDsAreTheTermSets: TermIDs[i] is T_i — the distinct terms
// terms.Extract finds in schema i — as ascending vocabulary ids, on a built
// space in both modes and on an Extend product, whose appended ids are out of
// term order; and termSchemas is its inverse.
func TestTermIDsAreTheTermSets(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 300, Domains: 6, Seed: 2})
	check := func(label string, sp *Space, set schema.Set) {
		t.Helper()
		inverse := make([][]int32, sp.Dim())
		for i, s := range set {
			var want []int32
			for term := range terms.Extract(s.Attributes, sp.cfg.TermOpts) {
				want = append(want, int32(sp.VocabIndex[term]))
			}
			slices.Sort(want)
			if !slices.Equal(sp.TermIDs[i], want) {
				t.Fatalf("%s: schema %d has term ids %v, its term set %v", label, i, sp.TermIDs[i], want)
			}
			for _, j := range want {
				inverse[j] = append(inverse[j], int32(i))
			}
		}
		for j := range inverse {
			if !slices.Equal(sp.termSchemas[j], inverse[j]) {
				t.Fatalf("%s: term %q lists schemas %v, the term sets %v", label, sp.Vocab[j], sp.termSchemas[j], inverse[j])
			}
		}
	}
	for _, mode := range []Mode{Binary, TermFrequency} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		check(mode.String(), BuildLite(set, cfg), set)
	}
	sp := BuildLite(set, DefaultConfig())
	arrival := schema.Schema{Name: "new", Attributes: []string{"zeppelin berth", "airship registry", "title"}}
	ext, _ := sp.Extend(arrival)
	if ext.Dim() == sp.Dim() {
		t.Fatal("the arrival should bring new terms")
	}
	check("extended", ext, append(set[:len(set):len(set)], arrival))
}

func TestFuzzyMatchSetsBits(t *testing.T) {
	// "authors" (bib1) and "author" (bib2) must cross-match at τ=0.8:
	// both schemas' vectors should have both vocabulary bits set.
	sp := BuildLite(smallSet(), DefaultConfig())
	jAuthors := sp.VocabIndex["authors"]
	jAuthor := sp.VocabIndex["author"]
	if !sp.Vectors[0].Get(jAuthor) {
		t.Error("bib1 should fuzzy-match 'author'")
	}
	if !sp.Vectors[1].Get(jAuthors) {
		t.Error("bib2 should fuzzy-match 'authors'")
	}
	// 'make' (car1) must not appear in the bibliography vectors.
	if sp.Vectors[0].Get(sp.VocabIndex["make"]) {
		t.Error("bib1 matched 'make'")
	}
}

func TestSimilaritySymmetricMemoized(t *testing.T) {
	sp := BuildLite(smallSet(), DefaultConfig())
	if sp.Similarity(0, 0) != 1 {
		t.Fatal("self-similarity != 1")
	}
	if sp.Similarity(0, 1) != sp.Similarity(1, 0) {
		t.Fatal("similarity asymmetric")
	}
	// Bibliography pair must be far more similar than bib/car.
	if sp.Similarity(0, 1) <= sp.Similarity(0, 2) {
		t.Fatalf("sim(bib1,bib2)=%v <= sim(bib1,car1)=%v",
			sp.Similarity(0, 1), sp.Similarity(0, 2))
	}
}

// TestBuildLiteMatchesBuild: BuildContext is BuildLite behind a cancellation
// check, so a live context gets the same space.
func TestBuildLiteMatchesBuild(t *testing.T) {
	set := smallSet()
	full, err := BuildContext(context.Background(), set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lite := BuildLite(set, DefaultConfig())
	for i := range set {
		if !full.Vectors[i].Equal(lite.Vectors[i]) {
			t.Fatalf("schema %d vectors differ between BuildContext and BuildLite", i)
		}
		for j := range set {
			if full.Similarity(i, j) != lite.Similarity(i, j) {
				t.Fatalf("similarity(%d,%d) differs", i, j)
			}
		}
	}
}

// TestBuildLiteIsWorkerCountInvariant: term extraction, the match lists and
// the vectors fan out by index; everything a space holds must be what one
// goroutine builds, at 1, 2 and 7 workers, in both modes.
func TestBuildLiteIsWorkerCountInvariant(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 600, Domains: 12, Seed: 5})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mode := range []Mode{Binary, TermFrequency} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		runtime.GOMAXPROCS(1)
		want := BuildLite(set, cfg)
		if (want.counts != nil) != (mode == TermFrequency) {
			t.Fatalf("%v: counts present = %v", mode, want.counts != nil)
		}
		for _, procs := range []int{2, 7} {
			runtime.GOMAXPROCS(procs)
			got := BuildLite(set, cfg)
			if !slices.Equal(got.Vocab, want.Vocab) || !reflect.DeepEqual(got.VocabIndex, want.VocabIndex) {
				t.Fatalf("%v, GOMAXPROCS %d: vocabulary differs", mode, procs)
			}
			if !reflect.DeepEqual(got.TermIDs, want.TermIDs) || !reflect.DeepEqual(got.termSchemas, want.termSchemas) {
				t.Fatalf("%v, GOMAXPROCS %d: term sets or the term→schema index differ", mode, procs)
			}
			if !reflect.DeepEqual(got.matcher.vocabMatches, want.matcher.vocabMatches) {
				t.Fatalf("%v, GOMAXPROCS %d: match lists differ", mode, procs)
			}
			if !reflect.DeepEqual(got.counts, want.counts) {
				t.Fatalf("%v, GOMAXPROCS %d: counts differ", mode, procs)
			}
			for i := range set {
				if !got.Vectors[i].Equal(want.Vectors[i]) {
					t.Fatalf("%v, GOMAXPROCS %d: vector %d differs", mode, procs, i)
				}
			}
		}
	}
}

func TestQueryVector(t *testing.T) {
	sp := BuildLite(smallSet(), DefaultConfig())
	// The Chapter 1 example style: keywords matching attribute terms.
	fq := sp.QueryVector([]string{"title", "authors", "toronto"})
	if !fq.Get(sp.VocabIndex["title"]) || !fq.Get(sp.VocabIndex["authors"]) {
		t.Fatal("query vector missing matched terms")
	}
	// "toronto" is not in the vocabulary and matches nothing.
	count := fq.Count()
	fq2 := sp.QueryVector([]string{"title", "authors"})
	if fq2.Count() != count {
		t.Fatal("out-of-vocabulary keyword changed the vector")
	}
	// Fuzzy query match: "author" should light the "authors" bit.
	fq3 := sp.QueryVector([]string{"author"})
	if !fq3.Get(sp.VocabIndex["authors"]) {
		t.Fatal("query fuzzy match failed")
	}
}

func TestQueryTermsDedup(t *testing.T) {
	sp := BuildLite(smallSet(), DefaultConfig())
	got := sp.QueryTerms([]string{"title", "Title", "of title"})
	if len(got) != 1 || got[0] != "title" {
		t.Fatalf("QueryTerms = %v", got)
	}
}

func TestStemAndExactStrategies(t *testing.T) {
	set := schema.Set{
		{Name: "a", Attributes: []string{"connection", "speed"}},
		{Name: "b", Attributes: []string{"connections", "speed"}},
	}
	stem := BuildLite(set, Config{TermOpts: terms.DefaultOptions(), Sim: strsim.StemSim{}, Tau: 0.99})
	if !stem.Vectors[0].Get(stem.VocabIndex["connections"]) {
		t.Fatal("stem strategy did not match plural")
	}
	exact := BuildLite(set, Config{TermOpts: terms.DefaultOptions(), Sim: strsim.ExactSim{}, Tau: 0.99})
	if exact.Vectors[0].Get(exact.VocabIndex["connections"]) {
		t.Fatal("exact strategy matched distinct terms")
	}
	if !exact.Vectors[0].Get(exact.VocabIndex["connection"]) {
		t.Fatal("exact strategy missed identity")
	}
}

func TestDefaultStrategyFallback(t *testing.T) {
	// An unrecognized similarity function must fall back to the
	// full-scan strategy and still produce correct matches.
	set := smallSet()
	full := BuildLite(set, Config{TermOpts: terms.DefaultOptions(), Sim: strsim.LCSeqSim{}, Tau: 0.95})
	for i := range set {
		for _, j := range full.TermIDs[i] {
			if !full.Vectors[i].Get(int(j)) {
				t.Fatalf("full-scan strategy: own term %q missing", full.Vocab[j])
			}
		}
	}
}

func TestTermFrequencyMode(t *testing.T) {
	set := schema.Set{
		// "departure" occurs in two attributes here — TF sees 2, binary 1.
		{Name: "a", Attributes: []string{"departure airport", "departure city", "airline"}},
		{Name: "b", Attributes: []string{"departure airport", "airline"}},
		{Name: "c", Attributes: []string{"make", "model"}},
	}
	cfg := Config{TermOpts: terms.DefaultOptions(), Tau: 0.8, Mode: TermFrequency}
	sp := BuildLite(set, cfg)
	// Binary vectors are unchanged by the mode.
	bin := BuildLite(set, Config{TermOpts: terms.DefaultOptions(), Tau: 0.8})
	for i := range set {
		if !sp.Vectors[i].Equal(bin.Vectors[i]) {
			t.Fatalf("TF mode changed binary vector %d", i)
		}
	}
	// Generalized Jaccard penalizes the count mismatch: sim(a,b) < 1 even
	// though their term sets heavily overlap, and must stay below the
	// corresponding binary Jaccard here (min/max < inter/union with counts).
	if sp.Similarity(0, 2) >= sp.Similarity(0, 1) {
		t.Fatalf("unrelated pair as similar as related pair: %v vs %v",
			sp.Similarity(0, 2), sp.Similarity(0, 1))
	}
}

func TestGeneralizedJaccard(t *testing.T) {
	tests := []struct {
		a, b []uint16
		want float64
	}{
		{[]uint16{1, 2, 0}, []uint16{1, 2, 0}, 1},
		{[]uint16{1, 0}, []uint16{0, 1}, 0},
		{[]uint16{2, 1}, []uint16{1, 1}, 2.0 / 3},
		{[]uint16{0, 0}, []uint16{0, 0}, 0},
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
		a := make([]uint16, n)
		b := make([]uint16, n)
		for i := range a {
			a[i] = uint16(rng.Intn(4))
			b[i] = uint16(rng.Intn(4))
		}
		v := generalizedJaccard(a, b)
		if v != generalizedJaccard(b, a) {
			return false
		}
		if v < 0 || v > 1 {
			return false
		}
		// Identity.
		return generalizedJaccard(a, a) == 1 || allZero(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func allZero(a []uint16) bool {
	for _, v := range a {
		if v != 0 {
			return false
		}
	}
	return true
}

// Config.Tau == 0 means "use the default 0.8"; a negative Tau is the escape
// hatch for a literal threshold of 0, where every pair of terms matches and
// every pair of schemas has similarity exactly 1. The bucketed candidate
// prefilters are unsound at τ = 0, so this also pins the full-scan fallback.
func TestNegativeTauMeansLiteralZero(t *testing.T) {
	set := smallSet()
	sp := BuildLite(set, Config{Tau: -1})
	for i := 0; i < sp.NumSchemas(); i++ {
		for j := range sp.Vocab {
			if !sp.Vectors[i].Get(j) {
				t.Fatalf("τ=0: schema %d missing bit %d (%q)", i, j, sp.Vocab[j])
			}
		}
		for j := i + 1; j < sp.NumSchemas(); j++ {
			if s := sp.Similarity(i, j); s != 1 {
				t.Fatalf("τ=0: Similarity(%d,%d) = %v, want 1", i, j, s)
			}
		}
	}
	// And zero still selects the default.
	if got := BuildLite(set, Config{}).Similarity(0, 2); got == 1 {
		t.Fatal("zero-value Config behaved like τ=0 instead of the 0.8 default")
	}
}
