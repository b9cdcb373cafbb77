package feature

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

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

// hasBit reports whether schema i's feature vector sets bit j.
func hasBit(sp *Space, i, j int) bool { return slices.Contains(sp.Bits(i), int32(j)) }

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
			if !hasBit(sp, i, int(j)) {
				t.Errorf("schema %d: own term %q not set", i, sp.Vocab[j])
			}
		}
	}
}

// TestTermIDsAreTheTermSets: TermIDs[i] is T_i — the distinct terms
// terms.Extract finds in schema i — as ascending vocabulary ids, on a built
// space and on an Extend product whose arrival brings new terms; and
// termSchemas is its inverse.
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
	sp := BuildLite(set, DefaultConfig())
	check("built", sp, set)
	arrival := schema.Schema{Name: "new", Attributes: []string{"zeppelin berth", "airship registry", "title"}}
	ext, _ := sp.Extend(arrival)
	if ext.Dim() == sp.Dim() {
		t.Fatal("the arrival should bring new terms")
	}
	check("extended", ext, append(set[:len(set):len(set)], arrival))
}

// TestSpaceBitsAreTheUnionOfMatchLists: Bits(i) is the union of the match
// lists of schema i's terms, ascending and each bit once — F^i of Algorithm 1
// — and the postings are their transpose, on a BuildLite space, under the
// asymmetric prefixSim and lenBiasSim, and along Extend chains whose arrivals
// give existing schemas new bits. Every space of a chain is checked once the
// chain is done, and one space is extended twice, so an Extend writing into
// its receiver fails too.
func TestSpaceBitsAreTheUnionOfMatchLists(t *testing.T) {
	check := func(label string, sp *Space) {
		t.Helper()
		postings := make([][]int32, sp.Dim())
		for i := range sp.NumSchemas() {
			var want []int32
			for _, term := range sp.TermIDs[i] {
				want = append(want, sp.Matches(int(term))...)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if !slices.Equal(sp.Bits(i), want) {
				t.Fatalf("%s: schema %d lists bits %v, its terms match %v", label, i, sp.Bits(i), want)
			}
			for _, b := range want {
				postings[b] = append(postings[b], int32(i))
			}
		}
		if len(sp.postings) != sp.Dim() {
			t.Fatalf("%s: %d posting lists for %d bits", label, len(sp.postings), sp.Dim())
		}
		for b := range postings {
			if !slices.Equal(sp.postings[b], postings[b]) {
				t.Fatalf("%s: bit %d posts schemas %v, the bit lists %v", label, b, sp.postings[b], postings[b])
			}
		}
	}
	set := dataset.Large(dataset.LargeConfig{N: 300, Domains: 6, Seed: 2})
	check("built", BuildLite(set, DefaultConfig()))
	gains := 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		switch seed % 3 {
		case 1:
			cfg.Sim, cfg.Tau = prefixSim{}, 0.6
		case 2:
			cfg.Sim, cfg.Tau = lenBiasSim{}, 0.6
		}
		corpus := rowCorpus(rng, 30)
		chain := []*Space{BuildLite(corpus, cfg)}
		check(fmt.Sprintf("seed %d, %s, built", seed, cfg.Sim.Name()), chain[0])
		for k := 0; k < 8; k++ {
			prev := chain[len(chain)-1]
			next, _ := prev.Extend(probeSchema(rng, fmt.Sprintf("a%d", k), probeWord))
			for i := 0; i < prev.NumSchemas(); i++ {
				if len(next.Bits(i)) > len(prev.Bits(i)) {
					gains++
				}
			}
			chain = append(chain, next)
		}
		branch, _ := chain[4].Extend(probeSchema(rng, "branch", probeWord))
		for k, sp := range append(chain, branch) {
			check(fmt.Sprintf("seed %d, %s, space %d of the chain", seed, cfg.Sim.Name(), k), sp)
		}
	}
	if gains == 0 {
		t.Fatal("no arrival gave an existing schema a new bit")
	}
}

func TestFuzzyMatchSetsBits(t *testing.T) {
	// "authors" (bib1) and "author" (bib2) must cross-match at τ=0.8:
	// both schemas' vectors should have both vocabulary bits set.
	sp := BuildLite(smallSet(), DefaultConfig())
	jAuthors := sp.VocabIndex["authors"]
	jAuthor := sp.VocabIndex["author"]
	if !hasBit(sp, 0, jAuthor) {
		t.Error("bib1 should fuzzy-match 'author'")
	}
	if !hasBit(sp, 1, jAuthors) {
		t.Error("bib2 should fuzzy-match 'authors'")
	}
	// 'make' (car1) must not appear in the bibliography vectors.
	if hasBit(sp, 0, sp.VocabIndex["make"]) {
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
		if !slices.Equal(full.Bits(i), lite.Bits(i)) {
			t.Fatalf("schema %d bits differ between BuildContext and BuildLite", i)
		}
		for j := range set {
			if full.Similarity(i, j) != lite.Similarity(i, j) {
				t.Fatalf("similarity(%d,%d) differs", i, j)
			}
		}
	}
}

// TestBuildLiteIsWorkerCountInvariant: term extraction, the match lists and
// the bit lists fan out by index; everything a space holds must be what one
// goroutine builds, at 1, 2 and 7 workers.
func TestBuildLiteIsWorkerCountInvariant(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 600, Domains: 12, Seed: 5})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := BuildLite(set, DefaultConfig())
	for _, procs := range []int{2, 7} {
		runtime.GOMAXPROCS(procs)
		got := BuildLite(set, DefaultConfig())
		if !slices.Equal(got.Vocab, want.Vocab) || !reflect.DeepEqual(got.VocabIndex, want.VocabIndex) {
			t.Fatalf("GOMAXPROCS %d: vocabulary differs", procs)
		}
		if !reflect.DeepEqual(got.TermIDs, want.TermIDs) || !reflect.DeepEqual(got.termSchemas, want.termSchemas) {
			t.Fatalf("GOMAXPROCS %d: term sets or the term→schema index differ", procs)
		}
		if !reflect.DeepEqual(got.matcher.vocabMatches, want.matcher.vocabMatches) {
			t.Fatalf("GOMAXPROCS %d: match lists differ", procs)
		}
		if !reflect.DeepEqual(got.bits, want.bits) || !reflect.DeepEqual(got.postings, want.postings) {
			t.Fatalf("GOMAXPROCS %d: bit lists or the bit→schema postings differ", procs)
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
	if !hasBit(stem, 0, stem.VocabIndex["connections"]) {
		t.Fatal("stem strategy did not match plural")
	}
	exact := BuildLite(set, Config{TermOpts: terms.DefaultOptions(), Sim: strsim.ExactSim{}, Tau: 0.99})
	if hasBit(exact, 0, exact.VocabIndex["connections"]) {
		t.Fatal("exact strategy matched distinct terms")
	}
	if !hasBit(exact, 0, exact.VocabIndex["connection"]) {
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
			if !hasBit(full, i, int(j)) {
				t.Fatalf("full-scan strategy: own term %q missing", full.Vocab[j])
			}
		}
	}
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
			if !hasBit(sp, i, j) {
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
