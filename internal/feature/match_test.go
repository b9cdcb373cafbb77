package feature

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// bruteMatches is the matcher's definition: every vocabulary index j with
// probe == vocab[j] or LCSSim.Sim(probe, vocab[j]) ≥ τ, in the order a gram
// lookup first meets them — by the first byte position of the probe whose
// g-gram the term contains, then by index (posting lists ascend). A probe
// shorter than a gram scans in index order.
func bruteMatches(t *testing.T, vocab []string, probe string, tau float64, g int) []int32 {
	t.Helper()
	type hit struct{ first, j int }
	var hits []hit
	for j, v := range vocab {
		if probe != v && (strsim.LCSSim{}).Sim(probe, v) < tau {
			continue
		}
		first := 0
		if len(probe) >= g {
			first = math.MaxInt
			for i := 0; i+g <= len(probe); i++ {
				if strings.Contains(v, probe[i:i+g]) {
					first = i
					break
				}
			}
			if first == math.MaxInt {
				t.Fatalf("%q matches %q at τ=%v without sharing a %d-gram: the test's terms break the MinLength contract", probe, v, tau, g)
			}
		}
		hits = append(hits, hit{first, j})
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].first < hits[b].first })
	out := make([]int32, len(hits))
	for i, h := range hits {
		out[i] = int32(h.j)
	}
	return out
}

// randomTerm draws a term of minRunes..minRunes+span-1 runes. Small
// alphabets make grams repeat inside a term and across the vocabulary.
func randomTerm(rng *rand.Rand, alphabet []rune, minRunes, span int) string {
	r := make([]rune, minRunes+rng.Intn(span))
	for i := range r {
		r[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(r)
}

// TestGramPrefilterSound is the fence around the filter-and-verify matcher:
// on random vocabularies — repetitive terms, multi-byte runes, every gram
// width the MinLength/τ grid produces — a lookup returns exactly the
// brute-force match set in first-seen order, for probes inside and outside
// the vocabulary, and the gram-indexed space over the whole set equals the
// full-scan reference space built over the same schemas.
func TestGramPrefilterSound(t *testing.T) {
	alphabets := [][]rune{[]rune("ab"), []rune("abc"), []rune("abcé"), []rune("aé日b")}
	for _, tau := range []float64{0.34, 0.5, 0.8, 0.95, 1.0, 1.5} { // above 1 only identity matches
		for _, minLength := range []int{-1, 1, 2, 3} { // -1: terms.Options' literal 0
			t.Run(fmt.Sprintf("tau%v/min%d", tau, minLength), func(t *testing.T) {
				for seed := int64(0); seed < 6; seed++ {
					rng := rand.New(rand.NewSource(seed))
					alphabet := alphabets[rng.Intn(len(alphabets))]
					minRunes := max(minLength, 1)
					attrs := make([]string, 60)
					for i := range attrs {
						attrs[i] = randomTerm(rng, alphabet, minRunes, 9)
					}
					checkLookups(t, rng, attrs, alphabet, tau, minLength)
					checkSpaces(t, attrs, tau, minLength)
				}
			})
		}
	}
}

func checkLookups(t *testing.T, rng *rand.Rand, attrs []string, alphabet []rune, tau float64, minLength int) {
	t.Helper()
	seen := map[string]bool{}
	var vocab []string
	for _, a := range attrs {
		if !seen[a] {
			seen[a] = true
			vocab = append(vocab, a)
		}
	}
	sort.Strings(vocab)
	m := newMatchIndex(vocab, strsim.LCSSim{}, tau, max(minLength, 0))
	gs, ok := m.strategy.(*gramStrategy)
	if !ok {
		t.Fatalf("LCS at τ=%v did not select the gram strategy (got %T)", tau, m.strategy)
	}
	probes := append([]string(nil), vocab...)
	for i := 0; i < 60; i++ {
		probes = append(probes, randomTerm(rng, alphabet, max(minLength, 1), 12))
	}
	for _, p := range probes {
		got, want := m.matchesOf(p), bruteMatches(t, vocab, p, tau, gs.gram)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("probe %q, gram %d, vocab %q:\n got %v\nwant %v", p, gs.gram, vocab, got, want)
		}
	}
}

func checkSpaces(t *testing.T, attrs []string, tau float64, minLength int) {
	t.Helper()
	var set schema.Set
	for i := 0; i+3 <= len(attrs); i += 3 {
		set = append(set, schema.Schema{Name: fmt.Sprintf("s%d", i/3), Attributes: attrs[i : i+3]})
	}
	cfg := Config{TermOpts: terms.Options{MinLength: minLength, StopWords: map[string]bool{}}, Tau: tau}
	gram := BuildLite(set, cfg)
	cfg.Sim = unrecognizedLCS{}
	full := BuildLite(set, cfg)
	if _, ok := full.matcher.strategy.(fullScan); !ok {
		t.Fatalf("wrapped sim did not select full scan (got %T)", full.matcher.strategy)
	}
	checkSameSpace(t, gram, full)
	checkMatchListEquivalence(t, gram, full)
}

// TestGramCountFilterCountsDistinctGrams pins the soundness trap: the gram
// index holds distinct grams, so the count a true match is guaranteed to
// reach is the number of distinct grams in the shared substring, not its
// number of gram positions. "éécaaac" and "caabc" share "caa" — three
// 1-gram positions, two distinct grams — and match at exactly τ = 0.5.
func TestGramCountFilterCountsDistinctGrams(t *testing.T) {
	vocab := []string{"caabc", "zzzzz"}
	m := newMatchIndex(vocab, strsim.LCSSim{}, 0.5, 1)
	if got := m.matchesOf("éécaaac"); fmt.Sprint(got) != "[0]" {
		t.Fatalf("matchesOf(éécaaac) = %v, want [0] (Sim = %v)", got, strsim.LCSSim{}.Sim("éécaaac", "caabc"))
	}
}

// TestGramLookupBelowMinLength: a probe with fewer runes than MinLength
// cannot come out of term extraction, but a lookup for one must still answer
// — its need can fall under one gram, where the count filter's floor of a
// single shared gram is all that holds.
func TestGramLookupBelowMinLength(t *testing.T) {
	m := newMatchIndex([]string{"zzz", "éab"}, strsim.LCSSim{}, 0.8, 3)
	for probe, want := range map[string]string{"éa": "[1]", "ab": "[1]", "é": "[]"} {
		if got := fmt.Sprint(m.matchesOf(probe)); got != want {
			t.Errorf("matchesOf(%q) = %s, want %s", probe, got, want)
		}
	}
}

// compoundSet builds a corpus shaped like the benchmark's classify-fuzzy
// one: every term is an 8-letter stem glued to an 8-letter field of that stem
// and a two-letter variant, so a term shares its stem's grams with every
// other term of the stem and matches only the variants of its own field.
func compoundSet(stems, fields, variants int) (schema.Set, func(stem, field, variant int) string) {
	rng := rand.New(rand.NewSource(11))
	word := func() string {
		b := make([]byte, 8)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	parts := make([][]string, stems) // [stem][0] the stem, [stem][1+f] its fields
	for s := range parts {
		for f := 0; f <= fields; f++ {
			parts[s] = append(parts[s], word())
		}
	}
	term := func(stem, field, variant int) string {
		return parts[stem][0] + parts[stem][1+field] + string([]byte{byte('a' + variant/26), byte('a' + variant%26)})
	}
	var set schema.Set
	for s := 0; s < stems; s++ {
		for v := 0; v < variants; v++ {
			attrs := make([]string, fields)
			for f := range attrs {
				attrs[f] = term(s, f, v)
			}
			set = append(set, schema.Schema{Name: fmt.Sprintf("s%02d-%02d", s, v), Attributes: attrs})
		}
	}
	return set, term
}

// compoundQuery is a three-term query of one stem with a one-letter typo in
// the first term, as the benchmark's fuzzy queries carry.
func compoundQuery(term func(stem, field, variant int) string, stem int) []string {
	typo := []byte(term(stem, 0, 1))
	typo[0] = 'a' + (typo[0]-'a'+1)%26
	return []string{string(typo), term(stem, 1, 2), term(stem, 2, 3)}
}

// TestQueryVectorAllocations ratchets the query path's allocations, and the
// share of verifications that hit, on the vocabulary shape that made both
// expensive: 1,279 allocations and ~600 full LCS runs per three-term query
// before the matcher stopped building a candidate map and verifying every
// term that shared a gram.
func TestQueryVectorAllocations(t *testing.T) {
	set, term := compoundSet(25, 8, 15) // 3,000 terms of 18 letters
	sp := BuildLite(set, DefaultConfig())
	q := compoundQuery(term, 7)
	verified, hits := mMatchVerifications.Value(), mMatchHits.Value()
	if got := sp.QueryVector(q).Count(); got != 3*15 {
		t.Fatalf("query %v set %d bits, want every variant of three fields (45)", q, got)
	}
	// The filters' yield: ~200 terms per query term share a gram with it
	// (its stem's), 15 match, and no more than a few non-matches may reach
	// the verifier.
	verified, hits = mMatchVerifications.Value()-verified, mMatchHits.Value()-hits
	if hits != 45 || verified > 50 {
		t.Fatalf("query verified %d terms for %d hits, want 45 hits from at most 50 verifications", verified, hits)
	}
	allocs := testing.AllocsPerRun(50, func() { sp.QueryVector(q) })
	if allocs > 100 {
		t.Fatalf("QueryVector allocates %v times per three-term query, ratchet is 100", allocs)
	}
}

// TestQueryVectorConcurrent embeds queries from 8 goroutines against one
// space — lookups share the strategy's scratch pool — and compares each
// result with the serial answer. Run under -race.
func TestQueryVectorConcurrent(t *testing.T) {
	set, term := compoundSet(10, 6, 6)
	sp := BuildLite(set, DefaultConfig())
	queries := make([][]string, 10)
	want := make([]string, len(queries))
	for i := range queries {
		queries[i] = compoundQuery(term, i)
		want[i] = fmt.Sprint(sp.QueryVector(queries[i]).IndicesAppend(nil))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				i := (g + r) % len(queries)
				if got := fmt.Sprint(sp.QueryVector(queries[i]).IndicesAppend(nil)); got != want[i] {
					t.Errorf("goroutine %d, query %v: got %s, serial answer %s", g, queries[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
