package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"schemaflow/internal/dataset"
	"schemaflow/internal/schema"
)

// Every input the system under test ever sees is made here, from the seed:
// corpora, query streams, and the mixed-ingest schedule. Equal seeds give
// byte-identical corpus files and identical op streams (gen_test.go).

// labelOf recovers a schema's ground-truth label from its name alone
// ("lg-d0003-00012" → "d0003", "cp-s07-0123" → "s07"): the accuracy oracle
// only ever sees names, because that is all GET /domains returns.
func labelOf(name string) string {
	parts := strings.SplitN(name, "-", 3)
	if len(parts) < 3 {
		return ""
	}
	return parts[1]
}

// corpusBytes renders a corpus in the line format payg-server -in reads.
func corpusBytes(set schema.Set) []byte {
	var buf bytes.Buffer
	if err := schema.WriteLines(&buf, set); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// wideCorpus is the many-domain corpus: six-letter pseudo-words, so term
// matching is cheap, and hundreds of resulting domains, so scoring is not.
func wideCorpus(p params, seed int64) schema.Set {
	return dataset.Large(dataset.LargeConfig{N: p.WideN, Domains: p.WideDomains, Seed: seed})
}

// word draws n random lowercase letters. Uniform letters spread a term's
// three-letter windows over 26³ possible g-grams, so its g-gram candidates
// are the terms of its own stem plus only a modest accidental remainder.
func word(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// compound describes the classify-fuzzy corpus: Stems domains; a domain's
// schemas draw from Fields terms glued as stem+field+variant (one long
// letters-only token, e.g. "qkzhwtpmxrvbnoeyab"), each in Variants
// spellings that differ only in a two-letter suffix and therefore all match
// one another at τ_t_sim = 0.8. A query term's g-gram candidates are the
// few hundred terms of its stem, each verified by an LCS over ~18-letter
// strings: the matcher does the work, while 50 domains leave scoring idle.
type compound struct {
	stems  []string
	fields [][]string // [stem][field]
	vars   []string
}

func newCompound(p params, rng *rand.Rand) *compound {
	c := &compound{}
	seen := map[string]bool{}
	fresh := func(n int) string {
		for {
			w := word(rng, n)
			if !seen[w] {
				seen[w] = true
				return w
			}
		}
	}
	for s := 0; s < p.FuzzyStems; s++ {
		c.stems = append(c.stems, fresh(8))
		fs := make([]string, p.FuzzyFields)
		for f := range fs {
			fs[f] = fresh(8)
		}
		c.fields = append(c.fields, fs)
	}
	for v := 0; v < p.FuzzyVariants; v++ {
		c.vars = append(c.vars, string(rune('a'+v/26))+string(rune('a'+v%26)))
	}
	return c
}

func (c *compound) term(stem, field, variant int) string {
	return c.stems[stem] + c.fields[stem][field] + c.vars[variant]
}

// fuzzyCorpus generates the compound corpus and returns its describer so
// the query stream can reuse the same stems.
func fuzzyCorpus(p params, seed int64) (schema.Set, *compound) {
	rng := rand.New(rand.NewSource(seed))
	c := newCompound(p, rng)
	set := make(schema.Set, 0, p.FuzzyN)
	for i := 0; i < p.FuzzyN; i++ {
		stem := i % p.FuzzyStems
		nf := p.FuzzyFields/2 + rng.Intn(p.FuzzyFields/2+1)
		var attrs []string
		for _, f := range rng.Perm(p.FuzzyFields)[:nf] {
			attrs = append(attrs, c.term(stem, f, rng.Intn(len(c.vars))))
		}
		set = append(set, schema.Schema{
			Name:       fmt.Sprintf("cp-s%02d-%04d", stem, i/p.FuzzyStems),
			Attributes: attrs,
			Labels:     []string{fmt.Sprintf("s%02d", stem)},
		})
	}
	return set, c
}

// query is one classify request: the keyword string sent as ?q= and the
// ground-truth label of the schema (or stem) it was sampled from.
type query struct {
	Q     string
	Label string
}

// distinctQueries draws n queries from next, dropping any whose keyword
// *set* repeats: the server's result cache keys on the canonical term set,
// so distinct sets are what "the cache cannot hit" means.
func distinctQueries(n int, next func() (words []string, label string)) []query {
	out := make([]query, 0, n)
	seen := make(map[string]bool, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 50*n+1000 {
			panic(fmt.Sprintf("bench: cannot draw %d distinct queries (got %d)", n, len(out)))
		}
		words, label := next()
		key := append([]string(nil), words...)
		sort.Strings(key)
		k := strings.Join(key, " ")
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, query{Q: strings.Join(words, " "), Label: label})
	}
	return out
}

// sampleAttrs picks lo..hi attributes of one random schema.
func sampleAttrs(rng *rand.Rand, set schema.Set, lo, hi int) ([]string, string) {
	s := set[rng.Intn(len(set))]
	k := lo + rng.Intn(hi-lo+1)
	if k > len(s.Attributes) {
		k = len(s.Attributes)
	}
	words := make([]string, 0, k)
	for _, j := range rng.Perm(len(s.Attributes))[:k] {
		words = append(words, s.Attributes[j])
	}
	return words, labelOf(s.Name)
}

// wideQueries is the classify-wide / classify-sharded stream: 2–4 keywords
// sampled from one random schema's attributes, every query distinct. The
// stream RNG is offset from the corpus seed so the two never correlate.
func wideQueries(set schema.Set, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed + 1))
	return distinctQueries(n, func() ([]string, string) { return sampleAttrs(rng, set, 2, 4) })
}

// fuzzyQueries is the classify-fuzzy stream: three terms of one stem, one
// of them carrying a single-character typo in its first two letters (a typo
// further in would cut the longest common substring below τ and the term
// would simply not match — cheap, and not what this workload is for).
func fuzzyQueries(c *compound, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed + 1))
	return distinctQueries(n, func() ([]string, string) {
		stem := rng.Intn(len(c.stems))
		words := make([]string, 0, 3)
		for _, f := range rng.Perm(len(c.fields[stem]))[:3] {
			words = append(words, c.term(stem, f, rng.Intn(len(c.vars))))
		}
		victim := rng.Intn(3)
		t := []byte(words[victim])
		pos := rng.Intn(2)
		for {
			ch := byte('a' + rng.Intn(26))
			if ch != t[pos] {
				t[pos] = ch
				break
			}
		}
		words[victim] = string(t)
		return words, fmt.Sprintf("s%02d", stem)
	})
}

// mixedCorpus splits one dataset.Large draw into the schemas the server is
// started with and the ones that arrive over POST /schemas: the first
// MixedBase/MixedDomains schemas of each seen domain are served; the rest,
// plus a tenth from MixedUnseen domains the base never saw, are shuffled
// into the arrival order.
func mixedCorpus(p params, seed int64) (base, heldOut schema.Set) {
	perSeen := p.MixedBase / p.MixedDomains
	unseenTotal := p.MixedHeldOut / 10
	heldSeen := (p.MixedHeldOut - unseenTotal + p.MixedDomains - 1) / p.MixedDomains
	perUnseen := (unseenTotal + p.MixedUnseen - 1) / p.MixedUnseen
	perDomain := perSeen + heldSeen
	domains := p.MixedDomains + p.MixedUnseen
	all := dataset.Large(dataset.LargeConfig{N: perDomain * domains, Domains: domains, Seed: seed})
	for i, s := range all {
		d, k := i/perDomain, i%perDomain
		switch {
		case d < p.MixedDomains && k < perSeen:
			base = append(base, s)
		case d < p.MixedDomains || k < perUnseen:
			heldOut = append(heldOut, s)
		}
	}
	rng := rand.New(rand.NewSource(seed + 2))
	rng.Shuffle(len(heldOut), func(i, j int) { heldOut[i], heldOut[j] = heldOut[j], heldOut[i] })
	if len(heldOut) > p.MixedHeldOut {
		heldOut = heldOut[:p.MixedHeldOut]
	}
	return base, heldOut
}

// Op kinds of the mixed-ingest schedule.
const (
	opClassify = iota
	opQuery
	opIngest
	numOpKinds
)

var opKindNames = [numOpKinds]string{"classify", "query", "ingest"}

// mixedOp is one scheduled request. Arg indexes the hot set (classify) or
// the held-out arrivals (ingest), or is a raw draw the query op reduces
// modulo the live domain catalog at send time — domain ids change with
// every recluster, so they cannot be fixed in advance.
type mixedOp struct {
	DueNs int64
	Kind  uint8
	Arg   uint32
}

// mixedSchedule lays n ops on a fixed-rate grid: 60 % classify drawn
// Zipf(1.1) from the hot set, 25 % query, 15 % ingest. When the held-out
// arrivals run out, what would have been an ingest becomes a classify, so
// no schema is ever posted twice.
func mixedSchedule(p params, seed int64, n int) []mixedOp {
	rng := rand.New(rand.NewSource(seed + 3))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(p.MixedHot-1))
	ops := make([]mixedOp, n)
	ingested := 0
	for i := range ops {
		op := mixedOp{DueNs: int64(float64(i) / p.MixedRate * 1e9)}
		r := rng.Float64()
		switch {
		case r < 0.15 && ingested < p.MixedHeldOut:
			op.Kind, op.Arg = opIngest, uint32(ingested)
			ingested++
		case r < 0.40:
			op.Kind, op.Arg = opQuery, rng.Uint32()
		default:
			op.Kind, op.Arg = opClassify, uint32(zipf.Uint64())
		}
		ops[i] = op
	}
	return ops
}

// hotQueries is the mixed-ingest classify hot set, sampled like the wide
// stream from the served schemas.
func hotQueries(base schema.Set, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed + 4))
	return distinctQueries(n, func() ([]string, string) { return sampleAttrs(rng, base, 2, 4) })
}
