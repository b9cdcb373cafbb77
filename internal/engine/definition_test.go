package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
)

// definitionCase is one random domain, its sources and a query.
type definitionCase struct {
	med        *mediate.Mediated
	fetchers   []TupleSource
	tuples     [][]Tuple // what each source holds
	fails      []bool    // the source is down or holds a malformed tuple
	memberProb []float64
	q          Query
}

// definitionValues is a small pool, so tuples collide often: it has the
// empty string, case variants, and values holding the key separator, which
// make different projections join to the same key.
var definitionValues = []string{"", "a", "A", "b", "a\x1f", "\x1fa", "\x1f", "A\x1fB"}

// randomDefinitionCase draws a domain straight as mappings rather than
// through mediate.Build, so mappings may send a source column nowhere, send
// two columns to one mediated attribute, agree on some tuples only, and tie
// in probability.
func randomDefinitionCase(rng *rand.Rand) definitionCase {
	nMed := 1 + rng.Intn(4)
	med := &mediate.Mediated{}
	for m := 0; m < nMed; m++ {
		med.Attrs = append(med.Attrs, mediate.MediatedAttr{Name: fmt.Sprintf("m%d", m)})
	}
	probs := []float64{0.5, 0.25, 0.125, 0}
	nSrc := 1 + rng.Intn(5)
	short := rng.Intn(nSrc + 1) // the member holding a malformed tuple
	c := definitionCase{med: med}
	for si := 0; si <= nSrc; si++ {
		width := 1 + rng.Intn(4)
		s := schema.Schema{Name: fmt.Sprintf("s%d", rng.Intn(nSrc+1))} // names may repeat
		for k := 0; k < width; k++ {
			s.Attributes = append(s.Attributes, fmt.Sprintf("a%d", k))
		}
		med.Schemas = append(med.Schemas, s)
		var mps []mediate.Mapping
		for j := 1 + rng.Intn(4); j > 0; j-- {
			mp := mediate.Mapping{AttrTo: make([]int, width), Prob: rng.Float64()}
			if rng.Intn(2) == 0 {
				mp.Prob = probs[rng.Intn(len(probs))]
			}
			for k := range mp.AttrTo {
				mp.AttrTo[k] = rng.Intn(nMed+1) - 1
			}
			mps = append(mps, mp)
		}
		med.Mappings = append(med.Mappings, mps)
		tuples := make([]Tuple, rng.Intn(6))
		for ti := range tuples {
			tuples[ti] = make(Tuple, width)
			for k := range tuples[ti] {
				tuples[ti][k] = definitionValues[rng.Intn(len(definitionValues))]
			}
		}
		c.memberProb = append(c.memberProb, []float64{0, 1, 0.5, rng.Float64()}[rng.Intn(4)])
		// About half the members are in memory, read in place. The others
		// are fetched with jitter, so they finish in a different order from
		// query to query; one in five of those is down. One in-memory
		// member holds a tuple a value short, which must be reported.
		fails := si == short
		if fails {
			tuples = slices.Insert(tuples, rng.Intn(len(tuples)+1), make(Tuple, width-1))
		}
		var f TupleSource = Source{Schema: s, Tuples: tuples}
		if !fails && rng.Intn(2) == 0 {
			flake := NewFlakeSource(s.Name, tuples, rng.Int63())
			flake.LatencyJitter = 200 * time.Microsecond
			fails = rng.Intn(5) == 0
			flake.SetDown(fails)
			f = flake
		}
		c.tuples = append(c.tuples, tuples)
		c.fetchers = append(c.fetchers, f)
		c.fails = append(c.fails, fails)
	}
	for n := rng.Intn(nMed + 1); n > 0; n-- {
		c.q.Select = append(c.q.Select, med.Attrs[rng.Intn(nMed)].Name)
	}
	if len(c.q.Select) == 0 && rng.Intn(2) == 0 {
		c.q.Select = []string{med.Attrs[0].Name}
	}
	if rng.Intn(3) == 0 {
		want := definitionValues[rng.Intn(len(definitionValues))]
		if rng.Intn(2) == 0 {
			want = strings.ToUpper(want)
		}
		c.q.Where = map[string]string{med.Attrs[rng.Intn(nMed)].Name: want}
	}
	c.q.Limit = []int{0, 1, 1 + rng.Intn(4), 1000}[rng.Intn(4)]
	return c
}

// definitionAnswer is Section 4.4 computed literally. Each raw tuple of a
// source that answered is mapped by every mapping φ of its source, in
// mapping order: φ contributes when every Where attribute is populated by
// φ with a value equal to the wanted one up to case, and when φ populates
// at least one Select attribute (or nothing is selected). A mediated
// attribute takes the value of the first source column φ sends to it, and
// "" when φ sends none. The mapped tuples of one raw tuple that join to the
// same \x1f-separated key are one tuple whose probability is the sum of
// their Pr(φ), added in mapping order, shown with the values of the last of
// them. That sum times Pr(S_i ∈ D_r) is the raw tuple's probability for
// the key. Across raw tuples and sources the key's probability is
// 1 − Π(1 − p), the product taken in source order, then tuple order; its
// values are those of its first raw tuple and its sources are the names of
// the sources that gave it, sorted, each once. The answer is ordered by
// probability descending, then key ascending, and cut to Limit.
func definitionAnswer(c definitionCase) []ResultTuple {
	column := func(mp mediate.Mapping, name string) int {
		mi := c.med.AttrIndex(name)
		for k, to := range mp.AttrTo {
			if to == mi {
				return k
			}
		}
		return -1
	}
	type answer struct {
		key      string
		values   []string
		oneMinus float64
		sources  []string
	}
	var answers []*answer
	byKey := map[string]*answer{}
	for si, tuples := range c.tuples {
		if c.memberProb[si] == 0 || c.fails[si] {
			continue
		}
		for _, raw := range tuples {
			type mapped struct {
				key    string
				values []string
				prob   float64
			}
			var outs []mapped
		mappings:
			for _, mp := range c.med.Mappings[si] {
				for name, want := range c.q.Where {
					k := column(mp, name)
					if k < 0 || strings.ToLower(raw[k]) != strings.ToLower(want) {
						continue mappings
					}
				}
				values := make([]string, len(c.q.Select))
				populated := len(c.q.Select) == 0
				for i, name := range c.q.Select {
					if k := column(mp, name); k >= 0 {
						values[i], populated = raw[k], true
					}
				}
				if !populated {
					continue
				}
				key := strings.Join(values, "\x1f")
				i := slices.IndexFunc(outs, func(o mapped) bool { return o.key == key })
				if i < 0 {
					outs = append(outs, mapped{key: key, values: values, prob: mp.Prob})
				} else {
					outs[i].prob += mp.Prob
					outs[i].values = values
				}
			}
			for _, o := range outs {
				a := byKey[o.key]
				if a == nil {
					a = &answer{key: o.key, values: o.values, oneMinus: 1}
					byKey[o.key] = a
					answers = append(answers, a)
				}
				a.oneMinus *= 1 - o.prob*c.memberProb[si]
				name := c.fetchers[si].Name()
				if !slices.Contains(a.sources, name) {
					a.sources = append(a.sources, name)
				}
			}
		}
	}
	sort.SliceStable(answers, func(i, j int) bool {
		pi, pj := 1-answers[i].oneMinus, 1-answers[j].oneMinus
		if pi != pj {
			return pi > pj
		}
		return answers[i].key < answers[j].key
	})
	if c.q.Limit > 0 && c.q.Limit < len(answers) {
		answers = answers[:c.q.Limit]
	}
	out := []ResultTuple{}
	for _, a := range answers {
		sort.Strings(a.sources)
		out = append(out, ResultTuple{Values: a.values, Prob: 1 - a.oneMinus, Sources: a.sources})
	}
	return out
}

// TestPropertyExecuteIsTheDefinition holds ExecuteContext to
// definitionAnswer bit for bit — values, probability bits, source lists and
// their order — and the failure report to the sources that were down or
// held a malformed tuple, in source order, on random domains that
// interleave in-memory sources with fetched ones finishing in random order.
// Each case asks its executor twice at once and then once more with the
// Select list reversed and no Where or Limit, so answers also hold when
// consolidation buffers are shared and reused by a query of another shape.
func TestPropertyExecuteIsTheDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	cases := 3000
	if testing.Short() {
		cases = 300
	}
	for n := 0; n < cases; n++ {
		c := randomDefinitionCase(rng)
		ex, err := NewFetchExecutor(c.med, c.fetchers, c.memberProb)
		if err != nil {
			t.Fatal(err)
		}
		again := c
		again.q = Query{Select: slices.Clone(c.q.Select)}
		slices.Reverse(again.q.Select)
		runs := []definitionCase{c, c, again}
		results := make([]*Result, len(runs))
		errs := make([]error, len(runs))
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[r], errs[r] = ex.ExecuteContext(context.Background(), runs[r].q)
			}()
		}
		wg.Wait()
		results[2], errs[2] = ex.ExecuteContext(context.Background(), again.q)
		var failed []string
		for si, f := range c.fetchers {
			if c.fails[si] && c.memberProb[si] != 0 {
				failed = append(failed, f.Name())
			}
		}
		for r, res := range results {
			if errs[r] != nil {
				t.Fatalf("case %d run %d: %v", n, r, errs[r])
			}
			q, want := runs[r].q, definitionAnswer(runs[r])
			if len(res.Tuples) != len(want) {
				t.Fatalf("case %d run %d (%+v): %d tuples, want %d:\n got %+v\nwant %+v", n, r, q, len(res.Tuples), len(want), res.Tuples, want)
			}
			for i, got := range res.Tuples {
				w := want[i]
				if !slices.Equal(got.Values, w.Values) || math.Float64bits(got.Prob) != math.Float64bits(w.Prob) ||
					!slices.Equal(got.Sources, w.Sources) || got.Values == nil || got.Sources == nil {
					t.Fatalf("case %d run %d (%+v) tuple %d: got %q %v %q, want %q %v %q",
						n, r, q, i, got.Values, got.Prob, got.Sources, w.Values, w.Prob, w.Sources)
				}
			}
			var reported []string
			for _, f := range res.Failures {
				reported = append(reported, f.Source)
			}
			if !slices.Equal(reported, failed) {
				t.Fatalf("case %d run %d: failures %q, want %q", n, r, reported, failed)
			}
		}
	}
}
