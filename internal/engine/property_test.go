package engine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
)

// TestPropertyExecuteInvariants fuzzes random domains, extensions, and
// queries, and checks the probability laws of Section 4.4:
//
//   - every result probability lies in (0, 1];
//   - results are sorted by descending probability;
//   - scaling every membership probability down never raises any tuple's
//     probability (monotonicity of the noisy-or combination);
//   - Where filters are actually satisfied by every returned tuple.
func TestPropertyExecuteInvariants(t *testing.T) {
	attrPool := []string{"departure", "destination", "airline", "fare", "class"}
	valPool := []string{"YYZ", "CAI", "LIM", "OSL", "AirNorth", "BlueJet", "economy"}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSchemas := 2 + rng.Intn(3)
		set := make(schema.Set, nSchemas)
		sources := make([]Source, nSchemas)
		for i := range set {
			nAttrs := 2 + rng.Intn(3)
			perm := rng.Perm(len(attrPool))[:nAttrs]
			attrs := make([]string, nAttrs)
			for k, p := range perm {
				attrs[k] = attrPool[p]
			}
			set[i] = schema.Schema{Name: "s", Attributes: attrs}
			nTuples := rng.Intn(4)
			tuples := make([]Tuple, nTuples)
			for ti := range tuples {
				row := make(Tuple, nAttrs)
				for k := range row {
					row[k] = valPool[rng.Intn(len(valPool))]
				}
				tuples[ti] = row
			}
			sources[i] = Source{Schema: set[i], Tuples: tuples}
		}
		opts := mediate.DefaultOptions()
		opts.Negative = true
		med, err := mediate.Build(set, opts)
		if err != nil || len(med.Attrs) == 0 {
			return err == nil
		}

		memberProb := make([]float64, nSchemas)
		for i := range memberProb {
			memberProb[i] = 0.3 + 0.7*rng.Float64()
		}
		ex, err := NewFetchExecutor(med, asFetchers(sources), memberProb)
		if err != nil {
			return false
		}

		sel := med.Attrs[rng.Intn(len(med.Attrs))].Name
		q := Query{Select: []string{sel}}
		withWhere := rng.Intn(2) == 0
		if withWhere {
			q.Where = map[string]string{sel: valPool[rng.Intn(len(valPool))]}
		}
		res, err := execute(ex, q)
		if err != nil {
			return false
		}
		for i, r := range res {
			if r.Prob <= 0 || r.Prob > 1+1e-12 {
				return false
			}
			if i > 0 && res[i-1].Prob < r.Prob {
				return false
			}
			if withWhere && !strings.EqualFold(r.Values[0], q.Where[sel]) {
				return false
			}
		}

		// Monotonicity under membership scaling.
		halved := make([]float64, nSchemas)
		for i := range halved {
			halved[i] = memberProb[i] / 2
		}
		exHalf, err := NewFetchExecutor(med, asFetchers(sources), halved)
		if err != nil {
			return false
		}
		resHalf, err := execute(exHalf, q)
		if err != nil {
			return false
		}
		probOf := func(rs []ResultTuple) map[string]float64 {
			out := make(map[string]float64)
			for _, r := range rs {
				out[strings.Join(r.Values, "\x1f")] = r.Prob
			}
			return out
		}
		full, half := probOf(res), probOf(resHalf)
		for k, p := range half {
			if p > full[k]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExecute(b *testing.B) {
	set := schema.Set{
		{Name: "a", Attributes: []string{"departure", "destination", "airline"}},
		{Name: "b", Attributes: []string{"departure city", "destination city", "carrier"}},
		{Name: "c", Attributes: []string{"from", "to", "airline name"}},
	}
	opts := mediate.DefaultOptions()
	opts.Negative = true
	med, err := mediate.Build(set, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vals := []string{"YYZ", "CAI", "LIM", "OSL", "PER", "UIO"}
	sources := make([]Source, len(set))
	for i := range sources {
		tuples := make([]Tuple, 200)
		for t := range tuples {
			row := make(Tuple, len(set[i].Attributes))
			for k := range row {
				row[k] = vals[rng.Intn(len(vals))]
			}
			tuples[t] = row
		}
		sources[i] = Source{Schema: set[i], Tuples: tuples}
	}
	ex, err := NewFetchExecutor(med, asFetchers(sources), nil)
	if err != nil {
		b.Fatal(err)
	}
	q := Query{Select: []string{"departure", "destination"}, Where: map[string]string{"departure": "YYZ"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execute(ex, q); err != nil {
			b.Fatal(err)
		}
	}
}
