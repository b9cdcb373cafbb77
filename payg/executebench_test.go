package payg

import (
	"context"
	"hash/fnv"
	"testing"

	"schemaflow/internal/dataset"
)

// BenchmarkExecuteMixed is one /query of the mixed-ingest workload
// in-package: Large{1500, 20}, twenty synthetic rows per source seeded by
// the schema's name (as payg-server's -tuples 20), the default policy with a
// shared breaker pool, the first two mediated attributes at limit 5, the
// domains taken round-robin.
func BenchmarkExecuteMixed(b *testing.B) {
	set := dataset.Large(dataset.LargeConfig{N: 1500, Domains: 20, Seed: 1})
	sys, err := Build(set, Options{})
	if err != nil {
		b.Fatal(err)
	}
	fetchers := make([]TupleSource, len(set))
	for i, s := range set {
		h := fnv.New64a()
		h.Write([]byte(s.Name))
		rows := dataset.GenerateTuples(s, 20, int64(h.Sum64()))
		ts := make([]Tuple, len(rows))
		for k, r := range rows {
			ts[k] = r
		}
		fetchers[i] = Source{Schema: s, Tuples: ts}
	}
	policy := DefaultPolicy()
	ex, err := sys.NewExecutor(fetchers, policy, NewBreakerPool(policy))
	if err != nil {
		b.Fatal(err)
	}
	type op struct {
		domain int
		q      Query
	}
	var ops []op
	for _, d := range sys.Domains() {
		if sel := d.MediatedAttributes; len(sel) > 0 {
			ops = append(ops, op{d.ID, Query{Select: sel[:min(2, len(sel))], Limit: 5}})
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := ops[i%len(ops)]
		if _, err := ex.Execute(ctx, o.domain, o.q); err != nil {
			b.Fatal(err)
		}
	}
}
