package shard

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"schemaflow/internal/resilience"
)

// gatherRouter is a router with n backends and no network: enough for
// gatherClassify, which only touches breakers and metrics.
func gatherRouter(n int) *Router {
	rt := &Router{}
	for i := 0; i < n; i++ {
		rt.backends = append(rt.backends, &backend{index: i, breaker: resilience.DefaultPolicy().NewBreaker()})
	}
	return rt
}

// payload renders one shard answer (generation, total domains, local
// domain ids) in one of the two wire shapes gatherClassify serves.
type payload struct {
	name   string
	n      int
	decode func([]byte) (*BatchPartial, error)
	body   func(gen, total int, domains ...int) []byte
}

// payloads covers both shapes: the single /shard/classify partial and a
// two-query /shard/classify/batch partial.
func payloads(t *testing.T) []payload {
	scores := func(domains []int) []PartialScore {
		out := make([]PartialScore, len(domains))
		for i, d := range domains {
			out[i] = PartialScore{Domain: d, LP: -float64(d + 1)}
		}
		return out
	}
	marshal := func(v any) []byte {
		p, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []payload{
		{"single", 1, decodeSingle, func(gen, total int, domains ...int) []byte {
			return marshal(ClassifyPartial{Generation: gen, TotalDomains: total, Scores: scores(domains)})
		}},
		{"batch", 2, decodeBatch, func(gen, total int, domains ...int) []byte {
			return marshal(BatchPartial{Generation: gen, TotalDomains: total,
				Results: [][]PartialScore{scores(domains), scores(domains)}})
		}},
	}
}

func TestGatherClassify(t *testing.T) {
	for _, pl := range payloads(t) {
		t.Run(pl.name+"/newest generation only", func(t *testing.T) {
			results := []callResult{
				{index: 0, body: pl.body(4, 3, 0)},
				{index: 1, body: pl.body(3, 3, 1)}, // mid-swap: still on the old model
				{index: 2, body: pl.body(4, 3, 2)},
			}
			batches, alive, total, err := gatherRouter(3).gatherClassify(results, pl.n, pl.decode)
			if err != nil {
				t.Fatal(err)
			}
			if alive != 2 || total != 3 {
				t.Fatalf("alive %d total %d, want 2 and 3", alive, total)
			}
			if batches[0] == nil || batches[1] != nil || batches[2] == nil {
				t.Fatalf("survivors = %v, want shards 0 and 2", batches)
			}
			if len(batches[0].Results) != pl.n || batches[2].Results[pl.n-1][0].Domain != 2 {
				t.Fatalf("survivor payloads mangled: %+v %+v", batches[0], batches[2])
			}
			if results[1].err == nil || !strings.Contains(results[1].err.Error(), "stale generation 3 (newest 4)") {
				t.Fatalf("stale shard error = %v", results[1].err)
			}
		})
		t.Run(pl.name+"/disagreeing domain count", func(t *testing.T) {
			results := []callResult{
				{index: 0, body: pl.body(1, 3, 0)},
				{index: 1, body: pl.body(1, 4, 1)},
			}
			_, _, _, err := gatherRouter(2).gatherClassify(results, pl.n, pl.decode)
			if err == nil || !strings.Contains(err.Error(), "shards disagree on domain count (4 vs 3)") {
				t.Fatalf("err = %v, want a domain-count disagreement", err)
			}
		})
		t.Run(pl.name+"/undecodable body is a shard failure", func(t *testing.T) {
			rt := gatherRouter(2)
			results := []callResult{
				{index: 0, body: []byte(`{"generation":`)},
				{index: 1, body: pl.body(1, 2, 1)},
			}
			before := mRouterShardErrors.With("0").Value()
			batches, alive, _, err := rt.gatherClassify(results, pl.n, pl.decode)
			if err != nil {
				t.Fatal(err)
			}
			if alive != 1 || batches[0] != nil || batches[1] == nil {
				t.Fatalf("alive %d survivors %v, want only shard 1", alive, batches)
			}
			if !results[0].failed() || !strings.Contains(results[0].err.Error(), "shard 0: decoding") {
				t.Fatalf("undecodable shard error = %v", results[0].err)
			}
			if got := mRouterShardErrors.With("0").Value(); got != before+1 {
				t.Fatalf("shard_errors_total{0} moved %v → %v, want +1", before, got)
			}
		})
		t.Run(pl.name+"/every shard failed", func(t *testing.T) {
			down := errors.New("shard down")
			results := []callResult{{index: 0, err: down}, {index: 1, err: down}}
			_, alive, _, err := gatherRouter(2).gatherClassify(results, pl.n, pl.decode)
			if err != nil || alive != 0 {
				t.Fatalf("alive %d err %v, want 0 survivors and no gather error", alive, err)
			}
		})
	}
}

// A batch answer of the wrong width cannot be merged query by query.
func TestGatherClassifyRejectsWrongWidth(t *testing.T) {
	pl := payloads(t)[1]
	results := []callResult{{index: 0, body: pl.body(1, 1, 0)}}
	_, alive, _, err := gatherRouter(1).gatherClassify(results, 3, pl.decode)
	if err != nil || alive != 0 {
		t.Fatalf("alive %d err %v", alive, err)
	}
	if results[0].err == nil || !strings.Contains(results[0].err.Error(), "2 results for 3 queries") {
		t.Fatalf("err = %v", results[0].err)
	}
}
