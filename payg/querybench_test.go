package payg

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// benchQueryArtifact gates TestQueryBenchArtifact, which renders the
// cached-vs-uncached classification benchmark to BENCH_query.json at the
// repository root (make bench-query).
var benchQueryArtifact = flag.Bool("bench-query-artifact", false, "write BENCH_query.json from the Classify benchmarks")

// queryBenchStems are the domain anchors of the synthetic query corpus: one
// per template, chosen long and mutually dissimilar so LCS at τ = 0.8 never
// bridges two templates and the clustering keeps them as separate domains.
var queryBenchStems = []string{
	"aircraft", "vessel", "warehouse", "invoice", "patient",
	"vehicle", "professor", "satellite", "molecule", "tournament",
	"orchestra", "reservoir", "manuscript", "telescope", "cathedral",
	"glacier", "vineyard", "submarine", "locomotive", "observatory",
	"laboratory", "peninsula", "archipelago", "monastery", "lighthouse",
	"refinery", "plantation", "expedition", "carnival", "symphony",
	"aquarium", "boulevard", "catamaran", "dirigible", "escalator",
	"fortress", "gymnasium", "hurricane", "iceberg", "jacaranda",
	"kaleidoscope", "labyrinth", "metropolis", "nebula", "obelisk",
	"pagoda", "quarry", "rotunda", "sanctuary", "terrarium",
}

var queryBenchFields = []string{
	"identifier", "name", "created", "updated", "price", "status", "category", "owner",
}

// queryBenchSet generates a deterministic n-schema corpus over
// len(queryBenchStems) domain templates. Attribute names glue stem and
// field into a single term ("aircraftprice") so every template owns a
// disjoint vocabulary slice; randomly dropped fields plus suffixed variants
// fatten the vocabulary the way real per-source schemas do.
func queryBenchSet(n int, seed int64) []Schema {
	rng := rand.New(rand.NewSource(seed))
	set := make([]Schema, 0, n)
	for i := 0; i < n; i++ {
		stem := queryBenchStems[i%len(queryBenchStems)]
		var attrs []string
		for _, f := range queryBenchFields {
			if rng.Intn(10) < 7 {
				attrs = append(attrs, stem+f)
			}
		}
		for k := 0; k < 2; k++ {
			f := queryBenchFields[rng.Intn(len(queryBenchFields))]
			attrs = append(attrs, fmt.Sprintf("%s%sv%02d", stem, f, rng.Intn(40)))
		}
		if len(attrs) == 0 {
			attrs = []string{stem + queryBenchFields[0]}
		}
		set = append(set, Schema{Name: fmt.Sprintf("q%04d", i), Attributes: attrs})
	}
	return set
}

// queryBenchWorkload is the repeated-query stream: width distinct queries,
// each two or three known template terms, cycled by the benchmarks so every
// query past the first pass is a cache hit.
func queryBenchWorkload(width int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]string, 0, width)
	for i := 0; i < width; i++ {
		stem := queryBenchStems[rng.Intn(len(queryBenchStems))]
		terms := []string{
			stem + queryBenchFields[rng.Intn(len(queryBenchFields))],
			stem + queryBenchFields[rng.Intn(len(queryBenchFields))],
		}
		if i%2 == 0 {
			other := queryBenchStems[rng.Intn(len(queryBenchStems))]
			terms = append(terms, other+queryBenchFields[rng.Intn(len(queryBenchFields))])
		}
		qs = append(qs, strings.Join(terms, " "))
	}
	return qs
}

const queryBenchN = 1000

var (
	queryBenchOnce sync.Once
	queryBenchSys  *System
	queryBenchErr  error
)

// queryBenchSystem builds the n-schema system once and shares it across
// the Classify benchmarks — the model is read-only on the query path, so
// sharing is safe and keeps `go test -bench` setup off every benchmark.
func queryBenchSystem(tb testing.TB) *System {
	tb.Helper()
	queryBenchOnce.Do(func() {
		queryBenchSys, queryBenchErr = Build(queryBenchSet(queryBenchN, 1), Options{SkipMediation: true})
	})
	if queryBenchErr != nil {
		tb.Fatal(queryBenchErr)
	}
	return queryBenchSys
}

// BenchmarkClassifyCached measures the Manager query path on a repeated
// workload: after one warm pass every op is a generation-checked cache hit
// (canonical-key lookup plus a defensive copy of the ranked scores).
func BenchmarkClassifyCached(b *testing.B) {
	sys := queryBenchSystem(b)
	mgr, err := NewManager(sys, nil, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	queries := queryBenchWorkload(64, 2)
	for _, q := range queries {
		mgr.Classify(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scores := mgr.Classify(queries[i%len(queries)]); len(scores) == 0 {
			b.Fatal("empty ranking")
		}
	}
}

// BenchmarkClassifyUncached measures the same workload against the raw
// System path — embed the query, score every domain, sort — which is what
// every repeated query paid before the cache.
func BenchmarkClassifyUncached(b *testing.B) {
	sys := queryBenchSystem(b)
	queries := queryBenchWorkload(64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scores := sys.Classify(queries[i%len(queries)]); len(scores) == 0 {
			b.Fatal("empty ranking")
		}
	}
}

// BenchmarkClassifyBatch measures the parallel batch path: one op is the
// whole 64-query workload through Classifier.ClassifyBatch (flat score
// backing, bounded fan-out). Compare ns/op ÷ 64 against the uncached
// single-query cost.
func BenchmarkClassifyBatch(b *testing.B) {
	sys := queryBenchSystem(b)
	queries := queryBenchWorkload(64, 2)
	kws := make([][]string, len(queries))
	for i, q := range queries {
		kws[i] = strings.Fields(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := sys.ClassifyBatch(kws, sys.NumDomains()); len(out) != len(kws) {
			b.Fatal("short batch")
		}
	}
}

// TestQueryBenchArtifact runs the trio via testing.Benchmark and writes the
// comparison to BENCH_query.json (repo root) when -bench-query-artifact is
// set:
//
//	go test ./payg -run TestQueryBenchArtifact -bench-query-artifact=true
func TestQueryBenchArtifact(t *testing.T) {
	if !*benchQueryArtifact {
		t.Skip("set -bench-query-artifact to regenerate BENCH_query.json")
	}
	sys := queryBenchSystem(t)
	cached := testing.Benchmark(BenchmarkClassifyCached)
	uncached := testing.Benchmark(BenchmarkClassifyUncached)
	batch := testing.Benchmark(BenchmarkClassifyBatch)
	type row struct {
		Name        string `json:"name"`
		Iterations  int    `json:"iterations"`
		NsPerOp     int64  `json:"ns_per_op"`
		AllocsPerOp int64  `json:"allocs_per_op"`
		BytesPerOp  int64  `json:"bytes_per_op"`
	}
	toRow := func(name string, r testing.BenchmarkResult) row {
		return row{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	artifact := struct {
		Description   string  `json:"description"`
		GoVersion     string  `json:"go_version"`
		Corpus        string  `json:"corpus"`
		Domains       int     `json:"domains"`
		BatchWidth    int     `json:"batch_width"`
		Cached        row     `json:"cached"`
		Uncached      row     `json:"uncached"`
		Batch         row     `json:"batch"`
		Speedup       float64 `json:"speedup"`
		BatchPerQuery int64   `json:"batch_ns_per_query"`
	}{
		Description: "Repeated-query classification: generation-keyed Manager cache vs uncached System.Classify, plus the parallel batch path (one op = 64 queries)",
		GoVersion:   runtime.Version(),
		Corpus: fmt.Sprintf("synthetic %d-template corpus, n=%d schemas (seed 1), 64-query repeated workload",
			len(queryBenchStems), queryBenchN),
		Domains:       sys.Model().NumDomains(),
		BatchWidth:    64,
		Cached:        toRow("BenchmarkClassifyCached", cached),
		Uncached:      toRow("BenchmarkClassifyUncached", uncached),
		Batch:         toRow("BenchmarkClassifyBatch", batch),
		Speedup:       float64(uncached.NsPerOp()) / float64(cached.NsPerOp()),
		BatchPerQuery: batch.NsPerOp() / 64,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../BENCH_query.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("cached %d ns/op vs uncached %d ns/op (%.0fx); batch %d ns per query",
		cached.NsPerOp(), uncached.NsPerOp(), artifact.Speedup, artifact.BatchPerQuery)
}
