package main

// params freezes every size, count and rate of the benchmark. Two sets
// exist: full (what BENCHMARK.json's command runs) and smoke (hundreds of
// schemas, seconds in total — what `go test ./bench` drives so tier-1 stays
// hermetic and fast). Nothing here is tuned per run; a later PR that wants
// different sizes changes this file in a benchmark-only change and
// re-measures the baseline.
type params struct {
	// Wide corpus (build-blocked, classify-wide, classify-sharded):
	// dataset.Large{N: WideN, Domains: WideDomains}. WideN ≥ 4096 puts
	// payg.Build's "auto" on the MinHash-LSH + sparse-HAC path.
	WideN, WideDomains int
	// Compound corpus (classify-fuzzy): FuzzyStems domains, each with
	// FuzzyFields long glued terms in FuzzyVariants spellings.
	FuzzyN, FuzzyStems, FuzzyFields, FuzzyVariants int
	// Mixed corpus (mixed-ingest): MixedBase schemas over MixedDomains
	// domains are served; MixedHeldOut arrive over POST /schemas, one in
	// ten of them from MixedUnseen domains the base never saw.
	MixedBase, MixedDomains, MixedHeldOut, MixedUnseen int
	// MixedRate is the open-loop schedule in requests per second;
	// MixedHot the size of the Zipf-drawn classify hot set;
	// MixedReclusterEvery forces POST /admin/recluster after every that
	// many scheduled ops.
	MixedRate           float64
	MixedHot            int
	MixedReclusterEvery int
	// WarmupOps is the fixed, untimed, validated prefix of every server
	// workload's op stream; `quality` is scored on it so it repeats
	// exactly at a fixed seed.
	WarmupOps int
	// A timed phase is cut into slices and each gated latency is the lower
	// quartile over slices of the slice's percentile (sliceQuartile says
	// why): SliceOps classifies, BuildsPerSlice payg.Build calls,
	// MixedSliceIngests POST /schemas acks. 2,000 ops leave 20 beyond a
	// slice's p99, 150 acks 15 beyond its p90.
	SliceOps, BuildsPerSlice, MixedSliceIngests int
	// Setups is how many times a run repeats set-up; setup_s is their
	// median. A traced run sets up once.
	Setups int
	// MaxOpsPerSecond bounds the pre-generated closed-loop stream:
	// seconds × this many distinct queries are generated.
	MaxOpsPerSecond int
	// TraceQueries is the number of sampled queries the traced run pushes
	// through each read-path layer; TraceIngests likewise for writes.
	TraceQueries, TraceIngests int
}

var fullParams = params{
	WideN: 6000, WideDomains: 120,
	FuzzyN: 1500, FuzzyStems: 50, FuzzyFields: 8, FuzzyVariants: 20,
	MixedBase: 1500, MixedDomains: 20, MixedHeldOut: 2200, MixedUnseen: 4,
	MixedRate: 600, MixedHot: 256, MixedReclusterEvery: 3600,
	WarmupOps: 2000,
	SliceOps:  2000, BuildsPerSlice: 4, MixedSliceIngests: 150,
	Setups:          3,
	MaxOpsPerSecond: 8000,
	TraceQueries:    1000, TraceIngests: 200,
}

var smokeParams = params{
	WideN: 400, WideDomains: 8,
	FuzzyN: 200, FuzzyStems: 8, FuzzyFields: 6, FuzzyVariants: 6,
	MixedBase: 200, MixedDomains: 4, MixedHeldOut: 120, MixedUnseen: 2,
	MixedRate: 200, MixedHot: 32, MixedReclusterEvery: 40,
	WarmupOps: 100,
	SliceOps:  50, BuildsPerSlice: 2, MixedSliceIngests: 10,
	Setups:          1,
	MaxOpsPerSecond: 20000,
	TraceQueries:    50, TraceIngests: 20,
}

// top is the k every classify request asks for.
const top = 3

// openConns is the open loop's concurrency: two connections, two
// goroutines, so an op due while a slow one is in flight is still sent on
// time. Closed loops use one.
const openConns = 2
