package cluster

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"schemaflow/internal/candgen"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// allPairs lists every pair over n schemas, sorted as PairwiseSims wants.
func allPairs(n int) []candgen.Pair {
	var out []candgen.Pair
	for a := range int32(n) {
		for b := a + 1; b < int32(n); b++ {
			out = append(out, candgen.Pair{A: a, B: b})
		}
	}
	return out
}

func allPairSims(tb testing.TB, sp *feature.Space, workers int) *PairSims {
	tb.Helper()
	ps, err := PairwiseSims(context.Background(), sp, allPairs(sp.NumSchemas()), workers)
	if err != nil {
		tb.Fatalf("PairwiseSims: %v", err)
	}
	return ps
}

func resultsEqual(tb testing.TB, label string, a, b *Result) {
	tb.Helper()
	if len(a.Assign) != len(b.Assign) {
		tb.Fatalf("%s: assign lengths %d vs %d", label, len(a.Assign), len(b.Assign))
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			tb.Fatalf("%s: schema %d assigned %d vs %d\n a=%v\n b=%v",
				label, i, a.Assign[i], b.Assign[i], a.Assign, b.Assign)
		}
	}
	if len(a.Merges) != len(b.Merges) {
		tb.Fatalf("%s: %d merges vs %d", label, len(a.Merges), len(b.Merges))
	}
	for i := range a.Merges {
		if a.Merges[i] != b.Merges[i] {
			tb.Fatalf("%s: merge %d = %+v vs %+v", label, i, a.Merges[i], b.Merges[i])
		}
	}
}

// TestPairwiseSimsMatchesSpace checks the sparse structure stores exactly
// the space's similarities, symmetrically, with zero-sim pairs dropped.
func TestPairwiseSimsMatchesSpace(t *testing.T) {
	sp := buildSpace(t, twoDomainSet())
	n := sp.NumSchemas()
	ps := allPairSims(t, sp, 3)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			want := sp.Similarity(i, j)
			if got := ps.Sim(i, j); got != want {
				t.Errorf("Sim(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	// Degrees must exclude zero-sim pairs.
	for i := 0; i < n; i++ {
		deg := 0
		for j := 0; j < n; j++ {
			if j != i && sp.Similarity(i, j) > 0 {
				deg++
			}
		}
		if got := ps.Degree(i); got != deg {
			t.Errorf("Degree(%d) = %d, want %d", i, got, deg)
		}
	}
}

// TestPairwiseSimsDigests pins the CSR over build-sized pair sets to sha256
// digests of rowStart, nbr and the similarities' bits (little-endian), each
// at one worker, at the default (GOMAXPROCS) and at three. The complete rows
// (CompletePairSims at floor 0) were recorded from the build that read an
// O(n²) similarity memo. The floor rows are the blocked build's pair set,
// CompletePairSims at feature.PairFloor — the first is the gated
// build-blocked workload's — and the listed rows PairwiseSims over the same
// pairs as feature.TermVectorizer lists them, held to the floor rows'
// digests: two readers of one graph.
func TestPairwiseSimsDigests(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	large6000 := dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
	large1500 := dataset.Large(dataset.LargeConfig{N: 1500, Seed: 3})
	for _, tc := range []struct {
		name   string
		set    schema.Set
		source string // "listed": PairwiseSims over TermVectorizer's pairs; "complete", "floor": CompletePairSims at floor 0 and at feature.PairFloor
		stored int
		sha    string
	}{
		{"large-6000x120/floor", large6000, "floor", 264218, "249f3cbf9c25812ef10b11651d522782671c0f27a3b84b95c548d9262f38b5b8"},
		{"large-1500/floor", large1500, "floor", 160881, "a6af3927116b2c66f872915d2872b0af6a38f4f4a6b4d7e773fabdb33a28bb0a"},
		{"ddh/complete", dataset.DDH(1), "complete", 2398654, "c0f31edaeedf8479ef8987ce76ab39bbcd10a3b1d6e4ce3a842e01c751d387ca"},
		{"large-3700x24/complete", dataset.Large(dataset.LargeConfig{N: 3700, Domains: 24, Seed: 1}), "complete", 333129, "18867c734fbdb1f713cf9a048919e57e3e5fe6d3b8d937a7fc24397b14efb5f3"},
		{"large-6000x120/listed", large6000, "listed", 264218, "249f3cbf9c25812ef10b11651d522782671c0f27a3b84b95c548d9262f38b5b8"},
		{"large-1500/listed", large1500, "listed", 160881, "a6af3927116b2c66f872915d2872b0af6a38f4f4a6b4d7e773fabdb33a28bb0a"},
	} {
		sp := feature.BuildLite(tc.set, feature.DefaultConfig())
		for _, workers := range []int{1, 0, 3} {
			var ps *PairSims
			var err error
			switch tc.source {
			case "listed":
				ps, err = PairwiseSims(context.Background(), sp, floorPairs(t, sp), workers)
			case "floor":
				runtime.GOMAXPROCS(cmp.Or(workers, procs))
				ps, err = CompletePairSims(context.Background(), sp, feature.PairFloor)
			default:
				runtime.GOMAXPROCS(cmp.Or(workers, procs))
				ps, err = CompletePairSims(context.Background(), sp, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := pairSimsDigest(ps); ps.NumPairs() != tc.stored || got != tc.sha {
				t.Errorf("%s workers=%d: %d pairs stored, sha256 %s; recorded %d, %s", tc.name, workers, ps.NumPairs(), got, tc.stored, tc.sha)
			}
		}
	}
}

// floorPairs is the blocked build's pair list as the benchmark's trace reads
// it: feature.TermVectorizer's pairs at or above feature.PairFloor.
func floorPairs(tb testing.TB, sp *feature.Space) []candgen.Pair {
	tb.Helper()
	v := feature.NewTermVectorizer(candgen.Config{})
	if err := v.Fit(sp); err != nil {
		tb.Fatal(err)
	}
	pairs, err := v.CandidatePairs(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return pairs
}

func pairSimsDigest(ps *PairSims) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range ps.rowStart {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, v := range ps.nbr {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	for _, v := range ps.sim {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestPairwiseSimsRejectsBadInput(t *testing.T) {
	sp := buildSpace(t, twoDomainSet())
	ctx := context.Background()
	if _, err := PairwiseSims(ctx, sp, []candgen.Pair{{A: 2, B: 1}}, 1); err == nil {
		t.Error("accepted pair with A > B")
	}
	if _, err := PairwiseSims(ctx, sp, []candgen.Pair{{A: 0, B: 99}}, 1); err == nil {
		t.Error("accepted out-of-range pair")
	}
	if _, err := PairwiseSims(ctx, sp, []candgen.Pair{{A: 1, B: 2}, {A: 0, B: 1}}, 1); err == nil {
		t.Error("accepted unsorted pairs")
	}
	if _, err := PairwiseSims(ctx, sp, []candgen.Pair{{A: 0, B: 1}, {A: 0, B: 1}, {A: 0, B: 0}}, 1); err == nil {
		t.Error("accepted pair with A = B after a duplicate")
	}
	// Duplicates are tolerated and collapsed, wherever they sit — at three
	// workers one straddles two chunks, at four one worker gets no chunk — and
	// the caller's slice is left as it was.
	dup := []candgen.Pair{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 2}, {A: 0, B: 2}, {A: 1, B: 2}, {A: 1, B: 2}}
	want, err := PairwiseSims(ctx, sp, slices.Compact(slices.Clone(dup)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 4} {
		in := slices.Clone(dup)
		got, err := PairwiseSims(ctx, sp, in, workers)
		if err != nil {
			t.Fatalf("workers=%d: duplicate pairs rejected: %v", workers, err)
		}
		if !slices.Equal(in, dup) {
			t.Errorf("workers=%d: input slice rewritten: %v", workers, in)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: duplicates changed the result: %d pairs stored, %d without them", workers, got.NumPairs(), want.NumPairs())
		}
	}
}

// TestSparseMatchesDenseOnAllPairs is the core equivalence guarantee: over
// a complete pair set the engine must reproduce Algorithm 2 as defined —
// oracleAgglomerative — bit for bit: same merges in the same order at the
// same similarities, same assignment, for every linkage, down to tau = 0
// and on corpora with plenty of exact ties. Both ways in are held to it:
// AgglomerativeSparse over PairwiseSims(AllPairs) and the Agglomerative
// entry point. The oracle costs O(n²) or more per round, so this stops at a
// few hundred schemas; TestAgglomerativeMatchesDeletedDenseDriver covers the
// corpora of a few thousand.
func TestSparseMatchesDenseOnAllPairs(t *testing.T) {
	type corpus struct {
		name string
		set  schema.Set
		taus []float64
	}
	grid := []float64{0, 0.2, 0.5}
	// Duplicated schemas manufacture exact similarity ties, stressing the
	// tie-break order.
	dup := append(twoDomainSet(), twoDomainSet()...)
	corpora := []corpus{
		{"two-domain", twoDomainSet(), grid},
		{"large-240", dataset.Large(dataset.LargeConfig{N: 240, Domains: 6, Seed: 3}), grid},
		{"duplicated", dup, grid},
		{"dw+ss", dataset.Union(dataset.DW(1), dataset.SS(1)), grid},
	}
	for _, c := range corpora {
		sp := buildSpace(t, c.set)
		ps := allPairSims(t, sp, 4)
		for _, m := range Methods() {
			for _, tau := range c.taus {
				label := fmt.Sprintf("%s/%v/tau=%v", c.name, m, tau)
				want := oracleAgglomerative(sp, m, tau)
				sparse, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(m), tau, ps, SparseOptions{Workers: 1})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				resultsEqual(t, label+" sparse", want, sparse)
				resultsEqual(t, label+" entry point", want, mustAgg(t, sp, NewLinkage(m), tau))
			}
		}
	}
}

// TestAgglomerativeMatchesDeletedDenseDriver pins the engine, on the two
// corpora too large for the oracle, to what the dense n×n driver produced
// before it was deleted: the digests below were recorded at commit 0938270
// from cluster.Agglomerative (then hacState) and cover every assignment and
// every merge with its similarity's bits. Both ways into the engine must
// reproduce them; the oracle run over these corpora once, by hand (about five
// minutes), agreed as well.
func TestAgglomerativeMatchesDeletedDenseDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen clusterings of 1.5k–2.3k schemas")
	}
	digest := func(r *Result) string {
		h := sha256.New()
		put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
		for _, a := range r.Assign {
			put(uint64(a))
		}
		for _, m := range r.Merges {
			put(uint64(m.A))
			put(uint64(m.B))
			put(math.Float64bits(m.Sim))
		}
		return fmt.Sprintf("%x", h.Sum(nil)[:8])
	}
	for _, c := range []struct {
		name string
		set  schema.Set
		want map[Method]string
	}{
		{"ddh", dataset.DDH(1), map[Method]string{
			MinJaccard:   "3bed540ddd37aaad", // 2210 merges, 113 clusters
			MaxJaccard:   "89ed3efbf9ed3561", // 2322 merges, 1 cluster
			AvgJaccard:   "aba038bce0016c16", // 2302 merges, 21 clusters
			TotalJaccard: "b0149a557eccb361", // 2037 merges, 286 clusters
		}},
		{"large-1500", dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1}), map[Method]string{
			MinJaccard:   "5a79cac5573d015a", // 1285 merges, 215 clusters
			MaxJaccard:   "741ad9b892e0294f", // 1493 merges, 7 clusters
			AvgJaccard:   "b833f9a58e27d9f1", // 1433 merges, 67 clusters
			TotalJaccard: "9b5772208ca4f539", // 1115 merges, 385 clusters
		}},
	} {
		sp := buildSpace(t, c.set)
		ps := allPairSims(t, sp, 0)
		for _, m := range Methods() {
			if got := digest(mustAgg(t, sp, NewLinkage(m), 0.25)); got != c.want[m] {
				t.Errorf("%s/%v: Agglomerative digest %s, want %s", c.name, m, got, c.want[m])
			}
			sparse, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(m), 0.25, ps, SparseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(sparse); got != c.want[m] {
				t.Errorf("%s/%v: AgglomerativeSparse digest %s, want %s", c.name, m, got, c.want[m])
			}
		}
	}
}

// TestAgglomerativeSparseOnlyReadsPairSims: a PairSims is shared — the
// blocked build hands the same one to Algorithm 3 after clustering — so the
// engine, which rewrites rows in place, must be doing that to its own copy.
func TestAgglomerativeSparseOnlyReadsPairSims(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 240, Domains: 6, Seed: 3})
	sp := buildSpace(t, append(set, set[:40]...))
	ps := allPairSims(t, sp, 2)
	rowStart, nbr, sim := slices.Clone(ps.rowStart), slices.Clone(ps.nbr), slices.Clone(ps.sim)
	for _, m := range Methods() {
		if _, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(m), 0.1, ps, SparseOptions{}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ps.rowStart, rowStart) || !slices.Equal(ps.nbr, nbr) || !slices.Equal(ps.sim, sim) {
			t.Fatalf("%v: AgglomerativeSparse wrote to its PairSims", m)
		}
	}
}

// TestCompletePairSimsSameFromEverySource: the complete pair set is the
// same structure whether it is read off the space's rows or assembled by
// PairwiseSims from the list of every pair (whose binary-mode similarity is a
// different routine, a probe count, bitvec.AndCountIndices) — otherwise
// "exact" would depend on the reader.
func TestCompletePairSimsSameFromEverySource(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 240, Domains: 6, Seed: 3})
	for _, mode := range []feature.Mode{feature.Binary, feature.TermFrequency} {
		cfg := feature.DefaultConfig()
		cfg.Mode = mode
		sp := feature.BuildLite(set, cfg)
		got, err := CompletePairSims(context.Background(), sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := allPairSims(t, sp, 3)
		if got.n != want.n || got.numPairs != want.numPairs ||
			!slices.Equal(got.rowStart, want.rowStart) || !slices.Equal(got.nbr, want.nbr) || !slices.Equal(got.sim, want.sim) {
			t.Errorf("%v features: complete pair set differs from PairwiseSims(allPairs)", mode)
		}
		if want.numPairs == 0 || want.numPairs == len(set)*(len(set)-1)/2 {
			t.Fatalf("%v features: %d stored pairs — the corpus should have both zero and positive similarities", mode, want.numPairs)
		}
	}
}

// TestFilteredPairSimsAreTheVerifiedCandidates: CompletePairSims at
// feature.PairFloor is PairwiseSims over the pairs feature.TermVectorizer
// lists — the blocked build's pair set from either source — in both feature
// modes, and Examined counts every positive pair, the dropped ones included.
func TestFilteredPairSimsAreTheVerifiedCandidates(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 600, Domains: 12, Seed: 1})
	ctx := context.Background()
	for _, mode := range []feature.Mode{feature.Binary, feature.TermFrequency} {
		cfg := feature.DefaultConfig()
		cfg.Mode = mode
		sp := feature.BuildLite(set, cfg)
		got, err := CompletePairSims(ctx, sp, feature.PairFloor)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PairwiseSims(ctx, sp, floorPairs(t, sp), 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.n != want.n || got.numPairs != want.numPairs ||
			!slices.Equal(got.rowStart, want.rowStart) || !slices.Equal(got.nbr, want.nbr) || !slices.Equal(got.sim, want.sim) {
			t.Errorf("%v features: floor pair set differs from PairwiseSims over the listed pairs", mode)
		}
		complete, err := CompletePairSims(ctx, sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Examined() != complete.NumPairs() || complete.Examined() != complete.NumPairs() {
			t.Errorf("%v features: examined %d at the floor, %d complete; want %d positive pairs", mode, got.Examined(), complete.Examined(), complete.NumPairs())
		}
		if got.NumPairs() == 0 || got.NumPairs() >= complete.NumPairs() {
			t.Fatalf("%v features: the floor keeps %d of %d positive pairs; the corpus should have both kept and dropped ones", mode, got.NumPairs(), complete.NumPairs())
		}
	}
}

// TestPropertyFloorGraphIsTheDefinition: CompletePairSims(sp, floor) stores
// exactly the pairs whose similarity, written from the definition — the
// bitvec Jaccard of the two feature vectors, the generalized Jaccard of the
// counts in term-frequency mode — is positive and at least floor, with that
// similarity, on random corpora, in both feature modes, at one, two and
// four workers. The floors are 0, feature.PairFloor, and a similarity the
// corpus has with its two float neighbours, so the ≥ is decided at the
// last bit.
func TestPropertyFloorGraphIsTheDefinition(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	rng := rand.New(rand.NewSource(41))
	for trial := range 6 {
		set := dataset.Large(dataset.LargeConfig{N: 60 + rng.Intn(200), Domains: 2 + rng.Intn(8), Seed: rng.Int63()})
		n := len(set)
		for _, mode := range []feature.Mode{feature.Binary, feature.TermFrequency} {
			cfg := feature.DefaultConfig()
			cfg.Mode = mode
			sp := feature.BuildLite(set, cfg)
			sim := make([]float64, n*n)
			var positive []float64
			for a := range n {
				for b := range n {
					if mode == feature.Binary {
						sim[a*n+b] = sp.Vectors[a].Jaccard(sp.Vectors[b])
					} else {
						sim[a*n+b] = sp.Similarity(a, b)
					}
					if a < b && sim[a*n+b] > 0 {
						positive = append(positive, sim[a*n+b])
					}
				}
			}
			v := positive[rng.Intn(len(positive))]
			for _, floor := range []float64{0, feature.PairFloor, v, math.Nextafter(v, 0), math.Nextafter(v, 1)} {
				for _, workers := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(workers)
					ps, err := CompletePairSims(context.Background(), sp, floor)
					if err != nil {
						t.Fatal(err)
					}
					stored := 0
					for a := range n {
						js, ss := ps.Row(a)
						var want []int32
						var wantSims []float64
						for b := range n {
							if s := sim[a*n+b]; b != a && s > 0 && s >= floor {
								want, wantSims = append(want, int32(b)), append(wantSims, s)
							}
						}
						if !slices.Equal(js, want) || !slices.Equal(ss, wantSims) {
							t.Fatalf("trial %d %v floor %v workers %d: row %d is %v %v, want %v %v", trial, mode, floor, workers, a, js, ss, want, wantSims)
						}
						stored += len(js)
					}
					if stored != 2*ps.NumPairs() {
						t.Fatalf("trial %d %v floor %v: rows hold %d entries for %d pairs", trial, mode, floor, stored, ps.NumPairs())
					}
				}
			}
		}
	}
}

// TestSparseParallelEqualsSequential is the determinism regression: any
// worker count must produce the identical clustering, including the order of
// equal-similarity merges — within a component (the duplicated schemas tie
// exactly) and across components, which run on different goroutines and meet
// again only in the interleaved trace.
func TestSparseParallelEqualsSequential(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 300, Domains: 5, Seed: 9})
	// Duplicate a slice of the corpus for guaranteed sim ties.
	set = append(set, set[:40]...)
	sp := buildSpace(t, set)
	ps := allPairSims(t, sp, 4)

	for _, m := range Methods() {
		seq, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(m), 0.25, ps, SparseOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if m != TotalJaccard && seq.Components < 3 {
			t.Fatalf("%v: %d component(s); the corpus should give the workers several", m, seq.Components)
		}
		for _, workers := range []int{2, 8} {
			par, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(m), 0.25, ps, SparseOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, m.String(), seq, par)
		}
	}
}

// TestSparseTieBreakIsLowestIndex pins the documented tie rule directly:
// three identical schemas must merge (0,1) first, then (0,2).
func TestSparseTieBreakIsLowestIndex(t *testing.T) {
	attrs := []string{"alpha", "bravo", "charlie"}
	set := schema.Set{
		{Name: "a", Attributes: attrs},
		{Name: "b", Attributes: attrs},
		{Name: "c", Attributes: attrs},
	}
	sp := buildSpace(t, set)
	ps := allPairSims(t, sp, 1)
	res, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(AvgJaccard), 0.5, ps, SparseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != 2 {
		t.Fatalf("got %d merges, want 2", len(res.Merges))
	}
	if res.Merges[0].A != 0 || res.Merges[0].B != 1 {
		t.Errorf("first merge %+v, want (0,1)", res.Merges[0])
	}
	if res.Merges[1].A != 0 || res.Merges[1].B != 2 {
		t.Errorf("second merge %+v, want (0,2)", res.Merges[1])
	}
}

// TestSparseMissingPairsAreZero: with an empty candidate set, nothing can
// merge at tau > 0.
func TestSparseMissingPairsAreZero(t *testing.T) {
	sp := buildSpace(t, twoDomainSet())
	ps, err := PairwiseSims(context.Background(), sp, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(AvgJaccard), 0.2, ps, SparseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != sp.NumSchemas() {
		t.Errorf("empty candidate set produced %d clusters, want all singletons", res.NumClusters())
	}
}

// TestSparseTauZeroMergesComponents pins the tau = 0 semantics: once the
// positive-similarity merges are exhausted the remaining components still
// clear the threshold at similarity 0, and are folded into the lowest one in
// ascending index order — a single cluster, whichever pairs the candidate
// set held.
func TestSparseTauZeroMergesComponents(t *testing.T) {
	set := schema.Set{
		{Name: "a1", Attributes: []string{"title", "author"}},
		{Name: "b1", Attributes: []string{"mileage", "price"}},
		{Name: "a2", Attributes: []string{"title", "author", "year"}},
		{Name: "c1", Attributes: []string{"telescope aperture"}},
		{Name: "b2", Attributes: []string{"mileage", "price", "color"}},
	}
	sp := buildSpace(t, set)
	withinComponents, err := PairwiseSims(context.Background(), sp, []candgen.Pair{{A: 0, B: 2}, {A: 1, B: 4}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for label, ps := range map[string]*PairSims{"complete": allPairSims(t, sp, 1), "within components only": withinComponents} {
		res, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(AvgJaccard), 0, ps, SparseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumClusters() != 1 {
			t.Errorf("%s: tau=0 produced %d clusters, want 1: %v", label, res.NumClusters(), res.Members)
		}
		if len(res.Merges) != 4 {
			t.Fatalf("%s: %d merges, want 4: %+v", label, len(res.Merges), res.Merges)
		}
		// Components {0,2}, {1,4}, {3}: 0 absorbs 1, then 3.
		if fold := res.Merges[2:]; fold[0] != (Merge{A: 0, B: 1, Sim: 0}) || fold[1] != (Merge{A: 0, B: 3, Sim: 0}) {
			t.Errorf("%s: zero-similarity fold %+v, want (0,1) then (0,3) at Sim 0", label, fold)
		}
	}
}

func TestSparseCancellation(t *testing.T) {
	sp := buildSpace(t, dataset.Large(dataset.LargeConfig{N: 200, Domains: 4, Seed: 5}))
	pairs := allPairs(sp.NumSchemas())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PairwiseSims(ctx, sp, pairs, 2); err == nil {
		t.Error("PairwiseSims ignored a canceled context")
	}
	ps := allPairSims(t, sp, 2)
	if _, err := AgglomerativeSparse(ctx, sp, NewLinkage(AvgJaccard), 0.25, ps, SparseOptions{}); err == nil {
		t.Error("AgglomerativeSparse ignored a canceled context")
	}
	if _, err := AgglomerativeContext(ctx, sp, NewLinkage(AvgJaccard), 0.25); err == nil {
		t.Error("AgglomerativeContext ignored a canceled context")
	}
	if _, err := feature.BuildContext(ctx, dataset.Large(dataset.LargeConfig{N: 128, Domains: 4, Seed: 5}), feature.DefaultConfig()); err == nil {
		t.Error("feature.BuildContext ignored a canceled context")
	}
}

func TestSparseRejectsBadTauAndSizeMismatch(t *testing.T) {
	sp := buildSpace(t, twoDomainSet())
	ps := allPairSims(t, sp, 1)
	if _, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(AvgJaccard), 1.5, ps, SparseOptions{}); err == nil {
		t.Error("accepted tau outside [0,1]")
	}
	// A bad threshold is reported as such, before the O(n²) pair scan has a
	// chance to notice the context instead.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AgglomerativeContext(canceled, sp, NewLinkage(AvgJaccard), math.NaN()); err == nil || errors.Is(err, context.Canceled) {
		t.Errorf("AgglomerativeContext(canceled ctx, NaN tau) = %v, want the tau error", err)
	}
	other := buildSpace(t, twoDomainSet()[:3])
	if _, err := AgglomerativeSparse(context.Background(), other, NewLinkage(AvgJaccard), 0.2, ps, SparseOptions{}); err == nil {
		t.Error("accepted pair sims for a different corpus size")
	}
}

// TestMergeNeighborOfTheLoserAloneDoesNotHoldTheWinner asserts what merge's
// skipped lookup rests on, directly: when b folds into a, a live neighbor
// found in b's row and not in a's holds no edge to a — not in the sorted part
// of its row, which is all the lookup would search, and not in its tail. The
// graph is random and sparse (most merges meet such neighbors), the merge
// order is random too, and the min linkage writes explicit zeros, so a
// similarity of 0 on a's side does not stand in for "absent from a's row".
func TestMergeNeighborOfTheLoserAloneDoesNotHoldTheWinner(t *testing.T) {
	const n = 240
	rng := rand.New(rand.NewSource(24))
	ps := newPairSims(n)
	type edge struct {
		a, b int32
		s    float64
	}
	var edges []edge
	for a := int32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Intn(12) == 0 {
				edges = append(edges, edge{a, b, float64(1+rng.Intn(8)) / 8})
			}
		}
	}
	deg := make([]int64, n)
	for _, e := range edges {
		count(deg, e.a, e.b, e.s)
	}
	ps.alloc([][]int64{deg})
	for _, e := range edges {
		ps.put(deg, e.a, e.b, e.s)
	}

	for _, method := range []Method{AvgJaccard, MinJaccard} {
		st, err := newSparseState(context.Background(), NewLinkage(method), ps, identityPartition(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		live := make([]int32, n)
		for i := range live {
			live[i] = int32(i)
		}
		checked := 0
		for len(live) > 1 {
			// Half the merges follow an edge, as the engine's always do.
			x := rng.Intn(len(live))
			a, b := live[x], live[(x+1+rng.Intn(len(live)-1))%len(live)]
			if keys, _ := st.normalized(&st.rows[a], 0); len(keys) > 0 && rng.Intn(2) == 0 {
				if c := keys[rng.Intn(len(keys))]; st.active[c] {
					b = c
				}
			}
			if a > b {
				a, b = b, a
			}
			aK, _ := st.normalized(&st.rows[a], 0)
			bK, _ := st.normalized(&st.rows[b], 1)
			for _, c := range bK {
				if c == a || !st.active[c] || slices.Contains(aK, c) {
					continue
				}
				checked++
				if rc := &st.rows[c]; rc.find(a, n) >= 0 || slices.Contains(rc.xk, a) {
					t.Fatalf("%v: merging %d into %d: neighbor %d of %d alone holds an edge to %d", method, b, a, c, b, a)
				}
			}
			st.merge(a, b)
			live = slices.DeleteFunc(live, func(c int32) bool { return c == b })
		}
		if checked < n {
			t.Fatalf("%v: only %d neighbors checked; the graph is not exercising the skip", method, checked)
		}
	}
}
