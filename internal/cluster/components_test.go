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
	"sync/atomic"
	"testing"
	"time"

	"schemaflow/internal/candgen"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// blockedPairSims is the blocked build's input to Algorithm 2: a lite space
// and its pairs at or above feature.PairFloor.
func blockedPairSims(tb testing.TB, set schema.Set, cfg feature.Config) (*feature.Space, *PairSims) {
	tb.Helper()
	sp := feature.BuildLite(set, cfg)
	ps, err := CompletePairSims(context.Background(), sp, feature.PairFloor)
	if err != nil {
		tb.Fatal(err)
	}
	return sp, ps
}

func resultDigest(r *Result) string {
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

// TestAgglomerateDigests pins the engine on the corpora the benchmark builds —
// the gated blocked corpus, the exact path's shape (mixed-ingest's) and the
// one-component DDH — to the assignments and merges, similarities by their
// bits. The complete rows are what the single global run produced at commit
// 94ceebf, before the run was split by τ-component; the blocked row was
// re-recorded when the similarity floor replaced the MinHash band test as
// the blocked build's pair graph.
func TestAgglomerateDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("three clusterings of 2.3k–6k schemas")
	}
	const tau = 0.25
	t.Run("large-6000x120/lsh", func(t *testing.T) {
		sp, ps := blockedPairSims(t, dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1}), feature.DefaultConfig())
		res, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(AvgJaccard), tau, ps, SparseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultDigest(res), "497e6ffedfad11ef"; got != want {
			t.Errorf("digest %s, want %s (%d merges, %d clusters)", got, want, len(res.Merges), res.NumClusters())
		}
	})
	for _, c := range []struct {
		name string
		set  schema.Set
		want string
	}{
		{"large-3700x24/complete", dataset.Large(dataset.LargeConfig{N: 3700, Domains: 24, Seed: 1}), "63dc0edd02856ddd"},
		{"ddh/complete", dataset.DDH(1), "aba038bce0016c16"},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := AgglomerativeContext(context.Background(), feature.BuildLite(c.set, feature.DefaultConfig()), NewLinkage(AvgJaccard), tau)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != c.want {
				t.Errorf("digest %s, want %s (%d merges, %d clusters)", got, c.want, len(res.Merges), res.NumClusters())
			}
		})
	}
}

// identityPartition is the partition that splits nothing: one group, every
// schema under its own index.
func identityPartition(n int) *partition {
	p := &partition{comp: make([]int32, n), local: make([]int32, n), members: [][]int32{make([]int32, n)}}
	for i := range p.local {
		p.local[i], p.members[0][i] = int32(i), int32(i)
	}
	return p
}

type simEdge struct {
	a, b int32
	s    float64
}

// pairSimsOf assembles a PairSims from hand-picked similarities: any order,
// either orientation; the last similarity given for a pair stands.
func pairSimsOf(n int, edges []simEdge) *PairSims {
	for i, e := range edges {
		if e.a > e.b {
			edges[i].a, edges[i].b = e.b, e.a
		}
	}
	slices.SortStableFunc(edges, func(x, y simEdge) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	})
	var uniq []simEdge
	for _, e := range edges {
		if k := len(uniq) - 1; k >= 0 && uniq[k].a == e.a && uniq[k].b == e.b {
			uniq[k] = e
			continue
		}
		uniq = append(uniq, e)
	}
	ps := newPairSims(n)
	deg := make([]int64, n)
	for _, e := range uniq {
		count(deg, e.a, e.b, e.s)
	}
	ps.alloc([][]int64{deg})
	for _, e := range uniq {
		ps.put(deg, e.a, e.b, e.s)
	}
	return ps
}

// plantedGraph is a random sparse similarity graph shaped around tau: groups
// of schemas scattered over the index range (so a group's local ids are far
// from its schema indices), connected inside by pairs at or above tau drawn
// from a handful of plateau values (ties everywhere), with weaker pairs on
// top; bridges between groups just below tau, exactly at it — an edge — and
// just above; and schemas with no pair at all.
func plantedGraph(rng *rand.Rand, n int, tau float64) []simEdge {
	below := []float64{math.Nextafter(tau, 0), tau - 1.0/64, tau / 2, 1.0 / 8}
	below = slices.DeleteFunc(below, func(s float64) bool { return s <= 0 || s >= tau })
	atOrAbove := []float64{tau, math.Nextafter(tau, 1), tau + 1.0/64, (1 + tau) / 2, 0.75, 1}
	atOrAbove = slices.DeleteFunc(atOrAbove, func(s float64) bool { return s <= 0 || s < tau || s > 1 })
	pick := func(from []float64) float64 { return from[rng.Intn(len(from))] }

	var groups [][]int32
	perm := rng.Perm(n)
	for len(perm) > 0 {
		sz := min(1+rng.Intn(24), len(perm))
		g := make([]int32, sz)
		for i, x := range perm[:sz] {
			g[i] = int32(x)
		}
		groups, perm = append(groups, g), perm[sz:]
	}
	var edges []simEdge
	for gi, g := range groups {
		if gi%5 == 4 {
			continue // isolated schemas
		}
		for i := 1; i < len(g); i++ {
			edges = append(edges, simEdge{g[rng.Intn(i)], g[i], pick(atOrAbove)})
		}
		for k := 0; k < 2*len(g); k++ {
			if a, b := g[rng.Intn(len(g))], g[rng.Intn(len(g))]; a != b {
				edges = append(edges, simEdge{a, b, pick(append(below, atOrAbove...))})
			}
		}
	}
	for k := 0; k < len(groups); k++ {
		x, y := groups[rng.Intn(len(groups))], groups[rng.Intn(len(groups))]
		a, b := x[rng.Intn(len(x))], y[rng.Intn(len(y))]
		if a == b {
			continue
		}
		s := tau
		switch {
		case k%3 != 0 && len(below) > 0:
			s = below[k%2] // the float just under tau, or a 64th under
		case k%3 != 0:
			continue
		case k%2 == 0:
			s = pick(atOrAbove)
		}
		edges = append(edges, simEdge{a, b, s})
	}
	return edges
}

// checkComponents holds components to its definition: connectivity over the
// stored pairs at or above floor, by breadth-first search; groups numbered by
// their lowest schema; local ids the ranks inside the group.
func checkComponents(t *testing.T, label string, ps *PairSims, floor float64) *partition {
	t.Helper()
	p := components(ps, floor)
	want := make([]int32, ps.n)
	for i := range want {
		want[i] = -1
	}
	groups := int32(0)
	for i := range want {
		if want[i] >= 0 {
			continue
		}
		want[i] = groups
		for queue := []int{i}; len(queue) > 0; queue = queue[1:] {
			js, sims := ps.Row(queue[0])
			for k, j := range js {
				if sims[k] >= floor && want[j] < 0 {
					want[j] = groups
					queue = append(queue, int(j))
				}
			}
		}
		groups++
	}
	if !slices.Equal(p.comp, want) || len(p.members) != int(groups) {
		t.Fatalf("%s: components at floor %v differ from breadth-first search (%d groups, want %d)", label, floor, len(p.members), groups)
	}
	for c, ids := range p.members {
		for l, g := range ids {
			if p.comp[g] != int32(c) || p.local[g] != int32(l) || (l > 0 && ids[l-1] >= g) {
				t.Fatalf("%s: group %d member %d: schema %d has comp %d local %d", label, c, l, g, p.comp[g], p.local[g])
			}
		}
	}
	return p
}

// TestPropertyComponentsAreTheWholeRun: splitting the run by component
// changes nothing. The reference is the same engine handed the partition that
// splits nothing — one group, local ids equal to schema indices, which is the
// single global run — and Assign, Members and Merges must come out equal to
// the bit: on planted graphs with bridges just below, at and just above tau,
// and on real similarities (binary, and the term-frequency rows) over a
// random candidate subset, with tau also set to a stored similarity and to the floats on
// either side of it; for every linkage and several worker counts.
func TestPropertyComponentsAreTheWholeRun(t *testing.T) {
	ctx := context.Background()
	split := 0
	check := func(label string, sp *feature.Space, ps *PairSims, tau float64) {
		for _, m := range Methods() {
			whole := NewLinkage(m)
			whole.init(sp)
			want, err := identityPartition(ps.n).agglomerate(ctx, whole, tau, ps, 1)
			if err != nil {
				t.Fatal(err)
			}
			if p := checkComponents(t, label, ps, NewLinkage(m).edgeFloor(tau)); len(p.members) > 1 {
				split++
			}
			for _, workers := range []int{1, 2, 7} {
				got, err := AgglomerativeSparse(ctx, sp, NewLinkage(m), tau, ps, SparseOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				l := fmt.Sprintf("%s/%v/tau=%v/workers=%d", label, m, tau, workers)
				resultsEqual(t, l, want, got)
				if !reflect.DeepEqual(want.Members, got.Members) {
					t.Fatalf("%s: members differ", l)
				}
			}
		}
	}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 90 + rng.Intn(60)
		// The planted similarities are unrelated to the space's vectors, which
		// only Total Jaccard reads: to the engine that is what term-frequency
		// features are, stored similarities that say nothing about Total's.
		sp := feature.BuildLite(dataset.Large(dataset.LargeConfig{N: n, Domains: 4, Seed: seed}), feature.DefaultConfig())
		for _, tau := range []float64{0, 0.25, 1} {
			check(fmt.Sprintf("planted/seed=%d", seed), sp, pairSimsOf(n, plantedGraph(rng, n, tau)), tau)
		}
	}

	set := dataset.Large(dataset.LargeConfig{N: 140, Domains: 7, Seed: 5})
	set = append(set, set[:20]...)
	sp := feature.BuildLite(set, feature.DefaultConfig())
	tf, _ := tfRows(set, sp)
	for _, mode := range []string{"binary", "term-frequency"} {
		rng := rand.New(rand.NewSource(6))
		pairs := slices.DeleteFunc(allPairs(len(set)), func(candgen.Pair) bool { return rng.Intn(4) != 0 })
		ps, err := PairwiseSims(ctx, sp, pairs, 1)
		if mode != "binary" {
			keep := make(map[candgen.Pair]bool, len(pairs))
			for _, p := range pairs {
				keep[p] = true
			}
			ps, err = PairSimsFromRows(ctx, len(set), 0, func(i int, buf *feature.RowBuf) ([]int32, []float64) {
				js, sims := tf(i, buf)
				k := 0
				for x, j := range js {
					if keep[candgen.Pair{A: int32(i), B: j}] {
						js[k], sims[k] = j, sims[x]
						k++
					}
				}
				return js[:k], sims[:k]
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		stored := slices.Clone(ps.sim)
		slices.Sort(stored)
		v := stored[len(stored)*3/4]
		for _, tau := range []float64{0, 0.25, 1, v, math.Nextafter(v, 0), math.Nextafter(v, 1)} {
			check(fmt.Sprintf("large-160/%s", mode), sp, ps, tau)
		}
	}
	if split < 40 {
		t.Fatalf("only %d of the runs had more than one component", split)
	}
}

// TestInterleaveIsAMergeOfHeads: a component's own trace need not be sorted
// by the key the traces are merged on. Under Max Jaccard, (1,5) and (2,5) tie
// at 0.5 and (1,5), the lower pair, goes first; that merge creates (1,2) at
// 0.5 — a lower pair than the one just merged, at the same similarity. The
// global run, which sees (3,4) at 0.5 all along, records (1,5), (1,2), (3,4);
// sorting the merges would put (1,2) first.
func TestInterleaveIsAMergeOfHeads(t *testing.T) {
	want := []Merge{{A: 1, B: 5, Sim: 0.5}, {A: 1, B: 2, Sim: 0.5}, {A: 3, B: 4, Sim: 0.5}}
	got := interleave([][]Merge{nil, {want[0], want[1]}, nil, {want[2]}})
	if !slices.Equal(got, want) {
		t.Errorf("interleave = %+v, want %+v", got, want)
	}

	ps := pairSimsOf(6, []simEdge{{1, 5, 0.5}, {2, 5, 0.5}, {3, 4, 0.5}})
	sp := feature.BuildLite(dataset.Large(dataset.LargeConfig{N: 6, Domains: 2, Seed: 1}), feature.DefaultConfig())
	for _, workers := range []int{1, 2} {
		res, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(MaxJaccard), 0.5, ps, SparseOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Components != 3 || res.LargestComponent != 3 {
			t.Fatalf("%d components, largest %d; want {0} {1,2,5} {3,4}", res.Components, res.LargestComponent)
		}
		if !slices.Equal(res.Merges, want) {
			t.Errorf("workers=%d: merges %+v, want %+v", workers, res.Merges, want)
		}
	}
}

// TestAvgFloorAllowsForRounding: the average linkage's update can round a
// c_sim above every similarity under it. Schema 3 is at 0.1 from each of 0, 1
// and 2, which merge first; (2·0.1 + 1·0.1)/3 is then the float above 0.1,
// and with tau set to that float the global run merges 3 in although no
// stored pair of it reaches tau. The components must not cut it off.
func TestAvgFloorAllowsForRounding(t *testing.T) {
	tau := math.Nextafter(0.1, 1)
	ps := pairSimsOf(4, []simEdge{{0, 1, 0.9}, {0, 2, 0.9}, {1, 2, 0.9}, {0, 3, 0.1}, {1, 3, 0.1}, {2, 3, 0.1}})
	sp := feature.BuildLite(dataset.Large(dataset.LargeConfig{N: 4, Domains: 1, Seed: 1}), feature.DefaultConfig())
	want, err := identityPartition(4).agglomerate(context.Background(), NewLinkage(AvgJaccard), tau, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Merges) != 3 || want.Merges[2].Sim != tau {
		t.Fatalf("the global run's merges are %+v; the case no longer rounds up", want.Merges)
	}
	got, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(AvgJaccard), tau, ps, SparseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "rounded-up average", want, got)
}

// TestTotalFloorIsAnyStoredPair: Total Jaccard is computed from the feature
// vectors, so a stored similarity below tau rules nothing out — under the
// term-frequency rows two schemas over the same terms at different counts are
// stored well below their binary (and Total) Jaccard of 1. Three schemas with
// identical vectors, the third with its terms at other counts, stored at 1/3
// from each of the first two: once those have merged at 1, the third joins
// them at Total Jaccard 1, and it must have been in their component for that.
func TestTotalFloorIsAnyStoredPair(t *testing.T) {
	attrs := []string{"alpha", "bravo", "charlie"}
	set := schema.Set{{Name: "a", Attributes: attrs}, {Name: "b", Attributes: attrs},
		{Name: "c", Attributes: []string{"alpha alpha alpha alpha", "bravo bravo bravo bravo", "charlie"}}}
	sp := feature.BuildLite(set, feature.DefaultConfig())
	tf, _ := tfRows(set, sp)
	ps, err := PairSimsFromRows(context.Background(), len(set), 0, tf)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Sim(0, 1) != 1 || ps.Sim(0, 2) != 1.0/3 || ps.Sim(1, 2) != 1.0/3 {
		t.Fatalf("stored similarities %v %v %v, want 1, 1/3, 1/3", ps.Sim(0, 1), ps.Sim(0, 2), ps.Sim(1, 2))
	}
	res, err := AgglomerativeSparse(context.Background(), sp, NewLinkage(TotalJaccard), 0.5, ps, SparseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Merge{{A: 0, B: 1, Sim: 1}, {A: 0, B: 2, Sim: 1}}; !slices.Equal(res.Merges, want) {
		t.Errorf("merges %+v, want %+v", res.Merges, want)
	}
}

// countingContext reports cancellation from its k-th Err call on.
type countingContext struct {
	context.Context
	left atomic.Int64
}

func (c *countingContext) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestComponentWorkersStopOnCancel cancels the run at every one of its polls
// in turn — between components, while a component's rows are loaded, and
// inside the merge loop of one with more than 1024 rounds — and expects the
// context's error back with no goroutine left behind.
func TestComponentWorkersStopOnCancel(t *testing.T) {
	// A chain of 1,500 schemas (one component, 1,499 merges) and five small
	// components beside it.
	const n = 1600
	var edges []simEdge
	for i := int32(1); i < 1500; i++ {
		edges = append(edges, simEdge{i - 1, i, 0.5 + float64(i%7)/16})
	}
	for i := int32(1500); i < n; i++ {
		if i%20 != 0 {
			edges = append(edges, simEdge{i - 1, i, 0.75})
		}
	}
	ps := pairSimsOf(n, edges)
	run := func(polls int64, workers int) (*Result, error, int64) {
		ctx := &countingContext{Context: context.Background()}
		ctx.left.Store(polls)
		before := runtime.NumGoroutine()
		res, err := components(ps, 0.25).agglomerate(ctx, NewLinkage(AvgJaccard), 0.25, ps, workers)
		// The run has waited for its workers' last statements; give their
		// stacks a moment to be torn down before counting.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("polls=%d workers=%d: %d goroutines before the run, %d after", polls, workers, before, after)
		}
		return res, err, polls - ctx.left.Load()
	}
	want, err, polled := run(math.MaxInt64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.Components != 6 || polled < 13 {
		t.Fatalf("%d components polled %d times; want 6 and at least 13 (one per claim, per load, per 1024 rounds)", want.Components, polled)
	}
	for _, workers := range []int{1, 3} {
		for k := int64(0); k < polled; k++ {
			if _, err, _ := run(k, workers); !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: canceled at poll %d of %d, got %v", workers, k, polled, err)
			}
		}
		got, err, _ := run(polled, workers)
		if err != nil {
			t.Fatalf("workers=%d: %d polls allowed, got %v", workers, polled, err)
		}
		resultsEqual(t, "uncanceled", want, got)
	}
}
