package payg

import (
	"bytes"
	"math"
	"testing"

	"schemaflow/internal/classify"
)

// shardQueries exercises travel, bibliography, singleton, and no-match
// vocabulary against the demoSchemas corpus.
var shardQueries = []string{
	"departure toronto",
	"airline tickets cheap",
	"title author year",
	"conference publication",
	"telescope aperture",
	"destination airport class",
	"zebra xylophone", // matches nothing
	"departure title", // straddles two domains
}

// splitDomains partitions [0,numDomains) round-robin into n slices. The
// bit-identity property must hold for ANY partition, so tests don't need
// the production rendezvous ring here.
func splitDomains(numDomains, n int) [][]int {
	parts := make([][]int, n)
	for i := range parts {
		parts[i] = []int{} // a shard may own zero domains (n > numDomains)
	}
	for d := 0; d < numDomains; d++ {
		parts[d%n] = append(parts[d%n], d)
	}
	return parts
}

// localScores filters a shard's ranking down to the domains it owns —
// what the shard endpoint puts on the wire.
func localScores(sh *System, scores []Score) []classify.Score {
	var out []classify.Score
	for _, sc := range scores {
		if sh.IsLocalDomain(sc.Domain) {
			out = append(out, classify.Score{Domain: sc.Domain, LogPosterior: sc.LogPosterior})
		}
	}
	return out
}

func sameScores(t *testing.T, got, want []Score) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ranking length %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		// Bit-identity: ==, not a tolerance. NaN never appears; -Inf
		// compares equal to -Inf under ==.
		if g.Domain != w.Domain || g.LogPosterior != w.LogPosterior || g.Posterior != w.Posterior {
			t.Fatalf("rank %d: got {%d %v %v}, want {%d %v %v}",
				i, g.Domain, g.LogPosterior, g.Posterior, w.Domain, w.LogPosterior, w.Posterior)
		}
	}
}

// The tentpole property: scattering a query over any N-way domain split
// and merging the partials is bit-identical to classifying on the
// unsharded system — same domains, same order, same float64s.
func TestShardClassifyBitIdentical(t *testing.T) {
	full := build(t, Options{})
	for _, n := range []int{1, 2, 5} {
		parts := splitDomains(full.NumDomains(), n)
		shards := make([]*System, n)
		for i, local := range parts {
			sh, err := full.Shard(local)
			if err != nil {
				t.Fatalf("n=%d shard %d: %v", n, i, err)
			}
			shards[i] = sh
		}
		for _, q := range shardQueries {
			want := full.Classify(q)
			partials := make([][]classify.Score, n)
			for i, sh := range shards {
				partials[i] = localScores(sh, sh.Classify(q))
			}
			got := classify.MergeScores(partials)
			sameScores(t, got, want)
		}
	}
}

// With one shard missing the merge must still order the covered domains
// exactly as the full ranking orders them (degraded, not wrong).
func TestShardClassifyOneShardDown(t *testing.T) {
	full := build(t, Options{})
	const n = 2
	parts := splitDomains(full.NumDomains(), n)
	for down := 0; down < n; down++ {
		var partials [][]classify.Score
		covered := make(map[int]bool)
		for i, local := range parts {
			if i == down {
				continue
			}
			sh, err := full.Shard(local)
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, localScores(sh, sh.Classify("departure airline title")))
			for _, d := range local {
				covered[d] = true
			}
		}
		got := classify.MergeScores(partials)
		var want []Score
		for _, sc := range full.Classify("departure airline title") {
			if covered[sc.Domain] {
				want = append(want, sc)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("down=%d: %d covered scores, want %d", down, len(got), len(want))
		}
		for i := range want {
			if got[i].Domain != want[i].Domain || got[i].LogPosterior != want[i].LogPosterior {
				t.Fatalf("down=%d rank %d: got domain %d lp %v, want %d lp %v",
					down, i, got[i].Domain, got[i].LogPosterior, want[i].Domain, want[i].LogPosterior)
			}
		}
	}
}

// The broadcast assign-probe: the best (shard, similarity) over
// restricted probes must reproduce the single-node assignment, and the
// arrival is globally fresh exactly when every shard says fresh.
func TestIngestLocalMatchesFullAssignment(t *testing.T) {
	full := build(t, Options{})
	parts := splitDomains(full.NumDomains(), 2)
	shards := make([]*System, len(parts))
	for i, local := range parts {
		sh, err := full.Shard(local)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
	}
	arrivals := []Schema{
		{Name: "charters", Attributes: []string{"departure airport", "destination airport", "price"}},
		{Name: "theses", Attributes: []string{"title", "authors", "university", "year"}},
		{Name: "minerals", Attributes: []string{"hardness", "crystal system"}},
	}
	for _, sch := range arrivals {
		want, err := full.Ingest(sch)
		if err != nil {
			t.Fatal(err)
		}
		bestSim, bestDomain := math.Inf(-1), -1
		allFresh := true
		for _, sh := range shards {
			a, err := sh.IngestLocal(sch)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Fresh {
				allFresh = false
			}
			if a.BestDomain >= 0 && a.BestSim > bestSim {
				bestSim, bestDomain = a.BestSim, a.BestDomain
			}
		}
		if allFresh != want.Fresh {
			t.Fatalf("%s: shards fresh=%v, full fresh=%v", sch.Name, allFresh, want.Fresh)
		}
		if want.BestDomain >= 0 {
			if bestDomain != want.BestDomain || bestSim != want.BestSim {
				t.Fatalf("%s: shard argmax (%d, %v), full (%d, %v)",
					sch.Name, bestDomain, bestSim, want.BestDomain, want.BestSim)
			}
		}
	}
}

// A sharded system must survive the checkpoint round-trip with its
// pruning intact — including the nil-vs-empty edge of a shard that owns
// zero domains.
func TestShardPersistRoundTrip(t *testing.T) {
	full := build(t, Options{})
	parts := splitDomains(full.NumDomains(), 2)
	pending := []Schema{{Name: "late", Attributes: []string{"departure", "price"}}}
	for i, local := range parts {
		sh, err := full.Shard(local)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sh.SaveWithPending(&buf, pending); err != nil {
			t.Fatal(err)
		}
		got, gotPending, err := LoadWithPending(&buf)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if ld := got.LocalDomains(); ld == nil {
			t.Fatalf("shard %d: loaded system lost its sharded-ness", i)
		} else if len(ld) != len(local) {
			t.Fatalf("shard %d: loaded %v local domains, want %v", i, ld, local)
		}
		if len(gotPending) != 1 || gotPending[0].Name != "late" {
			t.Fatalf("shard %d: pending round-trip %+v", i, gotPending)
		}
		for _, q := range shardQueries {
			sameScores(t, got.Classify(q), sh.Classify(q))
		}
		// A loaded shard holds table rows for its local domains only.
		if rows := tableRows(t, got); rows != len(local) {
			t.Fatalf("shard %d: loaded classifier holds %d table rows, want its %d local domains'", i, rows, len(local))
		}
	}
	if rows := tableRows(t, full); rows != full.NumDomains() {
		t.Fatalf("full classifier holds %d table rows for %d domains", rows, full.NumDomains())
	}

	empty, err := full.Shard(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := empty.SaveWithPending(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadWithPending(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ld := got.LocalDomains(); ld == nil || len(ld) != 0 {
		t.Fatalf("zero-domain shard round-trip: LocalDomains = %v, want empty non-nil", ld)
	}
	if got.NumLocalDomains() != 0 {
		t.Fatalf("zero-domain shard owns %d domains after reload", got.NumLocalDomains())
	}
}

// tableRows counts the domains whose classifier table row the system holds,
// as Explain shows them: a domain without a row explains no matched term.
func tableRows(t *testing.T, sys *System) int {
	t.Helper()
	rows := 0
	for r := 0; r < sys.NumDomains(); r++ {
		ex, err := sys.Explain("departure", r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Terms) > 0 {
			rows++
		}
	}
	return rows
}

func TestShardRefusesBadInput(t *testing.T) {
	full := build(t, Options{})
	if _, err := full.Shard([]int{0, full.NumDomains()}); err == nil {
		t.Fatal("out-of-range domain accepted")
	}
	if _, err := full.Shard([]int{0, 0}); err == nil {
		t.Fatal("duplicate domain accepted")
	}
	sh, err := full.Shard([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Shard([]int{0}); err == nil {
		t.Fatal("re-sharding a shard accepted")
	}
}

// Non-local domains must be invisible to mediation: Domains() lists only
// local ones and MediatedAttributes refuses the rest.
func TestShardMediationLocality(t *testing.T) {
	full := build(t, Options{})
	local := []int{0}
	sh, err := full.Shard(local)
	if err != nil {
		t.Fatal(err)
	}
	infos := sh.Domains()
	if len(infos) != 1 || infos[0].ID != 0 {
		t.Fatalf("shard Domains() = %+v, want just domain 0", infos)
	}
	if _, err := sh.MediatedAttributes(0); err != nil {
		t.Fatalf("local mediated attributes: %v", err)
	}
	if _, err := sh.MediatedAttributes(1); err == nil {
		t.Fatal("non-local mediated attributes did not error")
	}
}
