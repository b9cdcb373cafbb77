package classify

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
)

// TestClassifierTableDigests holds every table New fills — def, the columns,
// base, sumLog0 and logPrior — to sha256 digests, in both setup modes, on two
// models: the one the blocked build makes of Large{N: 6000, Domains: 120,
// Seed: 1}, and TestNewIsWorkerCountInvariant's, whose domains hold 2–4
// uncertain members each and whose last domain has no member.
// TestClassifyDigest only sees Exact top-3s through HTTP; these see every
// float of both modes.
//
// The Approximate digests were recorded before New read the members'
// set-bit lists in place of their dense vectors. The Exact ones were
// re-recorded when exact setup summed over content sizes instead of
// enumerating subsets: every row of a domain with at most one uncertain
// member kept its bits (TestNarrowRowDigest); on large-6000, 22 of the 50
// rows with k ≥ 2 moved, on the fixture 31 of its 36, each entry by at most
// 1.9e-14 relative, and the full 556-domain ranking of 2,000 seeded queries
// on large-6000 stayed the same.
func TestClassifierTableDigests(t *testing.T) {
	for _, c := range []struct {
		name  string
		model func(*testing.T) *core.Model
		want  map[Mode]string
	}{
		{"large-6000", blockedLargeModel, map[Mode]string{
			Exact:       "bc66fe73c17097c3b3111fb25c8b5247f5d53322e53799d353c5565aa64e3fd2",
			Approximate: "b49e7d1d887671a4b02b674812f439f64bb31f5bc2ec0fb1f5676c83c761e9d3",
		}},
		{"worker-fixture", uncertainFixtureModel, map[Mode]string{
			Exact:       "da6fe559ff05930efbb224b76b8da1e6dd545b23981f6f3cb461e9dddc731746",
			Approximate: "df321b13d5d9558a8317099ee310412e7f44763ac3776acf7be617e3ab321d91",
		}},
	} {
		m := c.model(t)
		for _, mode := range []Mode{Exact, Approximate} {
			cl, err := New(m, Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if got := tableDigest(cl); got != c.want[mode] {
				t.Errorf("%s %v: tables digest %s; want %s", c.name, mode, got, c.want[mode])
			}
		}
	}
}

// tableDigest hashes the classifier's tables, each prefixed by its length,
// floats by their bits.
func tableDigest(c *Classifier) string {
	h := sha256.New()
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	floats := func(fs []float64) {
		word(uint64(len(fs)))
		for _, f := range fs {
			word(math.Float64bits(f))
		}
	}
	floats(c.def)
	word(uint64(len(c.colStart)))
	for _, s := range c.colStart {
		word(uint64(s))
	}
	word(uint64(len(c.colRow)))
	for _, r := range c.colRow {
		word(uint64(r))
	}
	floats(c.colDelta)
	floats(c.base)
	floats(c.sumLog0)
	floats(c.logPrior)
	return hex.EncodeToString(h.Sum(nil))
}

// blockedLargeModel is the model payg.Build makes of Large{6000, 120, 1}
// with default options: the pair graph at feature.PairFloor, average-linkage
// Algorithm 2 at τ_c_sim = 0.25 and Algorithm 3 at θ = 0.02.
func blockedLargeModel(t *testing.T) *core.Model {
	t.Helper()
	set := dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
	sp := feature.BuildLite(set, feature.DefaultConfig())
	ps, err := cluster.CompletePairSims(context.Background(), sp, feature.PairFloor)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.AgglomerativeSparse(context.Background(), sp, cluster.NewLinkage(cluster.AvgJaccard), 0.25, ps, cluster.SparseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.AssignDomainsSparse(set, sp, cl, ps, core.Options{TauCSim: 0.25, Theta: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// uncertainFixtureModel is TestNewIsWorkerCountInvariant's model: 37
// domains of ten schemas, every seventh schema split 0.6/0.4 between its own
// domain and the next, and the last domain's schemas all answering to domain
// 0.
func uncertainFixtureModel(t *testing.T) *core.Model {
	t.Helper()
	const per, domains = 10, 37
	set := dataset.Large(dataset.LargeConfig{N: per * domains, Domains: 8, Seed: 3})
	sp := feature.BuildLite(set, feature.DefaultConfig())
	assign := make([]int, len(set))
	memberships := make([][]core.Membership, len(set))
	for i := range set {
		own := i / per
		assign[i] = own
		switch {
		case own == domains-1:
			memberships[i] = []core.Membership{{Schema: 0, Prob: 1}}
		case i%7 == 0:
			memberships[i] = []core.Membership{{Schema: own, Prob: 0.6}, {Schema: (own + 1) % (domains - 1), Prob: 0.4}}
		default:
			memberships[i] = []core.Membership{{Schema: own, Prob: 1}}
		}
	}
	m, err := core.RestoreModel(set, sp, cluster.FromAssignment(assign), memberships, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNarrowRowDigest holds the table rows of blockedLargeModel's domains
// with at most one uncertain member — prior, sumLog0, base, default and
// every listed entry, in Exact mode — to a digest recorded while Exact
// setup still enumerated every subset of a domain's uncertain members. The
// size-distribution setup must keep these rows' bits: with k ≤ 1 it adds
// the same floats in the same order the enumeration added.
func TestNarrowRowDigest(t *testing.T) {
	const want = "b9e1071052859a0eacd6de831c06192e89c355c6fc3a3583eec7e4ebf9289eb1"
	m := blockedLargeModel(t)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := narrowRowDigest(m, c); got != want {
		t.Errorf("rows with k ≤ 1: digest %s; want %s", got, want)
	}
}

// narrowRowDigest hashes, for every domain with at most one uncertain
// member in ascending domain order, its row's scalars and its listed
// entries, terms ascending, floats by their bits.
func narrowRowDigest(m *core.Model, c *Classifier) string {
	h := sha256.New()
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	rows := 0
	for r := range m.Domains {
		if len(m.Domains[r].Uncertain()) > 1 {
			continue
		}
		rows++
		i := int(c.row[r])
		word(uint64(r))
		for _, f := range []float64{c.logPrior[i], c.sumLog0[i], c.base[i], c.def[i]} {
			word(math.Float64bits(f))
		}
		for j := 0; j+1 < len(c.colStart); j++ {
			lo, hi := c.colStart[j], c.colStart[j+1]
			if e, ok := slices.BinarySearch(c.colRow[lo:hi], int32(i)); ok {
				word(uint64(j))
				word(math.Float64bits(c.colDelta[lo+e]))
			}
		}
	}
	word(uint64(rows))
	return hex.EncodeToString(h.Sum(nil))
}
