package classify

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
)

// TestClassifierTableDigests holds every table New fills — def, the columns,
// base, sumLog0 and logPrior — to sha256 digests recorded before New read
// the members' set-bit lists in place of their dense vectors, in both setup
// modes, on two models: the one the blocked build makes of
// Large{N: 6000, Domains: 120, Seed: 1}, and TestNewIsWorkerCountInvariant's,
// whose uncertain members reach exactDomainStats' enumeration and whose last
// domain has no member. TestClassifyDigest only sees Exact top-3s through
// HTTP; these see every float of both modes.
func TestClassifierTableDigests(t *testing.T) {
	for _, c := range []struct {
		name  string
		model func(*testing.T) *core.Model
		want  map[Mode]string
	}{
		{"large-6000", blockedLargeModel, map[Mode]string{
			Exact:       "85f823d15acb848a39fee0131d14cecec11bd554d224ee29195d4e0074c3badc",
			Approximate: "b49e7d1d887671a4b02b674812f439f64bb31f5bc2ec0fb1f5676c83c761e9d3",
		}},
		{"worker-fixture", uncertainFixtureModel, map[Mode]string{
			Exact:       "5cdd9a717504ee6146d22206fe1e1dfdfec3e76c0c88f61783b67c1fccb12e7b",
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
