package eval

import (
	"math"
	"reflect"
	"testing"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// fixedModel builds a model with a forced clustering and memberships so the
// metric arithmetic can be verified by hand.
func fixedModel(t *testing.T, set schema.Set, assign []int, memberships [][]core.Membership) *core.Model {
	t.Helper()
	sp := feature.BuildLite(set, feature.DefaultConfig())
	cl := cluster.FromAssignment(assign)
	m, err := core.RestoreModel(set, sp, cl, memberships, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func certain(domain int) []core.Membership {
	return []core.Membership{{Schema: domain, Prob: 1}}
}

func TestPerfectClusteringScoresPerfectly(t *testing.T) {
	set := schema.Set{
		{Name: "a1", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "a2", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "b1", Attributes: []string{"y"}, Labels: []string{"B"}},
		{Name: "b2", Attributes: []string{"y"}, Labels: []string{"B"}},
	}
	m := fixedModel(t, set, []int{0, 0, 1, 1},
		[][]core.Membership{certain(0), certain(0), certain(1), certain(1)})
	mt := Evaluate(m, set)
	if mt.Precision != 1 || mt.Recall != 1 {
		t.Fatalf("P=%v R=%v, want 1,1", mt.Precision, mt.Recall)
	}
	if mt.Fragmentation != 1 {
		t.Fatalf("fragmentation = %v, want 1", mt.Fragmentation)
	}
	if mt.FracNonHomogeneous != 0 || mt.FracUnclustered != 0 {
		t.Fatalf("nonhomog=%v unclustered=%v", mt.FracNonHomogeneous, mt.FracUnclustered)
	}
}

func TestMixedDomainPrecision(t *testing.T) {
	// One domain holding 2 A-schemas and 1 B-schema: dominant label A,
	// precision 2/3; B's schema is a false negative → recall(B)=0,
	// recall(A)=1 → avg recall 0.5.
	set := schema.Set{
		{Name: "a1", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "a2", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "b1", Attributes: []string{"y"}, Labels: []string{"B"}},
	}
	m := fixedModel(t, set, []int{0, 0, 0},
		[][]core.Membership{certain(0), certain(0), certain(0)})
	mt := Evaluate(m, set)
	if math.Abs(mt.Precision-2.0/3) > 1e-12 {
		t.Fatalf("precision = %v, want 2/3", mt.Precision)
	}
	if math.Abs(mt.Recall-0.5) > 1e-12 {
		t.Fatalf("recall = %v, want 0.5", mt.Recall)
	}
}

func TestNonHomogeneousDomain(t *testing.T) {
	// Three labels, one schema each, all in one domain: the top label has
	// 1/3 < 1/2 of the mass → non-homogeneous; everything false negative.
	set := schema.Set{
		{Name: "a", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "b", Attributes: []string{"y"}, Labels: []string{"B"}},
		{Name: "c", Attributes: []string{"z"}, Labels: []string{"C"}},
	}
	m := fixedModel(t, set, []int{0, 0, 0},
		[][]core.Membership{certain(0), certain(0), certain(0)})
	dl := LabelDomains(m, set)
	if !dl.NonHomogeneous[0] || dl.Labels[0] != nil {
		t.Fatalf("domain not flagged non-homogeneous: %+v", dl)
	}
	mt := Evaluate(m, set)
	if mt.FracNonHomogeneous != 1 {
		t.Fatalf("FracNonHomogeneous = %v, want 1", mt.FracNonHomogeneous)
	}
	if mt.Recall != 0 {
		t.Fatalf("recall = %v, want 0", mt.Recall)
	}
	if mt.Precision != 0 {
		t.Fatalf("precision = %v, want 0 for a non-homogeneous-only clustering", mt.Precision)
	}
}

func TestExactMajorityIsHomogeneous(t *testing.T) {
	// Dominant label holding exactly half the mass is NOT non-homogeneous
	// (the thesis requires strictly less than half to flag it).
	set := schema.Set{
		{Name: "a1", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "b1", Attributes: []string{"y"}, Labels: []string{"B"}},
	}
	m := fixedModel(t, set, []int{0, 0},
		[][]core.Membership{certain(0), certain(0)})
	dl := LabelDomains(m, set)
	if dl.NonHomogeneous[0] {
		t.Fatal("exact half flagged non-homogeneous")
	}
	// Both labels tie at the max → both dominate.
	if !reflect.DeepEqual(dl.Labels[0], []string{"A", "B"}) {
		t.Fatalf("dominant labels = %v", dl.Labels[0])
	}
}

func TestUnclusteredExcluded(t *testing.T) {
	// Two clustered A-schemas plus one singleton B-schema: the singleton
	// counts in FracUnclustered, is excluded from precision/recall, and B
	// (whose only schema is unclustered) drops out of the recall average.
	set := schema.Set{
		{Name: "a1", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "a2", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "b1", Attributes: []string{"y"}, Labels: []string{"B"}},
	}
	m := fixedModel(t, set, []int{0, 0, 1},
		[][]core.Membership{certain(0), certain(0), certain(1)})
	mt := Evaluate(m, set)
	if math.Abs(mt.FracUnclustered-1.0/3) > 1e-12 {
		t.Fatalf("FracUnclustered = %v, want 1/3", mt.FracUnclustered)
	}
	if mt.Precision != 1 || mt.Recall != 1 {
		t.Fatalf("P=%v R=%v, want 1,1 (singleton excluded)", mt.Precision, mt.Recall)
	}
	if mt.NumDomains != 2 || mt.NumRealDomains != 1 {
		t.Fatalf("domains=%d real=%d", mt.NumDomains, mt.NumRealDomains)
	}
}

func TestFragmentation(t *testing.T) {
	// Label A dominates two separate (non-singleton) domains → its
	// fragmentation is 2; label B dominates one → average (2+1)/2 = 1.5.
	set := schema.Set{
		{Name: "a1", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "a2", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "a3", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "a4", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "b1", Attributes: []string{"y"}, Labels: []string{"B"}},
		{Name: "b2", Attributes: []string{"y"}, Labels: []string{"B"}},
	}
	m := fixedModel(t, set, []int{0, 0, 1, 1, 2, 2}, [][]core.Membership{
		certain(0), certain(0), certain(1), certain(1), certain(2), certain(2),
	})
	mt := Evaluate(m, set)
	if math.Abs(mt.Fragmentation-1.5) > 1e-12 {
		t.Fatalf("fragmentation = %v, want 1.5", mt.Fragmentation)
	}
	// Fragmentation halves A's recall: each of its domains holds half its
	// mass but both are dominated by A → still TP. Recall stays 1.
	if mt.Recall != 1 {
		t.Fatalf("recall = %v, want 1", mt.Recall)
	}
}

func TestProbabilityWeightedCounting(t *testing.T) {
	// A boundary schema split 0.6/0.4 between an A-domain and a B-domain
	// contributes fractionally to both domains' precision.
	set := schema.Set{
		{Name: "a1", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "a2", Attributes: []string{"x"}, Labels: []string{"A"}},
		{Name: "b1", Attributes: []string{"y"}, Labels: []string{"B"}},
		{Name: "b2", Attributes: []string{"y"}, Labels: []string{"B"}},
		{Name: "mid", Attributes: []string{"x", "y"}, Labels: []string{"A"}},
	}
	m := fixedModel(t, set, []int{0, 0, 1, 1, 0}, [][]core.Membership{
		certain(0), certain(0), certain(1), certain(1),
		{{Schema: 0, Prob: 0.6}, {Schema: 1, Prob: 0.4}},
	})
	mt := Evaluate(m, set)
	// Domain 0 (A): members a1(1), a2(1), mid(0.6, label A) → precision 1.
	// Domain 1 (B): b1(1), b2(1), mid(0.4, label A → FP) → 2/2.4.
	wantP := (1.0 + 2.0/2.4) / 2
	if math.Abs(mt.Precision-wantP) > 1e-12 {
		t.Fatalf("precision = %v, want %v", mt.Precision, wantP)
	}
	// Recall(A): TP = 1+1+0.6 (in A-dominated domain 0), FN = 0.4 (in
	// domain 1) → 2.6/3. Recall(B) = 1.
	wantR := (2.6/3.0 + 1) / 2
	if math.Abs(mt.Recall-wantR) > 1e-12 {
		t.Fatalf("recall = %v, want %v", mt.Recall, wantR)
	}
}

func TestSingletonDomainsStillGetLabels(t *testing.T) {
	set := schema.Set{
		{Name: "a1", Attributes: []string{"x"}, Labels: []string{"A"}},
	}
	m := fixedModel(t, set, []int{0}, [][]core.Membership{certain(0)})
	dl := LabelDomains(m, set)
	if !dl.Singleton[0] {
		t.Fatal("singleton not flagged")
	}
	if !reflect.DeepEqual(dl.Labels[0], []string{"A"}) {
		t.Fatalf("singleton labels = %v", dl.Labels[0])
	}
}

func TestEmptyModel(t *testing.T) {
	m := fixedModel(t, schema.Set{}, nil, nil)
	mt := Evaluate(m, schema.Set{})
	if mt.Precision != 0 || mt.Recall != 0 || mt.FracUnclustered != 0 {
		t.Fatalf("empty metrics: %+v", mt)
	}
}
