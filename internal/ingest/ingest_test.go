package ingest

import (
	"math"
	"math/rand"
	"testing"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

var flightSchemas = schema.Set{
	{Name: "air1", Attributes: []string{"departure airport", "arrival airport", "airline", "flight number"}},
	{Name: "air2", Attributes: []string{"departure city", "arrival city", "airline", "price"}},
	{Name: "air3", Attributes: []string{"departure airport", "arrival city", "flight number", "price"}},
}

var bookSchemas = schema.Set{
	{Name: "book1", Attributes: []string{"book title", "author", "isbn", "publisher"}},
	{Name: "book2", Attributes: []string{"title", "author name", "isbn", "price"}},
	{Name: "book3", Attributes: []string{"book title", "author name", "publisher", "year"}},
}

// buildModel runs the offline pipeline over the union of the two corpora.
func buildModel(t *testing.T, theta float64) *core.Model {
	t.Helper()
	set := append(append(schema.Set{}, flightSchemas...), bookSchemas...)
	cfg := feature.DefaultConfig()
	sp := feature.BuildLite(set, cfg)
	cl, err := cluster.Agglomerative(sp, cluster.NewLinkage(cluster.AvgJaccard), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.AssignDomains(set, sp, cl, core.Options{TauCSim: 0.25, Theta: theta})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAssignClearSchema(t *testing.T) {
	m := buildModel(t, 0.02)
	a, err := Assign(m, schema.Schema{
		Name:       "air-new",
		Attributes: []string{"departure airport", "arrival airport", "airline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fresh {
		t.Fatalf("clear flight schema marked fresh (best sim %v)", a.BestSim)
	}
	if len(a.Domains) != 1 {
		t.Fatalf("clear schema got %d domains, want 1: %+v", len(a.Domains), a.Domains)
	}
	if a.Domains[0].Schema != m.Clustering.Assign[0] {
		t.Errorf("assigned to domain %d, want flights' domain %d", a.Domains[0].Schema, m.Clustering.Assign[0])
	}
	if a.Domains[0].Prob < 0.25 {
		t.Errorf("probability %v below the τ_c_sim gate", a.Domains[0].Prob)
	}
	if a.BestSim < 0.25 {
		t.Errorf("best sim %v below τ_c_sim", a.BestSim)
	}
}

func TestAssignBoundarySchema(t *testing.T) {
	// A wide θ makes the relative gate permissive, so a schema straddling
	// flights and books joins both probabilistically.
	m := buildModel(t, 0.5)
	a, err := Assign(m, schema.Schema{
		Name:       "travel-books",
		Attributes: []string{"departure airport", "arrival airport", "airline", "book title", "author name", "isbn"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fresh {
		t.Fatal("boundary schema marked fresh")
	}
	if len(a.Domains) < 2 {
		t.Fatalf("boundary schema got %d domains, want ≥ 2: %+v", len(a.Domains), a.Domains)
	}
	sum := 0.0
	for _, d := range a.Domains {
		if d.Prob <= 0 || d.Prob >= 1 {
			t.Errorf("boundary membership prob %v outside (0,1)", d.Prob)
		}
		sum += d.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("membership probabilities sum to %v, want 1", sum)
	}
}

func TestAssignFreshSchema(t *testing.T) {
	m := buildModel(t, 0.02)
	a, err := Assign(m, schema.Schema{
		Name:       "minerals",
		Attributes: []string{"specimen hardness", "crystal lattice", "refractive index"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Fresh {
		t.Fatalf("unrelated schema not fresh: %+v", a.Domains)
	}
	if len(a.Domains) != 0 {
		t.Errorf("fresh assignment carries domains: %+v", a.Domains)
	}
	if a.BestSim >= 0.25 {
		t.Errorf("fresh schema best sim %v above the gate", a.BestSim)
	}
}

func TestAssignRejectsInvalidSchema(t *testing.T) {
	m := buildModel(t, 0.02)
	if _, err := Assign(m, schema.Schema{Name: "empty"}); err == nil {
		t.Fatal("no error for schema without attributes")
	}
}

func TestWindow(t *testing.T) {
	w := NewWindow(4)
	if w.Ratio() != 0 || w.Samples() != 0 {
		t.Fatal("fresh window not empty")
	}
	w.Record(true)
	w.Record(false)
	if got := w.Ratio(); got != 0.5 {
		t.Fatalf("ratio %v, want 0.5", got)
	}
	w.Record(true)
	w.Record(true)
	if got := w.Ratio(); got != 0.75 {
		t.Fatalf("ratio %v, want 0.75", got)
	}
	// Fifth sample evicts the first (poor) one: window now F,T,T,F.
	w.Record(false)
	if got := w.Ratio(); got != 0.5 {
		t.Fatalf("ratio after eviction %v, want 0.5", got)
	}
	if w.Samples() != 4 {
		t.Fatalf("samples %d, want 4", w.Samples())
	}
	w.Reset()
	if w.Ratio() != 0 || w.Samples() != 0 {
		t.Fatal("reset window not empty")
	}
}

// An arrival sharing no vocabulary with any domain has similarity exactly 0
// everywhere. Best must stay -1 — there is no meaningful "most similar"
// domain to report — rather than arbitrarily naming domain 0.
func TestAssignAllZeroSimilarity(t *testing.T) {
	m := buildModel(t, 0.02)
	a, err := Assign(m, schema.Schema{
		Name:       "alien",
		Attributes: []string{"telescope aperture", "seismograph reading"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != -1 {
		t.Errorf("Best = %d, want -1 for an all-zero-similarity arrival", a.Best)
	}
	if a.BestSim != 0 {
		t.Errorf("BestSim = %v, want 0", a.BestSim)
	}
	if !a.Fresh {
		t.Error("all-zero-similarity arrival not marked Fresh")
	}
	if len(a.Domains) != 0 {
		t.Errorf("Domains = %+v, want empty", a.Domains)
	}
}

// TestWindowAgainstReferenceModel drives Window through a long random
// sequence of records, resets, and re-creations, checking Samples and Ratio
// after every step against a trivially correct slice-backed model. This pins
// the eviction accounting across wraparound, where an off-by-one in the
// circular-buffer arithmetic would silently skew the drift signal.
func TestWindowAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{1, 2, 3, 7, 16} {
		w := NewWindow(size)
		var ref []bool // last ≤ size samples, oldest first
		for step := 0; step < 500; step++ {
			switch op := rng.Intn(10); {
			case op == 0:
				w.Reset()
				ref = ref[:0]
			default:
				poor := rng.Intn(3) == 0
				w.Record(poor)
				ref = append(ref, poor)
				if len(ref) > size {
					ref = ref[1:]
				}
			}
			if w.Samples() != len(ref) {
				t.Fatalf("size %d step %d: Samples = %d, want %d", size, step, w.Samples(), len(ref))
			}
			poor := 0
			for _, p := range ref {
				if p {
					poor++
				}
			}
			want := 0.0
			if len(ref) > 0 {
				want = float64(poor) / float64(len(ref))
			}
			if got := w.Ratio(); got != want {
				t.Fatalf("size %d step %d: Ratio = %v, want %v (window %v)", size, step, got, want, ref)
			}
		}
	}
}

func TestWindowSizeClamped(t *testing.T) {
	w := NewWindow(0)
	w.Record(true)
	w.Record(false)
	if w.Samples() != 1 || w.Ratio() != 0 {
		t.Fatalf("size-clamped window: Samples = %d, Ratio = %v; want 1, 0", w.Samples(), w.Ratio())
	}
}
