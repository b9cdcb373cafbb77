package classify

import (
	"fmt"
	"sync"
	"testing"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

var batchQueries = [][]string{
	{"departure", "destination", "airline"},
	{"title", "authors", "venue"},
	{"paper", "year"},
	{"departure", "destination", "airline"}, // repeat: same ranking expected
	{"price", "class"},
	{"completely", "unrelated", "words"},
	{},
}

// TestClassifyBatchMatchesSequential is the batch path's contract: for any
// mix of queries (including repeats and empty ones) the batch result is
// bit-identical, per query and per field, to calling Classify one at a
// time.
func TestClassifyBatchMatchesSequential(t *testing.T) {
	m := buildModel(t, travelBibSet(), 0.2)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := c.ClassifyBatch(batchQueries, m.NumDomains())
	if len(got) != len(batchQueries) {
		t.Fatalf("batch returned %d results for %d queries", len(got), len(batchQueries))
	}
	for i, q := range batchQueries {
		want := c.Classify(q)
		if len(got[i]) != len(want) {
			t.Fatalf("query %d: batch has %d scores, sequential %d", i, len(got[i]), len(want))
		}
		for r := range want {
			if got[i][r] != want[r] {
				t.Fatalf("query %d rank %d: batch %+v, sequential %+v", i, r, got[i][r], want[r])
			}
		}
	}
}

// TestClassifyBatchIsPerQueryTop: the batch fans out on par.Each and carves
// every answer out of one n × k allocation, and each answer must still be
// the per-query Top, bit for bit, for every k a caller can pass — none, one,
// a few, every domain and more. CI runs it under -race at one and four
// workers.
func TestClassifyBatchIsPerQueryTop(t *testing.T) {
	m, queries := wideModel(t, 600, 10)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumDomains()
	for _, k := range []int{-1, 0, 1, 3, 10, n - 1, n, n + 3} {
		got := c.ClassifyBatch(queries, k)
		if len(got) != len(queries) {
			t.Fatalf("k=%d: batch returned %d answers for %d queries", k, len(got), len(queries))
		}
		for i, q := range queries {
			if want := c.Top(q, k); !sameScores(got[i], want) {
				t.Fatalf("k=%d query %v: batch %+v, Top %+v", k, q, got[i], want)
			}
		}
	}
}

func TestClassifyBatchEmpty(t *testing.T) {
	m := buildModel(t, travelBibSet(), 0.2)
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ClassifyBatch(nil, 3); len(got) != 0 {
		t.Fatalf("nil batch returned %d results", len(got))
	}
	got := c.ClassifyBatch([][]string{{"departure"}}, m.NumDomains()+1)
	if len(got) != 1 || len(got[0]) != m.NumDomains() {
		t.Fatalf("single-query batch shape: %v", got)
	}
}

// TestConcurrentClassifyOnExtendedSpace hammers the online serving shape:
// a classifier built over an Extend-produced space, read concurrently by
// classification, query embedding, batch classification, and further
// extensions from the same space. Run under -race this proves that an
// extension, which grows a copy of the space's schema set, and the
// matchesOfVocab lists are read-safe post-construction.
func TestConcurrentClassifyOnExtendedSpace(t *testing.T) {
	set := append(travelBibSet(), schema.Set{
		{Name: "car1", Attributes: []string{"make", "model", "mileage", "price"}},
		{Name: "car2", Attributes: []string{"maker", "model year", "fuel type"}},
		{Name: "travel4", Attributes: []string{"departure date", "arrival date", "fare class"}},
		{Name: "bib3", Attributes: []string{"booktitle", "editor", "publisher"}},
		{Name: "car3", Attributes: []string{"transmission", "mileage", "price", "color"}},
	}...)
	sp := feature.BuildLite(set[:6], feature.DefaultConfig())
	for _, s := range set[6:] {
		sp, _ = sp.Extend(s)
	}
	cl, err := cluster.Agglomerative(sp, cluster.NewLinkage(cluster.AvgJaccard), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.AssignDomains(set, sp, cl, core.Options{TauCSim: 0.2, Theta: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q := batchQueries[(w+i)%len(batchQueries)]
				if scores := c.Classify(q); len(scores) != m.NumDomains() {
					t.Errorf("classify returned %d scores, want %d", len(scores), m.NumDomains())
					return
				}
				sp.QueryVector(q).Count()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.ClassifyBatch(batchQueries, 1+i%3)
		}
	}()
	// Writers: grow private extensions from the shared space while readers
	// are classifying against it.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ext := sp
			for i := 0; i < 15; i++ {
				ext, _ = ext.Extend(schema.Schema{
					Name:       fmt.Sprintf("w%dn%d", w, i),
					Attributes: []string{fmt.Sprintf("attr %d %d", w, i), "price", "titleish"},
				})
				ext.QueryVector([]string{"price", "title"}).Count()
			}
		}(w)
	}
	wg.Wait()
}
