package payg

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/schema"
)

// TestTermBackendDefaultEquivalence: a blocked build with an explicit "term"
// vectorizer is bit-identical to one with the field left unset.
func TestTermBackendDefaultEquivalence(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 400, Domains: 8, Seed: 21})
	base, err := Build(set, Options{CandidateGen: "lsh", SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	term, err := Build(set, Options{CandidateGen: "lsh", SkipMediation: true, Vectorizer: "term"})
	if err != nil {
		t.Fatal(err)
	}
	a, b := base.Model().Clustering.Assign, term.Model().Clustering.Assign
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cluster assignment diverges at schema %d: %d vs %d", i, a[i], b[i])
		}
	}
	for qi := 0; qi < 50; qi++ {
		kw := set[qi*7%len(set)].Attributes
		sa, sb := base.ClassifyKeywords(kw), term.ClassifyKeywords(kw)
		if len(sa) != len(sb) {
			t.Fatalf("query %d: score counts %d vs %d", qi, len(sa), len(sb))
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, j, sa[j], sb[j])
			}
		}
	}
}

func TestUnknownVectorizerRejected(t *testing.T) {
	if _, err := Build(demoSchemas(), Options{Vectorizer: "word2vec"}); err == nil {
		t.Fatal("unknown vectorizer accepted")
	}
}

// TestNGramBlockedBuildClusters: candidate generation is blocking, not
// approximation — the ngram index only prunes the online paths, so a blocked
// build must cluster identically whichever vectorizer is selected.
func TestNGramBlockedBuildClusters(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 400, Domains: 8, Seed: 21})
	term, err := Build(set, Options{CandidateGen: "lsh", SkipMediation: true, Vectorizer: "term"})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(set, Options{CandidateGen: "lsh", SkipMediation: true, Vectorizer: "ngram"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(term.Model().Clustering.Assign, sys.Model().Clustering.Assign) {
		t.Fatal("ngram blocked build clusters differently from term")
	}
	if nTerm, nGram := term.NumDomains(), sys.NumDomains(); nTerm != nGram {
		t.Fatalf("ngram blocked build found %d domains, term found %d", nGram, nTerm)
	}
	if got := sys.Classify("anything at all"); len(got) == 0 {
		t.Fatal("classification returned no scores")
	}
}

// TestNGramPrunedTop1Agreement is the ISSUE's acceptance bar: on the same
// model, ANN-pruned classification must reproduce the exact classifier's
// top-1 domain on at least 99% of queries.
func TestNGramPrunedTop1Agreement(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 800, Domains: 16, Seed: 9})
	exact, err := Build(set, Options{SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Build(set, Options{SkipMediation: true, Vectorizer: "ngram"})
	if err != nil {
		t.Fatal(err)
	}
	// Both take the exact (dense) build path below blockedAutoMin, so the
	// models are identical and the only difference is classification
	// pruning. Verify the premise before measuring agreement.
	a, b := exact.Model().Clustering.Assign, pruned.Model().Clustering.Assign
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("models diverge at schema %d — exact-path builds should be backend-independent", i)
		}
	}

	queries := 0
	agree := 0
	for qi := 0; qi < 400; qi++ {
		kw := set[(qi*13)%len(set)].Attributes
		se := exact.ClassifyKeywords(kw)
		sp := pruned.ClassifyKeywords(kw)
		if len(se) == 0 || len(sp) == 0 {
			t.Fatalf("query %d: empty ranking (exact %d, pruned %d)", qi, len(se), len(sp))
		}
		queries++
		if se[0].Domain == sp[0].Domain {
			agree++
		}
	}
	frac := float64(agree) / float64(queries)
	t.Logf("pruned top-1 agreement: %d/%d = %.4f", agree, queries, frac)
	if frac < 0.99 {
		t.Fatalf("top-1 agreement %.4f < 0.99", frac)
	}
}

// TestNGramPrunedIngestAgreement checks the assignment half of
// shortlist-then-verify: restricted Algorithm 3 must find the same best
// domain as the unrestricted comparison for nearly all arrivals.
func TestNGramPrunedIngestAgreement(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 800, Domains: 16, Seed: 9})
	exact, err := Build(set, Options{SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Build(set, Options{SkipMediation: true, Vectorizer: "ngram"})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := dataset.Large(dataset.LargeConfig{N: 200, Domains: 16, Seed: 10})
	agree, total := 0, 0
	for i, sch := range arrivals {
		sch.Name = fmt.Sprintf("arrival-%d", i)
		ae, err := exact.Ingest(sch)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := pruned.Ingest(sch)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if ae.BestDomain == ap.BestDomain {
			agree++
		}
	}
	frac := float64(agree) / float64(total)
	t.Logf("pruned ingest best-domain agreement: %d/%d = %.4f", agree, total, frac)
	if frac < 0.95 {
		t.Fatalf("ingest agreement %.4f < 0.95", frac)
	}
}

// TestNGramPersistRoundTrip: fitted backend state is derived, so a saved
// ngram system must come back with pruning active and identical rankings.
func TestNGramPersistRoundTrip(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 300, Domains: 6, Seed: 4})
	sys, err := Build(set, Options{SkipMediation: true, Vectorizer: "ngram"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.vectorizer == nil {
		t.Fatal("loaded system lost its ngram index")
	}
	for qi := 0; qi < 40; qi++ {
		kw := set[qi*7%len(set)].Attributes
		sa, sb := sys.ClassifyKeywords(kw), got.ClassifyKeywords(kw)
		if len(sa) != len(sb) {
			t.Fatalf("query %d: score counts %d vs %d after reload", qi, len(sa), len(sb))
		}
		for j := range sa {
			if sa[j].Domain != sb[j].Domain {
				t.Fatalf("query %d rank %d: domain %d vs %d after reload", qi, j, sa[j].Domain, sb[j].Domain)
			}
		}
	}
}

// TestLoadsSnapshotWithRemovedOptions: snapshots written before the eight
// tuning fields left Options still carry them, and snapshots up to version 3
// carry the classifier's tables (gob matches fields by name and skips the
// ones the receiver lacks). Such a snapshot must load, serve behind a
// Manager, and classify exactly like a freshly built system — whatever the
// stored tables said, since they are recomputed.
func TestLoadsSnapshotWithRemovedOptions(t *testing.T) {
	type oldOptions struct {
		TauTSim, TauCSim, Theta, MediationFreqThreshold float64
		TermSimilarity, Linkage, CandidateGen           string
		SkipMediation                                   bool
		LSHBands, LSHRows                               int
		CandidateThreshold                              float64
		CandidateAutoMin, Workers                       int
		Vectorizer                                      string
		ANNM, ANNEfSearch, ANNShortlistK                int
	}
	// The shape classify.Snapshot had when it was persisted.
	type oldClassifier struct {
		Mode              int
		Dim               int
		LogPrior, SumLog0 []float64
		Delta             [][]float64
		Skipped           []int
	}
	type oldSnapshot struct {
		Version     int
		Opts        oldOptions
		Schemas     schema.Set
		Assign      []int
		Memberships [][]core.Membership
		Classifier  *oldClassifier
	}
	set := dataset.Large(dataset.LargeConfig{N: 300, Domains: 6, Seed: 4})
	for _, vec := range []string{"term", "ngram"} {
		fresh, err := Build(set, Options{SkipMediation: true, Vectorizer: vec})
		if err != nil {
			t.Fatal(err)
		}
		old := oldSnapshot{
			Version: 3,
			Opts: oldOptions{
				TauTSim: 0.8, TauCSim: 0.25, Theta: 0.02, MediationFreqThreshold: 0.1,
				TermSimilarity: "lcs", Linkage: "avg-jaccard", CandidateGen: "auto", SkipMediation: true,
				LSHBands: 128, LSHRows: 2, CandidateThreshold: 0.05, CandidateAutoMin: 4096, Workers: 3,
				Vectorizer: vec, ANNM: 16, ANNEfSearch: 64, ANNShortlistK: 32,
			},
			Schemas:     fresh.schemas,
			Assign:      fresh.model.Clustering.Assign,
			Memberships: make([][]core.Membership, len(set)),
			Classifier: &oldClassifier{
				Dim:      fresh.space.Dim() + 1, // stale on purpose: nothing may read it
				LogPrior: make([]float64, fresh.NumDomains()),
				Delta:    [][]float64{{1, 2, 3}},
			},
		}
		for i := range set {
			old.Memberships[i] = fresh.model.DomainsOf(i)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
			t.Fatal(err)
		}
		mgr, err := LoadManager(&buf, nil, ManagerOptions{DriftThreshold: -1})
		if err != nil {
			t.Fatalf("%s: old snapshot did not load: %v", vec, err)
		}
		defer mgr.Close()
		if got := mgr.System().vectorizer != nil; got != (vec == "ngram") {
			t.Fatalf("%s: loaded system has ngram index = %v", vec, got)
		}
		for qi := 0; qi < 40; qi++ {
			kw := set[qi*7%len(set)].Attributes
			if want, got := fresh.ClassifyKeywords(kw), mgr.System().ClassifyKeywords(kw); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s query %d: loaded system ranks %+v, fresh build %+v", vec, qi, got, want)
			}
		}
	}
}

// TestNGramConcurrentClassifyDuringReclusterSwap hammers classification and
// ingestion on an ngram-backed manager while a recluster publishes a new
// generation — the backend swap must be as atomic as the system swap
// (run with -race to check the fitted state is never shared mutably).
func TestNGramConcurrentClassifyDuringReclusterSwap(t *testing.T) {
	base := demoSchemas()
	sys, err := Build(base, Options{SkipMediation: true, Vectorizer: "ngram"})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(sys, nil, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := mgr.System().Classify("departure airline price"); len(got) == 0 {
					errc <- fmt.Errorf("classify returned no scores")
					return
				}
				sch := Schema{
					Name:       fmt.Sprintf("hammer-%d-%d", w, i),
					Attributes: []string{"departure airport", "airline", "price"},
				}
				if _, err := mgr.System().Ingest(sch); err != nil {
					errc <- fmt.Errorf("ingest: %v", err)
					return
				}
			}
		}(w)
	}

	for _, sch := range newcomerSchemas() {
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		if err := mgr.Recluster(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if mgr.System().vectorizer == nil {
		t.Fatal("rebuilt generation lost the ngram index")
	}
}
