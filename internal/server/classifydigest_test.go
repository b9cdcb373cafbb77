package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"schemaflow/internal/dataset"
	"schemaflow/payg"
)

// classifyDigest is the SHA-256 of the bodies /classify and /classify/batch
// serve on Large{N:6000,Domains:120,Seed:1}. It was recorded from the commit
// whose node still fully sorted every domain before cutting the answer to
// top (3de60430…), and re-recorded when the similarity floor replaced the
// MinHash band test as the blocked build's pair graph: 556 domains instead
// of 562, and the blocked build's top 3 agrees with the exact build's on
// 97.7 % of these queries, against 94.3 % before (payg's
// TestBlockedBuildFidelity). It was re-recorded once more when exact setup
// summed over content sizes instead of enumerating subsets: table rows of
// domains with two or more uncertain members moved in their last bits, so
// every query's normalized posteriors did too (at most 1.5e-14 relative; log
// posteriors 3.4e-16), while the full ranking of all 200 queries stayed the
// same. encoding/json prints a float64 as the shortest string that parses
// back to the same bits, so an equal digest means the same domains, in the
// same order, with the same posterior bits and mediated schemas.
const classifyDigest = "a4dfa54e5ed8998c32a8709574fe30a997ffe0cdd2be204b05fcbe6b1940bacb"

// TestClassifyDigest pins the served classification bytes: 200 seeded
// queries of 2–4 attributes of one random schema each, at top 1, 3, 10 and
// more than there are domains, then all 200 as one batch at top 10.
func TestClassifyDigest(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
	sys, err := payg.Build(set, payg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(sys, Config{Logger: discardLogger(), DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(30))
	queries := make([]string, 200)
	for i := range queries {
		attrs := set[rng.Intn(len(set))].Attributes
		var kw []string
		for _, j := range rng.Perm(len(attrs))[:min(len(attrs), 2+rng.Intn(3))] {
			kw = append(kw, attrs[j])
		}
		queries[i] = strings.Join(kw, " ")
	}

	h := sha256.New()
	serve := func(req *http.Request) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		fmt.Fprintf(h, "%s %s %d\n", req.Method, req.URL, rec.Code)
		h.Write(rec.Body.Bytes())
	}
	for _, q := range queries {
		for _, k := range []int{1, 3, 10, sys.NumDomains() + 5} {
			serve(httptest.NewRequest(http.MethodGet, fmt.Sprintf("/classify?q=%s&top=%d", url.QueryEscape(q), k), nil))
		}
	}
	body, err := json.Marshal(map[string]any{"queries": queries, "top": 10})
	if err != nil {
		t.Fatal(err)
	}
	serve(httptest.NewRequest(http.MethodPost, "/classify/batch", strings.NewReader(string(body))))

	if got := hex.EncodeToString(h.Sum(nil)); got != classifyDigest {
		t.Fatalf("served classification digest %s over %d domains, want %s", got, sys.NumDomains(), classifyDigest)
	}
}
