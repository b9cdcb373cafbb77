package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"schemaflow/internal/dataset"
	"schemaflow/payg"
)

// servedBytesDigest is the SHA-256 of GET /domains followed by a /query
// sweep of one attribute at limit 20 over 200 domains, on
// Large{N:6000,Domains:120,Seed:1} with five synthetic rows per source
// seeded by schema index (the recipe of docs/runs/PR-24.txt). It moved to
// 9099f255… when the similarity floor replaced the MinHash band test.
const servedBytesDigest = "9099f2550ac6cf22125082a965faa6cb9b145d8f193f1d2bbdc05a158adcda48"

// querySweepDigest hashes a richer /query sweep over the same node: selects
// of one to three mediated attributes at limit 0 and limit 1, then a Where
// on a value an unfiltered query returned, sent upper-cased. It was recorded
// before the consolidation moved onto flat arrays and one key buffer.
const querySweepDigest = "dd2c832a6c256618f858d32024a893b6150070ef5a36f7ab2bab733d90fdfcec"

// TestServedBytesDigest pins the bytes /domains and /query serve, so a change
// to mediation, membership or the engine's consolidation shows as a moved
// digest. encoding/json prints a float64 as the shortest string that parses
// back to the same bits, so an equal digest means the same tuples, in the
// same order, with the same probability bits and source lists.
func TestServedBytesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 6,000-schema node")
	}
	set := dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
	sys, err := payg.Build(set, payg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]payg.TupleSource, len(set))
	for i, s := range set {
		rows := dataset.GenerateTuples(s, 5, int64(i))
		ts := make([]payg.Tuple, len(rows))
		for k, r := range rows {
			ts[k] = r
		}
		sources[i] = payg.Source{Schema: s, Tuples: ts}
	}
	mgr, err := payg.NewManager(sys, sources, payg.ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithManager(mgr, Config{Logger: discardLogger()})
	defer s.Close()

	// query posts one /query and hashes "domain status\n" and the body.
	query := func(h hash.Hash, d int, req map[string]any) []byte {
		req["domain"] = d
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body))))
		fmt.Fprintf(h, "%d %d\n", d, rec.Code)
		h.Write(rec.Body.Bytes())
		return rec.Body.Bytes()
	}
	attrsOf := func(d int) []string {
		attrs, err := sys.MediatedAttributes(d)
		if err != nil {
			t.Fatal(err)
		}
		return attrs
	}

	served := sha256.New()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/domains", nil))
	served.Write(rec.Body.Bytes())
	for q := 0; q < 200; q++ {
		d := q * sys.NumDomains() / 200
		query(served, d, map[string]any{"select": attrsOf(d)[:1], "limit": 20})
	}
	if got := hex.EncodeToString(served.Sum(nil)); got != servedBytesDigest {
		t.Errorf("served bytes digest %s over %d domains, want %s", got, sys.NumDomains(), servedBytesDigest)
	}

	sweep := sha256.New()
	for q := 0; q < 200; q++ {
		d := q * sys.NumDomains() / 200
		attrs := attrsOf(d)
		var first []byte
		for k := 1; k <= min(3, len(attrs)); k++ {
			for _, limit := range []int{0, 1} {
				body := query(sweep, d, map[string]any{"select": attrs[:k], "limit": limit})
				if k == 1 && limit == 0 {
					first = body
				}
			}
		}
		var res struct {
			Tuples []struct {
				Values []string `json:"values"`
			} `json:"tuples"`
		}
		if err := json.Unmarshal(first, &res); err != nil {
			t.Fatalf("domain %d: %v", d, err)
		}
		if len(res.Tuples) == 0 {
			continue
		}
		// A value from the middle of the ranking, so the filter keeps a
		// tuple that is not simply the best one.
		want := res.Tuples[len(res.Tuples)/2].Values[0]
		query(sweep, d, map[string]any{
			"select": attrs[:min(2, len(attrs))],
			"where":  map[string]string{attrs[0]: strings.ToUpper(want)},
			"limit":  0,
		})
	}
	if got := hex.EncodeToString(sweep.Sum(nil)); got != querySweepDigest {
		t.Errorf("query sweep digest %s, want %s", got, querySweepDigest)
	}
}
