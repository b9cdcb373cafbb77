package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"schemaflow/payg"
)

func testServer(t *testing.T, withData bool) *Server {
	t.Helper()
	schemas := []payg.Schema{
		{Name: "air1", Attributes: []string{"departure", "destination", "airline"}},
		{Name: "air2", Attributes: []string{"departure city", "destination city", "carrier"}},
		{Name: "bib1", Attributes: []string{"title", "authors", "publication year"}},
		{Name: "bib2", Attributes: []string{"paper title", "author", "year"}},
	}
	sys, err := payg.Build(schemas, payg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sources []payg.TupleSource
	if withData {
		sources = []payg.TupleSource{
			payg.Source{Schema: schemas[0], Tuples: []payg.Tuple{{"YYZ", "CAI", "AirNorth"}}},
			payg.Source{Schema: schemas[1], Tuples: []payg.Tuple{{"YYZ", "CAI", "BlueJet"}}},
			payg.Source{Schema: schemas[2]},
			payg.Source{Schema: schemas[3]},
		}
	}
	s, err := NewWithConfig(sys, Config{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestHealthz(t *testing.T) {
	s := testServer(t, false)
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v["schemas"].(float64) != 4 || v["domains"].(float64) != 2 {
		t.Fatalf("health = %v", v)
	}
}

func TestDomains(t *testing.T) {
	s := testServer(t, false)
	code, body := get(t, s, "/domains")
	if code != http.StatusOK {
		t.Fatalf("code %d: %s", code, body)
	}
	var v []map[string]any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 {
		t.Fatalf("domains = %v", v)
	}
	if _, ok := v[0]["mediated_schema"]; !ok {
		t.Fatal("missing mediated_schema")
	}
}

func TestClassify(t *testing.T) {
	s := testServer(t, false)
	code, body := get(t, s, "/classify?q=departure+destination&top=1")
	if code != http.StatusOK {
		t.Fatalf("code %d: %s", code, body)
	}
	var v []map[string]any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 {
		t.Fatalf("top=1 returned %d scores", len(v))
	}
	if v[0]["posterior"].(float64) < 0.5 {
		t.Fatalf("weak posterior for clear query: %v", v[0])
	}
}

func TestClassifyValidation(t *testing.T) {
	s := testServer(t, false)
	if code, _ := get(t, s, "/classify"); code != http.StatusBadRequest {
		t.Fatalf("missing q: code %d", code)
	}
	if code, _ := get(t, s, "/classify?q=x&top=0"); code != http.StatusBadRequest {
		t.Fatalf("bad top: code %d", code)
	}
}

func TestSchema(t *testing.T) {
	s := testServer(t, false)
	code, body := get(t, s, "/schema?domain=0")
	if code != http.StatusOK {
		t.Fatalf("code %d: %s", code, body)
	}
	if code, _ := get(t, s, "/schema?domain=99"); code != http.StatusNotFound {
		t.Fatalf("bad domain: code %d", code)
	}
	if code, _ := get(t, s, "/schema?domain=x"); code != http.StatusBadRequest {
		t.Fatalf("non-numeric domain: code %d", code)
	}
}

func TestQuery(t *testing.T) {
	s := testServer(t, true)
	// Find the travel domain and a departure-ish mediated attribute.
	_, body := get(t, s, "/classify?q=departure&top=1")
	var scores []struct {
		Domain   int      `json:"domain"`
		Mediated []string `json:"mediated_schema"`
	}
	if err := json.Unmarshal([]byte(body), &scores); err != nil {
		t.Fatal(err)
	}
	var dep string
	for _, a := range scores[0].Mediated {
		if strings.Contains(a, "departure") {
			dep = a
			break
		}
	}
	if dep == "" {
		t.Fatalf("no departure attribute in %v", scores[0].Mediated)
	}

	reqBody := `{"domain": ` + jsonInt(scores[0].Domain) + `, "select": ["` + dep + `"]}`
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(reqBody))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	var res struct {
		Tuples []struct {
			Values []string `json:"values"`
			Prob   float64  `json:"prob"`
		} `json:"tuples"`
		Degraded *struct{} `json:"degraded"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 || res.Tuples[0].Values[0] != "YYZ" {
		t.Fatalf("tuples = %v", res.Tuples)
	}
	if res.Degraded != nil {
		t.Fatal("healthy in-memory query reported degraded")
	}
}

func TestQueryValidation(t *testing.T) {
	noData := testServer(t, false)
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"domain":0,"select":["x"]}`))
	rec := httptest.NewRecorder()
	noData.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no sources: code %d", rec.Code)
	}

	withData := testServer(t, true)
	for _, body := range []string{"not json", `{"domain":0,"select":[]}`, `{"domain":0,"select":["no such attr"]}`} {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		withData.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: code %d", body, rec.Code)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := testServer(t, false)
	code, body := get(t, s, "/explain?q=departure+destination&domain=0")
	if code != http.StatusOK {
		t.Fatalf("code %d: %s", code, body)
	}
	var v struct {
		Domain int     `json:"domain"`
		Total  float64 `json:"total"`
		Terms  []struct {
			Term  string  `json:"term"`
			Delta float64 `json:"delta"`
		} `json:"terms"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Terms) == 0 {
		t.Fatalf("no term contributions: %s", body)
	}
	if code, _ := get(t, s, "/explain?q=x&domain=99"); code != http.StatusNotFound {
		t.Fatalf("bad domain: code %d", code)
	}
	if code, _ := get(t, s, "/explain?domain=0"); code != http.StatusBadRequest {
		t.Fatalf("missing q: code %d", code)
	}
}

func TestFeedbackEndpoint(t *testing.T) {
	s := testServer(t, false)
	_, before := get(t, s, "/healthz")
	var h map[string]any
	if err := json.Unmarshal([]byte(before), &h); err != nil {
		t.Fatal(err)
	}
	nBefore := int(h["domains"].(float64))

	// Split schema 0 into its own domain.
	req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(`{"splits":[0]}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	var fb struct {
		Domains   int   `json:"domains"`
		DomainMap []int `json:"domain_map"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Domains != nBefore+1 {
		t.Fatalf("domains %d → %d, want +1", nBefore, fb.Domains)
	}
	if len(fb.DomainMap) != nBefore {
		t.Fatalf("domain_map covers %d domains", len(fb.DomainMap))
	}
	// The swapped-in system serves subsequent requests.
	_, after := get(t, s, "/healthz")
	if err := json.Unmarshal([]byte(after), &h); err != nil {
		t.Fatal(err)
	}
	if int(h["domains"].(float64)) != nBefore+1 {
		t.Fatal("healthz still reports the old system")
	}
}

func TestFeedbackValidation(t *testing.T) {
	s := testServer(t, false)
	for _, body := range []string{"garbage", "{}", `{"splits":[99]}`} {
		req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: code %d", body, rec.Code)
		}
	}
}

func TestQueryLimit(t *testing.T) {
	s := testServer(t, true)
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"domain":0,"select":["departure"],"limit":1}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	// Domain 0 may or may not be the travel domain; find it if needed.
	if rec.Code == http.StatusBadRequest {
		req = httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader(`{"domain":1,"select":["departure"],"limit":1}`))
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	var res struct {
		Tuples []any `json:"tuples"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) > 1 {
		t.Fatalf("limit ignored: %d tuples", len(res.Tuples))
	}
}

func TestConcurrentFeedbackAndReads(t *testing.T) {
	// Readers keep classifying while feedback swaps the system — run with
	// -race. The final state must reflect exactly the applied corrections.
	s := testServer(t, false)
	done := make(chan error, 5)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 60; i++ {
				if code, _ := get(t, s, "/classify?q=departure"); code != http.StatusOK {
					done <- fmt.Errorf("classify code %d", code)
					return
				}
			}
			done <- nil
		}()
	}
	go func() {
		for _, body := range []string{`{"splits":[0]}`, `{"splits":[2]}`} {
			req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				done <- fmt.Errorf("feedback code %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// 4 schemas, 2 original domains + 2 splits = 4 domains.
	_, body := get(t, s, "/healthz")
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if int(h["domains"].(float64)) != 4 {
		t.Fatalf("final domains = %v, want 4", h["domains"])
	}
}

func TestMethodRouting(t *testing.T) {
	s := testServer(t, false)
	req := httptest.NewRequest(http.MethodPost, "/domains", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /domains: code %d", rec.Code)
	}
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}
