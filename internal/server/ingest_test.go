package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"schemaflow/internal/httpapi"
	"schemaflow/payg"
)

func post(t *testing.T, s *Server, path, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func decode(t *testing.T, body string) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return v
}

func TestIngestClearSchema(t *testing.T) {
	s := testServer(t, false)
	defer s.Close()
	code, body := post(t, s, "/schemas",
		`{"name":"air3","attributes":["departure airport","destination city","airline"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("code %d: %s", code, body)
	}
	v := decode(t, body)
	if v["fresh"].(bool) {
		t.Fatalf("clear travel schema reported fresh: %v", v)
	}
	domains := v["domains"].([]any)
	if len(domains) != 1 {
		t.Fatalf("domains %v, want exactly one", domains)
	}
	d := domains[0].(map[string]any)
	// The flight schemas were built first, so they share domain 0.
	if d["domain"].(float64) != 0 {
		t.Fatalf("assigned to domain %v, want 0 (flights)", d["domain"])
	}
	if d["prob"].(float64) < 0.25 {
		t.Fatalf("probability %v below the τ_c_sim gate", d["prob"])
	}
	if v["pending_rebuild"].(float64) != 1 {
		t.Fatalf("pending_rebuild %v, want 1", v["pending_rebuild"])
	}
}

func TestIngestBoundarySchema(t *testing.T) {
	schemas := []payg.Schema{
		{Name: "air1", Attributes: []string{"departure airport", "arrival airport", "airline", "flight number"}},
		{Name: "air2", Attributes: []string{"departure city", "arrival city", "airline", "price"}},
		{Name: "book1", Attributes: []string{"book title", "author", "isbn", "publisher"}},
		{Name: "book2", Attributes: []string{"title", "author name", "isbn", "price"}},
	}
	sys, err := payg.Build(schemas, payg.Options{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := post(t, s, "/schemas",
		`{"name":"travel-books","attributes":["departure airport","arrival airport","airline","book title","author name","isbn"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("code %d: %s", code, body)
	}
	v := decode(t, body)
	domains := v["domains"].([]any)
	if len(domains) < 2 {
		t.Fatalf("boundary schema got %v, want ≥ 2 domains", domains)
	}
	sum := 0.0
	for _, d := range domains {
		sum += d.(map[string]any)["prob"].(float64)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v, want 1", sum)
	}
}

func TestIngestValidation(t *testing.T) {
	s := testServer(t, false)
	defer s.Close()
	cases := []struct {
		name string
		body string
	}{
		{"empty attributes", `{"name":"x","attributes":[]}`},
		{"missing attributes", `{"name":"x"}`},
		{"missing name", `{"attributes":["a"]}`},
		{"blank attribute", `{"name":"x","attributes":["a",""]}`},
		{"unknown field", `{"name":"x","attributes":["a"],"bogus":1}`},
		{"not json", `departure,destination`},
	}
	for _, tc := range cases {
		if code, body := post(t, s, "/schemas", tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: code %d (%s), want 400", tc.name, code, body)
		}
	}
}

func TestIngestOversizedBody(t *testing.T) {
	schemas := []payg.Schema{
		{Name: "a", Attributes: []string{"departure airport", "airline"}},
		{Name: "b", Attributes: []string{"arrival airport", "airline"}},
	}
	sys, err := payg.Build(schemas, payg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := `{"name":"x","attributes":["` + strings.Repeat("a", httpapi.MaxBodyBytes) + `"]}`
	if code, body := post(t, s, "/schemas", big); code != http.StatusBadRequest || !strings.Contains(body, "request body too large") {
		t.Fatalf("oversized body: code %d (%s), want 400 naming the body cap", code, body)
	}
}

func TestHealthzReportsIngestionState(t *testing.T) {
	s := testServer(t, false)
	defer s.Close()
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	v := decode(t, body)
	if v["status"] != "ok" || v["rebuilding"].(bool) || v["pending_schemas"].(float64) != 0 {
		t.Fatalf("healthz = %v", v)
	}

	post(t, s, "/schemas", `{"name":"air3","attributes":["departure airport","airline"]}`)
	_, body = get(t, s, "/healthz")
	v = decode(t, body)
	if v["pending_schemas"].(float64) != 1 {
		t.Fatalf("pending_schemas = %v, want 1", v["pending_schemas"])
	}
}

func TestReclusterFoldsPendingIntoServing(t *testing.T) {
	s := testServer(t, true)
	defer s.Close()
	code, body := post(t, s, "/schemas",
		`{"name":"air3","attributes":["departure airport","destination city","airline"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("ingest code %d: %s", code, body)
	}

	code, body = post(t, s, "/admin/recluster", "")
	if code != http.StatusOK {
		t.Fatalf("recluster code %d: %s", code, body)
	}
	v := decode(t, body)
	if v["schemas"].(float64) != 5 || v["pending_schemas"].(float64) != 0 {
		t.Fatalf("recluster state %v, want 5 schemas and empty journal", v)
	}

	// The new schema is now served: /domains lists it and /query still
	// answers over the rebuilt executor.
	_, body = get(t, s, "/domains")
	if !strings.Contains(body, `"air3"`) {
		t.Fatalf("/domains does not list ingested schema: %s", body)
	}
	code, body = post(t, s, "/query", `{"domain":0,"select":["departure"]}`)
	if code != http.StatusOK {
		t.Fatalf("query after recluster: code %d (%s)", code, body)
	}
}
