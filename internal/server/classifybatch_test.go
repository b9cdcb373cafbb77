package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"schemaflow/internal/httpapi"
)

func postJSON(t *testing.T, s *Server, path, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestClassifyBatch(t *testing.T) {
	s := testServer(t, false)
	code, body := postJSON(t, s, "/classify/batch",
		`{"queries": ["departure destination", "paper title author", "departure destination"], "top": 1}`)
	if code != http.StatusOK {
		t.Fatalf("code %d: %s", code, body)
	}
	var v struct {
		Results [][]map[string]any `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(v.Results))
	}
	for i, r := range v.Results {
		if len(r) != 1 {
			t.Fatalf("result %d: top=1 returned %d scores", i, len(r))
		}
	}
	// The repeated query (a cache hit the second time) must answer
	// identically, and both must agree with the single-query endpoint.
	if fmt.Sprint(v.Results[0]) != fmt.Sprint(v.Results[2]) {
		t.Fatalf("repeated query diverged: %v vs %v", v.Results[0], v.Results[2])
	}
	_, single := get(t, s, "/classify?q=departure+destination&top=1")
	var sv []map[string]any
	if err := json.Unmarshal([]byte(single), &sv); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sv) != fmt.Sprint(v.Results[0]) {
		t.Fatalf("batch and single-query answers differ:\n%v\n%v", sv, v.Results[0])
	}
}

func TestClassifyBatchValidation(t *testing.T) {
	s := testServer(t, false)
	cases := []struct {
		name string
		body string
	}{
		{"empty list", `{"queries": []}`},
		{"missing field", `{}`},
		{"blank query", `{"queries": ["departure", "  "]}`},
		{"negative top", `{"queries": ["departure"], "top": -1}`},
		{"unknown field", `{"queries": ["departure"], "bogus": 1}`},
		{"malformed", `{"queries": [`},
	}
	for _, tc := range cases {
		if code, body := postJSON(t, s, "/classify/batch", tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: code %d (%s), want 400", tc.name, code, body)
		}
	}

	// Over the per-request width cap.
	var sb strings.Builder
	sb.WriteString(`{"queries": [`)
	for i := 0; i < httpapi.MaxBatchQueries+1; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`"q"`)
	}
	sb.WriteString(`]}`)
	if code, _ := postJSON(t, s, "/classify/batch", sb.String()); code != http.StatusBadRequest {
		t.Errorf("oversized batch accepted: code %d", code)
	}
}

// TestClassifyCachedAcrossFeedback drives the HTTP layer through a swap:
// the same query before and after POST /feedback must reflect the current
// generation (the cache may never serve the pre-feedback ranking if the
// model changed).
func TestClassifyCachedAcrossFeedback(t *testing.T) {
	s := testServer(t, false)
	q := "/classify?q=departure+destination&top=2"
	if code, _ := get(t, s, q); code != http.StatusOK {
		t.Fatal("warm-up classify failed")
	}
	// Move a bib schema into the travel domain — the posterior landscape
	// changes, so a stale cached answer would be detectably wrong.
	code, body := postJSON(t, s, "/feedback", `{"moves": [{"schema": 3, "domain": 0}]}`)
	if code != http.StatusOK {
		t.Fatalf("feedback: code %d: %s", code, body)
	}
	_, after := get(t, s, q)
	var v []map[string]any
	if err := json.Unmarshal([]byte(after), &v); err != nil {
		t.Fatal(err)
	}
	want := s.Manager().System().Classify("departure destination")
	if len(v) == 0 || v[0]["domain"].(float64) != float64(want[0].Domain) {
		t.Fatalf("post-feedback classify served stale ranking: %v, want top domain %d", v, want[0].Domain)
	}
	if got, wantP := v[0]["posterior"].(float64), want[0].Posterior; got != wantP {
		t.Fatalf("post-feedback posterior %v, want %v", got, wantP)
	}
}
