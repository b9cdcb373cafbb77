package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// reject runs one validator against a request and returns the status and
// "error" string of the response BadRequest produces for its verdict, or
// (0, "") when the validator accepts.
func reject(t *testing.T, method, target, body string, validate func(http.ResponseWriter, *http.Request) error) (int, string) {
	t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	err := validate(rec, req)
	if err == nil {
		return 0, ""
	}
	BadRequest(rec, err)
	var envelope map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || len(envelope) != 1 {
		t.Fatalf("response %q is not the {\"error\": ...} envelope", rec.Body.String())
	}
	return rec.Code, envelope["error"]
}

func TestParseClassify(t *testing.T) {
	parse := func(_ http.ResponseWriter, r *http.Request) error {
		_, _, err := ParseClassify(r)
		return err
	}
	for _, tc := range []struct{ target, want string }{
		{"/classify", "missing q parameter"},
		{"/classify?q=", "missing q parameter"},
		{"/classify?q=a&top=0", "bad top parameter"},
		{"/classify?q=a&top=-2", "bad top parameter"},
		{"/classify?q=a&top=many", "bad top parameter"},
	} {
		code, msg := reject(t, http.MethodGet, tc.target, "", parse)
		if code != http.StatusBadRequest || msg != tc.want {
			t.Errorf("%s: %d %q, want 400 %q", tc.target, code, msg, tc.want)
		}
	}
	for _, tc := range []struct {
		target string
		q      string
		top    int
	}{
		{"/classify?q=departure+city", "departure city", DefaultTop},
		{"/shard/classify?q=a&top=7", "a", 7},
	} {
		q, top, err := ParseClassify(httptest.NewRequest(http.MethodGet, tc.target, nil))
		if err != nil || q != tc.q || top != tc.top {
			t.Errorf("%s: (%q, %d, %v), want (%q, %d)", tc.target, q, top, err, tc.q, tc.top)
		}
	}
}

func TestDecodeBatch(t *testing.T) {
	decode := func(w http.ResponseWriter, r *http.Request) error {
		_, err := DecodeBatch(w, r)
		return err
	}
	wide := `{"queries":[` + strings.Repeat(`"q",`, MaxBatchQueries) + `"q"]}`
	for _, tc := range []struct{ name, body, want string }{
		{"empty list", `{"queries":[]}`, "empty query list"},
		{"missing field", `{}`, "empty query list"},
		{"too wide", wide, "too many queries: 1025 > 1024"},
		{"blank query", `{"queries":["a","  "]}`, "empty query at index 1"},
		{"negative top", `{"queries":["a"],"top":-1}`, "bad top value"},
		{"unknown field", `{"queries":["a"],"bogus":1}`, `bad request body: json: unknown field "bogus"`},
		{"malformed", `{"queries":[`, "bad request body: unexpected EOF"},
		{"trailing data", `{"queries":["a"]} {}`, "bad request body: trailing data after JSON body"},
	} {
		code, msg := reject(t, http.MethodPost, "/classify/batch", tc.body, decode)
		if code != http.StatusBadRequest || msg != tc.want {
			t.Errorf("%s: %d %q, want 400 %q", tc.name, code, msg, tc.want)
		}
	}
	req, err := DecodeBatch(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/classify/batch", strings.NewReader(`{"queries":["a","b"]}`)))
	if err != nil || len(req.Queries) != 2 || req.Top != DefaultTop {
		t.Fatalf("valid batch: %+v, %v", req, err)
	}
}

func TestDecodeSchema(t *testing.T) {
	decode := func(w http.ResponseWriter, r *http.Request) error {
		_, err := DecodeSchema(w, r)
		return err
	}
	for _, tc := range []struct{ name, body, want string }{
		{"missing name", `{"attributes":["a"]}`, "missing schema name"},
		{"no attributes", `{"name":"s"}`, "empty attribute list"},
		{"empty attributes", `{"name":"s","attributes":[]}`, "empty attribute list"},
		{"unknown field", `{"name":"s","attrs":["a"]}`, `bad request body: json: unknown field "attrs"`},
		{"trailing data", `{"name":"s","attributes":["a"]}x`, "bad request body: trailing data after JSON body"},
		{"over the body cap", `{"name":"s","attributes":["` + strings.Repeat("x", MaxBodyBytes) + `"]}`,
			"bad request body: http: request body too large"},
	} {
		code, msg := reject(t, http.MethodPost, "/schemas", tc.body, decode)
		if code != http.StatusBadRequest || msg != tc.want {
			t.Errorf("%s: %d %q, want 400 %q", tc.name, code, msg, tc.want)
		}
	}
	req, err := DecodeSchema(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/schemas", strings.NewReader(`{"name":"s","attributes":["a","b"]}`)))
	if err != nil || req.Name != "s" || len(req.Attributes) != 2 {
		t.Fatalf("valid schema: %+v, %v", req, err)
	}
}

func TestRequestTimeoutMiddleware(t *testing.T) {
	h := Timeout(time.Millisecond, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			w.WriteHeader(http.StatusGatewayTimeout)
		case <-time.After(time.Second):
			w.WriteHeader(http.StatusOK)
		}
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("code %d, want bounded request context to fire", rec.Code)
	}

	// The pprof subtree keeps the caller's context: a profile is supposed
	// to outlive the request budget.
	exempt := Timeout(time.Millisecond, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, bounded := r.Context().Deadline(); bounded {
			w.WriteHeader(http.StatusGatewayTimeout)
		}
	}))
	rec = httptest.NewRecorder()
	exempt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/profile", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof request got a deadline (code %d)", rec.Code)
	}
}
