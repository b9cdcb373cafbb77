package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"schemaflow/internal/engine"
	"schemaflow/internal/httpapi"
	"schemaflow/payg"
)

// queryJSON is the /query response shape shared by the tests here.
type queryJSON struct {
	Tuples []struct {
		Values  []string `json:"values"`
		Sources []string `json:"sources"`
	} `json:"tuples"`
	Degraded *struct {
		Failed []struct {
			Source  string `json:"source"`
			Error   string `json:"error"`
			Skipped bool   `json:"skipped"`
		} `json:"failed"`
		Skipped int `json:"skipped"`
	} `json:"degraded"`
}

// flakyServer builds a server whose second travel source is a fault
// injector, and resolves a departure-ish attribute of the travel domain.
func flakyServer(t *testing.T, policy payg.Policy) (*Server, *engine.FlakeSource, string) {
	t.Helper()
	return flakyServerCfg(t, policy, Config{Logger: discardLogger()})
}

// flakyServerCfg is flakyServer with full control over the server config.
// Like payg-server, it builds the manager under the policy itself and
// serves it through NewWithManager.
func flakyServerCfg(t *testing.T, policy payg.Policy, cfg Config) (*Server, *engine.FlakeSource, string) {
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
	flake := engine.NewFlakeSource("air2", []payg.Tuple{{"YYZ", "CAI", "BlueJet"}}, 3)
	sources := []payg.TupleSource{
		payg.Source{Schema: schemas[0], Tuples: []payg.Tuple{{"YYZ", "CAI", "AirNorth"}}},
		flake,
		payg.Source{Schema: schemas[2]},
		payg.Source{Schema: schemas[3]},
	}
	mgr, err := payg.NewManager(sys, sources, payg.ManagerOptions{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithManager(mgr, cfg)
	t.Cleanup(s.Close)
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
	return s, flake, `{"domain": ` + jsonInt(scores[0].Domain) + `, "select": ["` + dep + `"]}`
}

func postQuery(t *testing.T, s *Server, body string) (int, queryJSON) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var res queryJSON
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("bad query response %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code, res
}

func TestQueryDegradesOnHardDownSource(t *testing.T) {
	s, flake, body := flakyServer(t, payg.Policy{Timeout: time.Second})
	flake.SetDown(true)
	code, res := postQuery(t, s, body)
	if code != http.StatusOK {
		t.Fatalf("code %d, want 200 with degraded report", code)
	}
	if res.Degraded == nil || len(res.Degraded.Failed) != 1 {
		t.Fatalf("degraded = %+v, want one failed source", res.Degraded)
	}
	f := res.Degraded.Failed[0]
	if f.Source != "air2" || !strings.Contains(f.Error, "hard down") {
		t.Fatalf("failure = %+v", f)
	}
	if len(res.Tuples) == 0 || res.Tuples[0].Values[0] != "YYZ" {
		t.Fatalf("healthy tuples missing: %+v", res.Tuples)
	}
	for _, tp := range res.Tuples {
		for _, src := range tp.Sources {
			if src == "air2" {
				t.Fatalf("dead source attributed in %+v", tp)
			}
		}
	}
}

func TestQueryBreakerSkipsReported(t *testing.T) {
	s, flake, body := flakyServer(t, payg.Policy{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	flake.SetDown(true)
	for i := 0; i < 2; i++ {
		if code, _ := postQuery(t, s, body); code != http.StatusOK {
			t.Fatalf("query %d: code %d", i, code)
		}
	}
	calls := flake.Calls()
	code, res := postQuery(t, s, body)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if res.Degraded == nil || res.Degraded.Skipped != 1 {
		t.Fatalf("degraded = %+v, want skipped = 1", res.Degraded)
	}
	if flake.Calls() != calls {
		t.Fatal("open breaker did not stop fetches across HTTP queries")
	}
}

func TestQueryRejectsNegativeLimit(t *testing.T) {
	s := testServer(t, true)
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"domain":0,"select":["departure"],"limit":-1}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative limit: code %d", rec.Code)
	}
}

func TestDecodersRejectUnknownFields(t *testing.T) {
	s := testServer(t, true)
	cases := []struct{ path, body string }{
		{"/query", `{"domain":0,"select":["departure"],"slect":["typo"]}`},
		{"/query", `{"domain":0,"select":["departure"]}{"extra":1}`},
		{"/feedback", `{"splits":[0],"splitz":[1]}`},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %q: code %d, want 400", c.path, c.body, rec.Code)
		}
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	schemas := []payg.Schema{
		{Name: "a", Attributes: []string{"price", "model"}},
		{Name: "b", Attributes: []string{"price", "maker"}},
	}
	sys, err := payg.Build(schemas, payg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(sys, Config{
		Sources: []payg.TupleSource{payg.Source{Schema: schemas[0]}, payg.Source{Schema: schemas[1]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	big := `{"domain":0,"select":["` + strings.Repeat("x", httpapi.MaxBodyBytes) + `"]}`
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(big))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("oversized body: code %d (%s), want 400 naming the body cap", rec.Code, rec.Body)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	h := httpapi.Recover(discardLogger(), http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic: code %d, want 500", rec.Code)
	}
	var v map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v["error"] == "" {
		t.Fatalf("panic response %q is not the JSON error shape", rec.Body.String())
	}
}

// TestConcurrentTraffic hammers the read endpoints and /query while
// /feedback swaps the system underneath them — the RWMutex swap path under
// the race detector. Every response must be coherent (no 5xx surprises).
func TestConcurrentTraffic(t *testing.T) {
	s := testServer(t, true)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if code, body := get(t, s, "/classify?q=departure"); code != http.StatusOK {
					fail(errorf("classify code %d: %s", code, body))
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req := httptest.NewRequest(http.MethodPost, "/query",
					strings.NewReader(`{"domain":0,"select":["departure"]}`))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				// Feedback may renumber domains mid-run, so 400 (unknown
				// attribute for a renumbered domain) is coherent; 5xx is not.
				if rec.Code >= 500 {
					fail(errorf("query code %d: %s", rec.Code, rec.Body.String()))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, body := range []string{`{"splits":[0]}`, `{"splits":[2]}`} {
			req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				fail(errorf("feedback code %d: %s", rec.Code, rec.Body.String()))
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// After both splits the system still answers queries consistently.
	if code, _ := get(t, s, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz broken after concurrent traffic")
	}
}

func errorf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}
