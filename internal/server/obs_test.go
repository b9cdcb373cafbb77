package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"schemaflow/payg"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// quietServer is testServer with request logs discarded and optional
// config tweaks.
func quietServer(t *testing.T, withData bool, mutate func(*Config)) *Server {
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
	cfg := Config{Logger: discardLogger()}
	if withData {
		cfg.Sources = []payg.TupleSource{
			payg.Source{Schema: schemas[0], Tuples: []payg.Tuple{{"YYZ", "CAI", "AirNorth"}}},
			payg.Source{Schema: schemas[1], Tuples: []payg.Tuple{{"YYZ", "CAI", "BlueJet"}}},
			payg.Source{Schema: schemas[2]},
			payg.Source{Schema: schemas[3]},
		}
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewWithConfig(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestMetricsEndpointPrometheusText(t *testing.T) {
	s, _, queryBody := flakyServer(t, payg.DefaultPolicy())
	// Drive every instrumented subsystem at least once so the exposition
	// has series, not just registered families.
	if code, _ := get(t, s, "/classify?q=departure"); code != http.StatusOK {
		t.Fatalf("classify: %d", code)
	}
	postQuery(t, s, queryBody)

	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	// One family per instrumented layer: engine, server, classify, ingest,
	// and the manager/build pipeline.
	for _, want := range []string{
		"# TYPE schemaflow_source_fetch_attempts_total counter",
		"# TYPE schemaflow_http_requests_total counter",
		"# TYPE schemaflow_http_request_duration_seconds histogram",
		"# TYPE schemaflow_classify_requests_total counter",
		"# TYPE schemaflow_classify_posterior_entropy_nats histogram",
		"# TYPE schemaflow_ingest_pending_schemas gauge",
		"# TYPE schemaflow_ingest_assign_duration_seconds histogram",
		"# TYPE schemaflow_rebuild_duration_seconds histogram",
		"# TYPE schemaflow_build_phase_duration_seconds histogram",
		"# TYPE schemaflow_breaker_state gauge",
		`schemaflow_build_phase_duration_seconds_bucket{phase="cluster",le="+Inf"}`,
		`schemaflow_http_requests_total{route="/classify",code="200"}`,
		`schemaflow_breaker_state{source="air2"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// air2 is fault-injected and can fail; air1 is in memory, read in place
	// with no breaker.
	if strings.Contains(body, `schemaflow_breaker_state{source="air1"}`) {
		t.Error("/metrics has a breaker series for the in-memory source air1")
	}
}

func TestMetricsEndpointJSON(t *testing.T) {
	s := quietServer(t, false, nil)
	for _, tc := range []struct{ path, accept string }{
		{"/metrics?format=json", ""},
		{"/metrics", "application/json"},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", tc.path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: content type %q", tc.path, ct)
		}
		var v struct {
			Families []struct {
				Name string `json:"name"`
				Type string `json:"type"`
			} `json:"families"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if len(v.Families) == 0 {
			t.Fatalf("%s: no families", tc.path)
		}
	}
}

func TestHealthzReportsBreakerStates(t *testing.T) {
	s, _, _ := flakyServer(t, payg.DefaultPolicy())
	_, body := get(t, s, "/healthz")
	var v struct {
		Status       string            `json:"status"`
		Sources      map[string]string `json:"sources"`
		BreakersOpen int               `json:"breakers_open"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != "ok" {
		t.Fatalf("status = %q", v.Status)
	}
	// Breakers are pre-warmed at executor construction, so the one source
	// that can fail is visible (closed) before any query traffic; the three
	// in-memory sources have no breaker.
	if len(v.Sources) != 1 || v.Sources["air2"] != "closed" {
		t.Fatalf("sources = %v, want air2 closed only", v.Sources)
	}
	if v.BreakersOpen != 0 {
		t.Fatalf("breakers_open = %d", v.BreakersOpen)
	}
	// With every source in memory there is no breaker at all.
	_, body = get(t, quietServer(t, true, nil), "/healthz")
	if !strings.Contains(body, `"sources":{}`) || !strings.Contains(body, `"breakers_open":0`) {
		t.Fatalf("in-memory healthz = %s, want no sources and no open breakers", body)
	}
}

func TestHealthzDegradedWhenBreakerOpens(t *testing.T) {
	policy := payg.DefaultPolicy()
	policy.MaxRetries = 0
	policy.BreakerThreshold = 1
	s, flake, queryBody := flakyServer(t, policy)
	flake.SetDown(true)
	postQuery(t, s, queryBody)

	_, body := get(t, s, "/healthz")
	var v struct {
		Status       string            `json:"status"`
		Sources      map[string]string `json:"sources"`
		BreakersOpen int               `json:"breakers_open"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Sources["air2"] != "open" {
		t.Fatalf("air2 breaker = %q, want open (sources %v)", v.Sources["air2"], v.Sources)
	}
	if v.BreakersOpen != 1 || v.Status != "degraded" {
		t.Fatalf("breakers_open=%d status=%q, want 1/degraded", v.BreakersOpen, v.Status)
	}
}

func TestRequestLoggingStructured(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	s := quietServer(t, true, func(c *Config) { c.Logger = logger })

	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"domain":0,"select":["departure"]}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d", rec.Code)
	}
	reqID := rec.Header().Get("X-Request-ID")
	if len(reqID) != 16 {
		t.Fatalf("X-Request-ID = %q", reqID)
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	var logged map[string]any
	for _, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if v["msg"] == "request" && v["route"] == "/query" {
			logged = v
		}
	}
	if logged == nil {
		t.Fatalf("no request log line for /query in %q", buf.String())
	}
	if logged["request_id"] != reqID {
		t.Errorf("logged request_id %v != header %q", logged["request_id"], reqID)
	}
	if logged["status"].(float64) != http.StatusOK {
		t.Errorf("logged status %v", logged["status"])
	}
	if logged["method"] != "POST" || logged["path"] != "/query" {
		t.Errorf("logged method/path %v/%v", logged["method"], logged["path"])
	}
	if _, ok := logged["degraded"]; !ok {
		t.Errorf("request log misses degraded flag: %v", logged)
	}
	if logged["duration"] == nil {
		t.Errorf("request log misses duration: %v", logged)
	}
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func TestDegradedQueryLoggedAndCounted(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	policy := payg.DefaultPolicy()
	policy.MaxRetries = 0
	policy.BreakerThreshold = 0 // no breaking: hard failure every time
	s, flake, queryBody := flakyServerCfg(t, policy, Config{Logger: logger})

	degradedBefore := mQueriesDegraded.Value()
	flake.SetDown(true)
	code, resp := postQuery(t, s, queryBody)
	if code != http.StatusOK || resp.Degraded == nil {
		t.Fatalf("want degraded 200, got %d degraded=%v", code, resp.Degraded)
	}
	if got := mQueriesDegraded.Value(); got != degradedBefore+1 {
		t.Errorf("degraded counter %d, want %d", got, degradedBefore+1)
	}
	mu.Lock()
	logText := buf.String()
	mu.Unlock()
	if !strings.Contains(logText, `"degraded":true`) {
		t.Errorf("request log misses degraded=true: %s", logText)
	}
}

func TestMiddlewareMetricsConcurrent(t *testing.T) {
	s := quietServer(t, true, nil)
	before := mHTTPRequests.With("/classify", "200").Value()
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest(http.MethodGet, "/classify?q=departure", nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("classify: %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := mHTTPRequests.With("/classify", "200").Value(); got != before+workers*perWorker {
		t.Fatalf("requests counter %d, want %d", got, before+workers*perWorker)
	}
	if mHTTPInFlight.Value() != 0 {
		t.Fatalf("in-flight gauge %v after traffic drained", mHTTPInFlight.Value())
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	off := quietServer(t, false, nil)
	if code, _ := get(t, off, "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof: %d, want 404", code)
	}
	on := quietServer(t, false, func(c *Config) { c.EnablePprof = true })
	code, body := get(t, on, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d %q", code, body[:min(len(body), 80)])
	}
	if code, _ := get(t, on, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline: %d", code)
	}
}
