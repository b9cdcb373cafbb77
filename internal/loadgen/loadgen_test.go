package loadgen

import (
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"testing"
	"time"

	"schemaflow/internal/dataset"
	"schemaflow/internal/server"
	"schemaflow/payg"
)

// smokeSecs lets `make loadgen-smoke` run the CI-length pass while the
// default `go test ./...` stays quick.
var smokeSecs = flag.Float64("loadgen-secs", 2, "smoke-test load duration in seconds")

// testServer builds a small three-domain system with synthetic data and
// serves it in-process.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	schemas := []payg.Schema{
		{Name: "air1", Attributes: []string{"departure airport", "destination airport", "airline", "price"}},
		{Name: "air2", Attributes: []string{"departure city", "destination city", "carrier", "fare"}},
		{Name: "bib1", Attributes: []string{"paper title", "authors", "publication year"}},
		{Name: "bib2", Attributes: []string{"title", "author names", "year", "conference"}},
		{Name: "car1", Attributes: []string{"vehicle model", "maker", "price", "mileage"}},
		{Name: "car2", Attributes: []string{"car model", "manufacturer", "asking price"}},
	}
	sys, err := payg.Build(schemas, payg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]payg.TupleSource, len(schemas))
	for i, s := range schemas {
		rows := dataset.GenerateTuples(s, 10, int64(i))
		tuples := make([]payg.Tuple, len(rows))
		for k, r := range rows {
			tuples[k] = r
		}
		sources[i] = payg.Source{Schema: s, Tuples: tuples}
	}
	srv, err := server.NewWithConfig(sys, server.Config{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// TestLoadgenSmoke is the CI smoke: drive an in-process server for a few
// seconds and require non-zero throughput, a near-zero error rate, and a
// report that validates and round-trips as JSON.
func TestLoadgenSmoke(t *testing.T) {
	ts := testServer(t)
	sc, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		QPS:      300,
		Workers:  4,
		Duration: time.Duration(*smokeSecs * float64(time.Second)),
		Seed:     42,
		Name:     "smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Requests == 0 || sc.AchievedQPS <= 0 {
		t.Fatalf("no throughput: %+v", sc)
	}
	if sc.ErrorRate > 0.01 {
		t.Fatalf("error rate %v > 1%% against a healthy in-process server", sc.ErrorRate)
	}
	if sc.Endpoints[epClassify].Requests == 0 {
		t.Fatalf("classify endpoint got no traffic: %+v", sc.Endpoints)
	}
	if sc.AckedIngests == 0 {
		t.Fatalf("no ingest was acked (mix includes ingest): %+v", sc)
	}

	rep := &Report{Description: "smoke", Scenarios: []Scenario{sc}}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report failed validation: %v", err)
	}
	var buf jsonBuffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.b, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Scenarios) != 1 || back.Scenarios[0].Requests != sc.Requests {
		t.Fatalf("report did not round-trip: %+v", back)
	}
}

// TestMixOnlyReads proves weight-0 types never fire: a pure-read mix must
// not mutate the server.
func TestMixOnlyReads(t *testing.T) {
	ts := testServer(t)
	sc, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Workers:  2,
		Duration: 500 * time.Millisecond,
		Mix:      Mix{Classify: 3, Batch: 1},
		Seed:     7,
		Name:     "reads",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Requests == 0 {
		t.Fatal("no requests")
	}
	for _, ep := range []string{epQuery, epIngest, epFeedback} {
		if _, ok := sc.Endpoints[ep]; ok {
			t.Fatalf("read-only mix drove %s traffic: %+v", ep, sc.Endpoints)
		}
	}
	if sc.AckedIngests != 0 {
		t.Fatalf("read-only mix acked %d ingests", sc.AckedIngests)
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("classify=10,query=5,feedback=0")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Classify: 10, Query: 5}) {
		t.Fatalf("m = %+v", m)
	}
	if m, err := ParseMix(""); err != nil || m != DefaultMix() {
		t.Fatalf("empty mix: %v %v", m, err)
	}
	for _, bad := range []string{"classify", "classify=x", "classify=-1", "nope=3", "classify=0,query=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// jsonBuffer avoids importing bytes just for a writer.
type jsonBuffer struct{ b []byte }

func (j *jsonBuffer) Write(p []byte) (int, error) { j.b = append(j.b, p...); return len(p), nil }
