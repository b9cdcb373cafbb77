package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"schemaflow/payg"
)

// queryEveryDomain reads /domains and returns the body of one POST /query per
// domain, selecting the domain's first mediated attribute.
func queryEveryDomain(t *testing.T, h http.Handler) []string {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/domains")
	if err != nil {
		t.Fatal(err)
	}
	var domains []struct {
		ID       int      `json:"id"`
		Mediated []string `json:"mediated_schema"`
	}
	err = json.NewDecoder(resp.Body).Decode(&domains)
	resp.Body.Close()
	if err != nil || len(domains) == 0 {
		t.Fatalf("/domains: %d domains, error %v", len(domains), err)
	}
	var bodies []string
	for _, d := range domains {
		req := fmt.Sprintf(`{"domain":%d,"select":[%q]}`, d.ID, d.Mediated[0])
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte(req)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/query %s: status %d, error %v: %s", req, resp.StatusCode, err, body)
		}
		bodies = append(bodies, string(body))
	}
	return bodies
}

// TestSourceRowsSurviveRecovery: a source's rows are a function of the source
// alone, so a node restarted from its own -data-dir answers /query with the
// bytes the node that booted from -in served — an arrival a recluster folded
// in included. (Boot used to seed a source by its corpus index and recovery
// by the length of its name, and a node booted from -in gave arrivals no
// rows until it restarted.)
func TestSourceRowsSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "schemas.txt")
	corpus := "air1 | departure, destination, airline\n" +
		"air2 | departure, destination, airline\n" +
		"air3 | departure city, destination city, carrier\n" +
		"car1 | price, model, maker\n" +
		"car2 | price, maker, dealer\n" +
		"car3 | price, model, dealer name\n"
	if err := os.WriteFile(in, []byte(corpus), 0o644); err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	o := options{
		in: in, tau: 0.25, candGen: "auto", tuples: 5, driftThreshold: -1,
		dataDir: filepath.Join(dir, "data"), fsync: "none",
	}

	booted, err := buildApp(logger, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct{ path, body string }{
		{"/schemas", `{"name":"air4","attributes":["departure","destination","airline"]}`},
		{"/admin/recluster", ""},
	} {
		rec := httptest.NewRecorder()
		booted.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
		if rec.Code/100 != 2 {
			t.Fatalf("POST %s: status %d: %s", req.path, rec.Code, rec.Body)
		}
	}
	want := queryEveryDomain(t, booted.handler)
	if !strings.Contains(strings.Join(want, ""), `"air4"`) {
		t.Errorf("no tuple has the reclustered arrival air4 among its sources: %q", want)
	}
	booted.close()

	if ok, err := payg.HasCheckpoint(o.dataDir); err != nil || !ok {
		t.Fatalf("no checkpoint in -data-dir after boot (error %v): the restart below would not be a recovery", err)
	}
	recovered, err := buildApp(logger, o)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.close()
	if got := queryEveryDomain(t, recovered.handler); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered node serves different rows:\n got %q\nwant %q", got, want)
	}

	// Equally long names must not share one stream.
	attrs := []string{"departure", "destination", "airline"}
	a := makeSource(logger, o, payg.Schema{Name: "air1", Attributes: attrs}).(payg.Source)
	b := makeSource(logger, o, payg.Schema{Name: "air2", Attributes: attrs}).(payg.Source)
	if reflect.DeepEqual(a.Tuples, b.Tuples) {
		t.Errorf("air1 and air2 serve identical rows: %v", a.Tuples)
	}
}
