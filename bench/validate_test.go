package main

import (
	"strings"
	"testing"
)

func TestCheckClassify(t *testing.T) {
	good := `[{"domain":4,"posterior":0.9,"mediated_schema":["a"]},{"domain":0,"posterior":0.09},{"domain":7,"posterior":0.01}]`
	if d, err := checkClassify([]byte(good), 3, 8); err != nil || d != 4 {
		t.Fatalf("good body: top-1 %d, err %v", d, err)
	}
	// Two domains in the whole model: two entries is the full answer.
	if _, err := checkClassify([]byte(`[{"domain":1,"posterior":0.7},{"domain":0,"posterior":0.3}]`), 3, 2); err != nil {
		t.Fatalf("model smaller than top: %v", err)
	}
	for name, c := range map[string]struct {
		body string
		want string
	}{
		"not json":       {`<html>`, "not a score list"},
		"error object":   {`{"error":"boom"}`, "not a score list"},
		"wrong top":      {`[{"domain":4,"posterior":0.9}]`, "1 entries, want 3"},
		"ascending":      {`[{"domain":4,"posterior":0.1},{"domain":0,"posterior":0.5},{"domain":7,"posterior":0.01}]`, "above entry"},
		"zero posterior": {`[{"domain":4,"posterior":0.9},{"domain":0,"posterior":0.1},{"domain":7,"posterior":0}]`, "not in (0,1]"},
		"above one":      {`[{"domain":4,"posterior":1.5},{"domain":0,"posterior":0.1},{"domain":7,"posterior":0.01}]`, "not in (0,1]"},
		"NaN-ish":        {`[{"domain":4,"posterior":-0.5},{"domain":0,"posterior":-0.6},{"domain":7,"posterior":-0.7}]`, "not in (0,1]"},
		"id too large":   {`[{"domain":8,"posterior":0.9},{"domain":0,"posterior":0.09},{"domain":7,"posterior":0.01}]`, "out of range"},
		"negative id":    {`[{"domain":-1,"posterior":0.9},{"domain":0,"posterior":0.09},{"domain":7,"posterior":0.01}]`, "out of range"},
	} {
		_, err := checkClassify([]byte(c.body), 3, 8)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", name, err, c.want)
		}
	}
}

func TestCheckIngest(t *testing.T) {
	good := `{"schema":"lg-d0001-00100","domains":[{"domain":3,"prob":0.6},{"domain":5,"prob":0.4}],"best_sim":0.4,"fresh":false,"pending_rebuild":2}`
	if err := checkIngest([]byte(good), "lg-d0001-00100"); err != nil {
		t.Fatal(err)
	}
	fresh := `{"schema":"x","domains":[],"best_sim":0,"fresh":true}`
	if err := checkIngest([]byte(fresh), "x"); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"wrong name":        `{"schema":"other","domains":[{"domain":3,"prob":1}],"fresh":false}`,
		"fresh with domain": `{"schema":"x","domains":[{"domain":3,"prob":1}],"fresh":true}`,
		"assigned nowhere":  `{"schema":"x","domains":[],"fresh":false}`,
		"probs short of 1":  `{"schema":"x","domains":[{"domain":3,"prob":0.5}],"fresh":false}`,
		"zero prob":         `{"schema":"x","domains":[{"domain":3,"prob":0},{"domain":4,"prob":1}],"fresh":false}`,
		"garbage":           `accepted`,
	} {
		if err := checkIngest([]byte(body), "x"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckQuery(t *testing.T) {
	for _, good := range []string{
		`{"tuples":[{"values":["a","b"],"prob":0.8,"sources":["s"]},{"values":["c","d"],"prob":0.1,"sources":["s"]}]}`,
		`{"tuples":[]}`,
		`{"tuples":[],"degraded":null}`,
	} {
		if err := checkQuery([]byte(good)); err != nil {
			t.Errorf("%s: %v", good, err)
		}
	}
	for name, body := range map[string]string{
		"no tuples key": `{"rows":[]}`,
		"degraded":      `{"tuples":[],"degraded":{"failed":[{"source":"s","error":"down"}],"skipped":0}}`,
		"bad prob":      `{"tuples":[{"values":["a"],"prob":0}]}`,
		"garbage":       `oops`,
	} {
		if err := checkQuery([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCatalogMajorityLabel(t *testing.T) {
	type member = struct {
		Name string  `json:"name"`
		Prob float64 `json:"prob"`
	}
	cat := newCatalog([]domainEntry{
		{ID: 0, Schemas: []member{{"lg-d0001-00001", 1}, {"lg-d0001-00002", 1}, {"lg-d0002-00001", 1}}, Mediated: []string{"x"}},
		// Two uncertain members of one label outweigh one certain member
		// of another only if their probabilities do.
		{ID: 1, Schemas: []member{{"lg-d0003-00001", 1}, {"lg-d0004-00001", 0.3}, {"lg-d0004-00002", 0.3}}},
		// A tie goes to the smaller label, whatever the map order.
		{ID: 5, Schemas: []member{{"lg-d0009-00001", 1}, {"lg-d0007-00001", 1}}, Mediated: []string{"y", "z"}},
	})
	if cat.numDomains != 6 {
		t.Errorf("numDomains = %d, want 6 (ids are not dense in a shard's view)", cat.numDomains)
	}
	for id, want := range map[int]string{0: "d0001", 1: "d0003", 5: "d0007"} {
		if got := cat.label[id]; got != want {
			t.Errorf("domain %d labelled %q, want %q", id, got, want)
		}
	}
	if len(cat.queryable) != 2 || cat.queryable[0].ID != 0 || cat.queryable[1].ID != 5 {
		t.Errorf("queryable = %+v, want domains 0 and 5", cat.queryable)
	}
}

func TestLostAcks(t *testing.T) {
	for _, c := range []struct{ base, acked, schemas, pending, want int }{
		{2000, 450, 2300, 150, 0}, // all accounted for, some still pending
		{2000, 450, 2450, 0, 0},   // all reclustered in
		{2000, 450, 2300, 147, 3}, // three acked schemas vanished
		{2000, 0, 2000, 0, 0},
		{2000, 450, 2500, 0, 0}, // more than expected is not a loss
	} {
		if got := lostAcks(c.base, c.acked, c.schemas, c.pending); got != c.want {
			t.Errorf("lostAcks(%d,%d,%d,%d) = %d, want %d", c.base, c.acked, c.schemas, c.pending, got, c.want)
		}
	}
}
