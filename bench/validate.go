package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// classifyEntry is one ranked domain of a GET /classify response.
type classifyEntry struct {
	Domain    int     `json:"domain"`
	Posterior float64 `json:"posterior"`
}

// checkClassify validates a /classify body against what any correct server
// must return: exactly min(top, numDomains) entries, domain ids in range,
// posteriors in (0, 1] and descending. It returns the top-1 domain.
func checkClassify(body []byte, top, numDomains int) (int, error) {
	var entries []classifyEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		return -1, fmt.Errorf("classify body is not a score list: %w", err)
	}
	want := top
	if numDomains < want {
		want = numDomains
	}
	if len(entries) != want {
		return -1, fmt.Errorf("classify returned %d entries, want %d", len(entries), want)
	}
	for i, e := range entries {
		if e.Domain < 0 || e.Domain >= numDomains {
			return -1, fmt.Errorf("entry %d: domain %d out of range [0,%d)", i, e.Domain, numDomains)
		}
		if !(e.Posterior > 0 && e.Posterior <= 1) {
			return -1, fmt.Errorf("entry %d: posterior %v not in (0,1]", i, e.Posterior)
		}
		if i > 0 && e.Posterior > entries[i-1].Posterior {
			return -1, fmt.Errorf("entry %d: posterior %v above entry %d's %v", i, e.Posterior, i-1, entries[i-1].Posterior)
		}
	}
	return entries[0].Domain, nil
}

// checkIngest validates a 202 POST /schemas body: it must echo the schema
// name and carry either a fresh verdict or membership probabilities in
// (0, 1] that sum to 1.
func checkIngest(body []byte, name string) error {
	var r struct {
		Schema  string `json:"schema"`
		Fresh   bool   `json:"fresh"`
		Domains []struct {
			Domain int     `json:"domain"`
			Prob   float64 `json:"prob"`
		} `json:"domains"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("ingest body: %w", err)
	}
	if r.Schema != name {
		return fmt.Errorf("ingest acked %q, sent %q", r.Schema, name)
	}
	if r.Fresh != (len(r.Domains) == 0) {
		return fmt.Errorf("ingest fresh=%v with %d domains", r.Fresh, len(r.Domains))
	}
	sum := 0.0
	for _, d := range r.Domains {
		if d.Domain < 0 || !(d.Prob > 0 && d.Prob <= 1) {
			return fmt.Errorf("ingest membership (%d, %v) invalid", d.Domain, d.Prob)
		}
		sum += d.Prob
	}
	if len(r.Domains) > 0 && math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("ingest memberships sum to %v", sum)
	}
	return nil
}

// checkQuery validates a 200 POST /query body: a tuple list (possibly
// empty) whose probabilities are in (0, 1], and no degraded report — the
// synthetic sources never fail.
func checkQuery(body []byte) error {
	var r struct {
		Tuples []struct {
			Values []string `json:"values"`
			Prob   float64  `json:"prob"`
		} `json:"tuples"`
		Degraded json.RawMessage `json:"degraded"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("query body: %w", err)
	}
	if r.Tuples == nil {
		return fmt.Errorf("query body has no tuples list")
	}
	if len(r.Degraded) > 0 && string(r.Degraded) != "null" {
		return fmt.Errorf("query degraded: %s", r.Degraded)
	}
	for i, t := range r.Tuples {
		if !(t.Prob > 0 && t.Prob <= 1+1e-9) {
			return fmt.Errorf("tuple %d: probability %v not in (0,1]", i, t.Prob)
		}
	}
	return nil
}

// domainEntry is one domain of a GET /domains response.
type domainEntry struct {
	ID      int `json:"id"`
	Schemas []struct {
		Name string  `json:"name"`
		Prob float64 `json:"prob"`
	} `json:"schemas"`
	Mediated []string `json:"mediated_schema"`
}

// catalog is what the harness learns about the serving model from
// GET /domains: the id range, each domain's majority ground-truth label
// (the accuracy oracle) and the domains a structured query can target.
type catalog struct {
	numDomains int
	label      map[int]string
	queryable  []domainEntry // domains with a mediated schema, by id
}

// newCatalog builds the oracle: a domain's label is the label most of its
// member names carry (probability-weighted; ties to the smaller label so
// the result does not depend on map order).
func newCatalog(domains []domainEntry) *catalog {
	c := &catalog{label: make(map[int]string, len(domains))}
	for _, d := range domains {
		if d.ID >= c.numDomains {
			c.numDomains = d.ID + 1
		}
		weight := map[string]float64{}
		for _, m := range d.Schemas {
			weight[labelOf(m.Name)] += m.Prob
		}
		best, bestW := "", -1.0
		for l, w := range weight {
			if w > bestW || (w == bestW && l < best) {
				best, bestW = l, w
			}
		}
		c.label[d.ID] = best
		if len(d.Mediated) > 0 {
			c.queryable = append(c.queryable, d)
		}
	}
	return c
}

// lostAcks is the mixed-ingest durability check: the server started with
// base schemas and acknowledged acked more, so schemas + pending_schemas
// must account for all of them. Each one missing is a failed op.
func lostAcks(base, acked, schemas, pending int) int {
	if lost := base + acked - (schemas + pending); lost > 0 {
		return lost
	}
	return 0
}
