// The chaos scenarios' load driver: six closed-loop workers paced to 150
// requests a second in total, each drawing request kinds by a scenario's
// fixed weights from a PCG seeded with (driverSeed, worker). It records
// each kind's status counts and latencies and the name of every ingest the
// server answered 202: what the gates in load_test.go read, and nothing
// more.
package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

const (
	driverWorkers = 6
	driverRate    = 150 // requests a second, all workers together
	driverSeed    = 1
)

// Request kinds, in the order of a mix's weights.
const (
	kindClassify = iota
	kindBatch
	kindQuery
	kindIngest
	kindFeedback
	numKinds
)

var kindNames = [numKinds]string{"classify", "classify_batch", "query", "ingest", "feedback"}

// mix weighs the request kinds; a zero weight leaves a kind out.
type mix [numKinds]int

// defaultMix is a read-heavy blend with a few ingests and the odd feedback
// move.
var defaultMix = mix{55, 5, 30, 8, 2}

func (m mix) draw(rng *rand.Rand) int {
	total := 0
	for _, w := range m {
		total += w
	}
	pick := rng.IntN(total)
	for k, w := range m {
		if pick < w {
			return k
		}
		pick -= w
	}
	panic("unreachable")
}

// kindStats is what one kind of request got back: a count per HTTP status
// (0 for a transport error) and the latency of every answered request.
type kindStats struct {
	status    map[int]int
	latencies []time.Duration
}

// loadRun is one scenario's outcome; the workers record into it under mu.
type loadRun struct {
	name    string
	elapsed time.Duration
	mu      sync.Mutex
	kinds   [numKinds]kindStats
	acked   []string // names of the ingests answered 202
}

// record counts one request of kind k; name is its arrival's, for an ingest.
func (r *loadRun) record(k, status int, took time.Duration, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ks := &r.kinds[k]
	if ks.status == nil {
		ks.status = map[int]int{}
	}
	ks.status[status]++
	if status != 0 {
		ks.latencies = append(ks.latencies, took)
	}
	if k == kindIngest && status == http.StatusAccepted {
		r.acked = append(r.acked, name)
	}
}

// corpus is what the driver learns from one GET /domains before it starts.
// A recluster may renumber the domains during the run; the server's 400 on
// a stale id is correct and reported, not gated.
type corpus struct {
	vocab    []string     // distinct mediated-attribute words the classifier keeps (≥ 3 letters)
	mediated []wireDomain // the domains with a mediated schema
	schemas  int          // distinct member names: the range of a feedback move's schema
	domains  int
}

// wireDomain is the part of a GET /domains entry the suite reads.
type wireDomain struct {
	ID       int      `json:"id"`
	Mediated []string `json:"mediated_schema"`
	Schemas  []struct {
		Name string `json:"name"`
	} `json:"schemas"`
}

func bootstrap(t *testing.T, base string) *corpus {
	t.Helper()
	var domains []wireDomain
	getJSON(t, base+"/domains", &domains)
	c := &corpus{domains: len(domains)}
	seen, members := map[string]bool{}, map[string]bool{}
	for _, d := range domains {
		for _, s := range d.Schemas {
			members[s.Name] = true
		}
		if len(d.Mediated) > 0 {
			c.mediated = append(c.mediated, d)
		}
		for _, a := range d.Mediated {
			for _, w := range strings.Fields(a) {
				if len(w) >= 3 && !seen[w] {
					seen[w] = true
					c.vocab = append(c.vocab, w)
				}
			}
		}
	}
	if len(c.vocab) == 0 {
		t.Fatalf("%s/domains lists no mediated attribute to draw requests from", base)
	}
	c.schemas = len(members)
	return c
}

// request draws one request of kind k: its path and, for a POST, its JSON
// body. name names an ingest's arrival.
func (c *corpus) request(k int, rng *rand.Rand, name string) (string, any) {
	switch k {
	case kindClassify:
		return "/classify?top=3&q=" + url.QueryEscape(c.keywords(rng)), nil
	case kindBatch:
		qs := make([]string, 16)
		for i := range qs {
			qs[i] = c.keywords(rng)
		}
		return "/classify/batch", map[string]any{"queries": qs, "top": 3}
	case kindQuery:
		d := c.mediated[rng.IntN(len(c.mediated))]
		sel := make([]string, 1+rng.IntN(2))
		for i := range sel {
			sel[i] = d.Mediated[rng.IntN(len(d.Mediated))]
		}
		return "/query", map[string]any{"domain": d.ID, "select": sel, "limit": 5}
	case kindIngest:
		perm := rng.Perm(len(c.vocab))
		attrs := make([]string, 0, 7)
		for _, i := range perm[:min(3+rng.IntN(4), len(perm))] {
			attrs = append(attrs, c.vocab[i])
		}
		// One novel term per arrival, so some arrivals are fresh.
		attrs = append(attrs, fmt.Sprintf("field%06d", rng.IntN(1_000_000)))
		return "/schemas", map[string]any{"name": name, "attributes": attrs}
	default:
		move := map[string]int{"schema": rng.IntN(c.schemas), "domain": rng.IntN(c.domains)}
		return "/feedback", map[string]any{"moves": []map[string]int{move}}
	}
}

// keywords draws a 2–4 word classify query.
func (c *corpus) keywords(rng *rand.Rand) string {
	words := make([]string, 2+rng.IntN(3))
	for i := range words {
		words[i] = c.vocab[rng.IntN(len(c.vocab))]
	}
	return strings.Join(words, " ")
}

// runLoad drives base with m for -load-secs and returns what it got back.
// A request under way when the time is up runs to its answer.
func runLoad(t *testing.T, base, name string, m mix) *loadRun {
	t.Helper()
	c := bootstrap(t, base)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*loadSecs*float64(time.Second)))
	defer cancel()
	client := &http.Client{Timeout: 10 * time.Second}
	r := &loadRun{name: name}
	start := time.Now()
	var wg sync.WaitGroup
	for w := range driverWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(driverSeed, uint64(w)))
			tick := time.NewTicker(driverWorkers * time.Second / driverRate)
			defer tick.Stop()
			for seq := 0; ; seq++ {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				k := m.draw(rng)
				arrival := fmt.Sprintf("load-w%d-%d", w, seq)
				path, body := c.request(k, rng, arrival)
				status, took := send(client, base+path, body)
				r.record(k, status, took, arrival)
			}
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	return r
}

// send issues one GET (body nil) or JSON POST and returns the status, 0 on
// a transport error, and how long the answer took.
func send(client *http.Client, u string, body any) (int, time.Duration) {
	start := time.Now()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = client.Get(u)
	} else {
		raw, _ := json.Marshal(body) // strings, ints and slices of them always encode
		resp, err = client.Post(u, "application/json", bytes.NewReader(raw))
	}
	if err != nil {
		return 0, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start)
}

// p99 is the nearest-rank 99th percentile of lat, which it sorts.
func p99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	return lat[(len(lat)*99+99)/100-1]
}

func getJSON(t *testing.T, u string, v any) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", u, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
}
