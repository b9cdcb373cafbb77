package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"schemaflow/internal/classify"
	"schemaflow/internal/httpapi"
	"schemaflow/internal/resilience"
)

const (
	// clientTimeout bounds one backend call.
	clientTimeout = 10 * time.Second
	// requestTimeout bounds each router request including its fan-out.
	requestTimeout = 30 * time.Second
)

// RouterConfig wires a Router to its shard replicas.
type RouterConfig struct {
	// Shards are the shard base URLs, indexed by shard: Shards[i] must be
	// the replica serving the data dir split as shard i (its shard.json
	// Index), or the rendezvous partition and the replicas disagree about
	// ownership.
	Shards []string
	// Logger receives handler panics and the journal's torn-tail report;
	// the router writes no per-request line (its request counts and
	// latencies are the schemaflow_router_* metrics). Nil selects a JSON
	// handler on stderr.
	Logger *slog.Logger
	// JournalDir is where unroutable arrivals are journaled (required —
	// without it a fresh arrival could only be dropped or refused).
	JournalDir string
}

// backend is one shard replica as seen from the router: its base URL and
// a circuit breaker (resilience.DefaultPolicy's threshold, cooldown and
// probes; the router never retries — it prefers a fast degraded answer
// over retrying into a sick shard).
type backend struct {
	index   int
	base    string
	breaker *resilience.Breaker
}

// Router is the scatter-gather front-end of a sharded topology. It speaks
// the same HTTP API as a single payg-server: classification fans out to
// every shard and merges partial log posteriors bit-identically to a
// single node (classify.MergeTop); domain-addressed requests (/query,
// /schema, /explain) proxy to the owning shard; ingestion probes every
// shard and routes the arrival to the winner; feedback broadcasts to all
// shards and demands unanimity. Shard failures degrade answers instead of
// failing them: classification returns the covered subset flagged
// `degraded`, queries return an empty degraded result, arrivals fall back
// to the router's journal — the SLO posture is "partial answer now".
type Router struct {
	client   *http.Client
	backends []*backend
	journal  *ArrivalJournal
	handler  http.Handler
}

// NewRouter builds a router over cfg.Shards. Call Close to release the
// arrival journal.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard URL")
	}
	if cfg.JournalDir == "" {
		return nil, fmt.Errorf("shard: router needs a journal dir for unroutable arrivals")
	}
	journal, err := OpenArrivalJournal(cfg.JournalDir)
	if err != nil {
		return nil, err
	}
	if torn := journal.TornBytes(); torn > 0 {
		cfg.Logger.Warn("arrival journal: dropped a torn tail (the record being written at crash time; it was never acked)",
			slog.Int64("bytes", torn))
	}
	rt := &Router{client: &http.Client{Timeout: clientTimeout}, journal: journal}
	for i, base := range cfg.Shards {
		rt.backends = append(rt.backends, &backend{
			index:   i,
			base:    strings.TrimRight(base, "/"),
			breaker: resilience.DefaultPolicy().NewBreaker(),
		})
	}
	mux := http.NewServeMux()
	handle := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h(w, r)
			mRouterRequests.With(name).Inc()
			mRouterDuration.With(name).Observe(time.Since(start).Seconds())
		})
	}
	handle("GET /healthz", "/healthz", rt.handleHealth)
	handle("GET /metrics", "/metrics", httpapi.Metrics)
	handle("GET /classify", "/classify", rt.handleClassify)
	handle("POST /classify/batch", "/classify/batch", rt.handleClassifyBatch)
	handle("GET /domains", "/domains", rt.handleDomains)
	handle("GET /schema", "/schema", rt.proxyToOwnerByQuery)
	handle("GET /explain", "/explain", rt.proxyToOwnerByQuery)
	handle("POST /query", "/query", rt.handleQuery)
	handle("POST /feedback", "/feedback", rt.handleFeedback)
	handle("POST /schemas", "/schemas", rt.handleIngest)
	handle("POST /admin/recluster", "/admin/recluster", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteError(w, http.StatusNotImplemented,
			"recluster is a topology-wide operation: rebuild a single-node checkpoint and re-split it (see docs/OPERATIONS.md)")
	})
	rt.handler = httpapi.Recover(cfg.Logger, httpapi.Timeout(requestTimeout, mux))
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

// Close releases the arrival journal.
func (rt *Router) Close() error { return rt.journal.Close() }

// callResult is one shard's answer to a fan-out call.
type callResult struct {
	index  int
	status int
	body   []byte
	header http.Header
	err    error
}

// failed reports whether the call yielded no usable answer.
func (c callResult) failed() bool { return c.err != nil }

// call performs one breaker-guarded backend request and reads the full
// response body. Transport errors and 5xx statuses count as breaker
// failures; everything else (including 4xx, which is the caller's fault,
// not the shard's) counts as success.
func (rt *Router) call(ctx context.Context, b *backend, method, pathAndQuery string, body []byte) callResult {
	res := callResult{index: b.index}
	if !b.breaker.Allow() {
		mRouterShardSkipped.With(strconv.Itoa(b.index)).Inc()
		mRouterShardUp.With(strconv.Itoa(b.index)).Set(0)
		res.err = fmt.Errorf("shard %d: circuit breaker open", b.index)
		return res
	}
	mRouterShardCalls.With(strconv.Itoa(b.index)).Inc()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+pathAndQuery, rd)
	if err != nil {
		res.err = fmt.Errorf("shard %d: %w", b.index, err)
		return res
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.observeFailure(b)
		res.err = fmt.Errorf("shard %d: %w", b.index, err)
		return res
	}
	defer resp.Body.Close()
	p, err := io.ReadAll(io.LimitReader(resp.Body, httpapi.MaxBodyBytes+1))
	if err != nil {
		rt.observeFailure(b)
		res.err = fmt.Errorf("shard %d: reading response: %w", b.index, err)
		return res
	}
	if len(p) > httpapi.MaxBodyBytes {
		rt.observeFailure(b)
		res.err = fmt.Errorf("shard %d: response exceeds %d bytes", b.index, httpapi.MaxBodyBytes)
		return res
	}
	if resp.StatusCode >= 500 {
		rt.observeFailure(b)
		res.err = fmt.Errorf("shard %d: status %s", b.index, resp.Status)
		return res
	}
	b.breaker.Success()
	mRouterShardUp.With(strconv.Itoa(b.index)).Set(1)
	res.status = resp.StatusCode
	res.body = p
	res.header = resp.Header
	return res
}

func (rt *Router) observeFailure(b *backend) {
	b.breaker.Failure()
	mRouterShardErrors.With(strconv.Itoa(b.index)).Inc()
	mRouterShardUp.With(strconv.Itoa(b.index)).Set(0)
}

// scatter fans one request out to every shard concurrently and collects
// the answers indexed by shard.
func (rt *Router) scatter(ctx context.Context, method, pathAndQuery string, body []byte) []callResult {
	out := make([]callResult, len(rt.backends))
	var wg sync.WaitGroup
	for i, b := range rt.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			out[i] = rt.call(ctx, b, method, pathAndQuery, body)
		}(i, b)
	}
	wg.Wait()
	return out
}

// noteGeneration records a shard's reported serving generation.
func noteGeneration(index, gen int) {
	mRouterShardGeneration.With(strconv.Itoa(index)).Set(float64(gen))
}

// failureJSON is one unavailable shard in a degraded report.
type failureJSON struct {
	Shard int    `json:"shard"`
	Error string `json:"error"`
}

// degradedJSON flags a partial answer: which shards contributed nothing
// and how much of the domain space the answer therefore covers.
type degradedJSON struct {
	Failed         []failureJSON `json:"failed"`
	CoveredDomains int           `json:"covered_domains"`
	TotalDomains   int           `json:"total_domains"`
}

func degradedReport(results []callResult, covered, total int) *degradedJSON {
	d := &degradedJSON{CoveredDomains: covered, TotalDomains: total}
	for _, res := range results {
		if res.failed() {
			d.Failed = append(d.Failed, failureJSON{Shard: res.index, Error: res.err.Error()})
		}
	}
	return d
}

// gatherClassify is the newest-generation gather: it decodes each shard's
// answer to an n-query fan-out (decodeSingle or decodeBatch), keeps only
// the newest-generation group (a shard mid-swap must not be merged with
// the rest — its log posteriors come from a different model), and returns
// the survivors indexed by shard, how many there are, and the total domain
// count. A dropped shard's slot is nil and results[i].err says why.
func (rt *Router) gatherClassify(results []callResult, n int, decode func(body []byte) (*BatchPartial, error)) (batches []*BatchPartial, alive, total int, err error) {
	batches = make([]*BatchPartial, len(results))
	maxGen := -1
	for i := range results {
		if results[i].failed() {
			continue
		}
		p, e := decode(results[i].body)
		if e == nil && len(p.Results) != n {
			e = fmt.Errorf("%d results for %d queries", len(p.Results), n)
		}
		if e != nil {
			rt.observeFailure(rt.backends[i])
			results[i].err = fmt.Errorf("shard %d: %w", i, e)
			continue
		}
		batches[i] = p
		noteGeneration(i, p.Generation)
		if p.Generation > maxGen {
			maxGen = p.Generation
		}
	}
	for i, p := range batches {
		if p == nil {
			continue
		}
		if p.Generation != maxGen {
			results[i].err = fmt.Errorf("shard %d: stale generation %d (newest %d)", i, p.Generation, maxGen)
			batches[i] = nil
			continue
		}
		if alive > 0 && p.TotalDomains != total {
			return nil, 0, 0, fmt.Errorf("shards disagree on domain count (%d vs %d); topology misconfigured", p.TotalDomains, total)
		}
		total = p.TotalDomains
		alive++
	}
	return batches, alive, total, nil
}

// decodeSingle adapts a /shard/classify answer to the gather's batch form.
func decodeSingle(body []byte) (*BatchPartial, error) {
	var p ClassifyPartial
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("decoding partial: %w", err)
	}
	return &BatchPartial{Generation: p.Generation, TotalDomains: p.TotalDomains, Results: [][]PartialScore{p.Scores}}, nil
}

// decodeBatch decodes a /shard/classify/batch answer.
func decodeBatch(body []byte) (*BatchPartial, error) {
	var p BatchPartial
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("decoding batch partial: %w", err)
	}
	return &p, nil
}

// mergeRanking turns one query's partial lists (indexed by shard, empty
// where the shard contributed nothing) into the top domains of the final
// ranking in wire form, checking that no domain is claimed by two shards.
func mergeRanking(partials [][]PartialScore, top int) ([]httpapi.Score, int, error) {
	var lists [][]classify.Score
	mediated := make(map[int][]string)
	seen := make(map[int]int)
	covered := 0
	for i, ps := range partials {
		for _, s := range ps {
			if prev, dup := seen[s.Domain]; dup {
				return nil, 0, fmt.Errorf("domain %d claimed by shards %d and %d; topology misconfigured", s.Domain, prev, i)
			}
			seen[s.Domain] = i
			if s.Mediated != nil {
				mediated[s.Domain] = s.Mediated
			}
		}
		covered += len(ps)
		lists = append(lists, WireScores(ps))
	}
	merged := classify.MergeTop(lists, top)
	out := make([]httpapi.Score, 0, len(merged))
	for _, sc := range merged {
		out = append(out, httpapi.Score{Domain: sc.Domain, Posterior: sc.Posterior, Mediated: mediated[sc.Domain]})
	}
	return out, covered, nil
}

// gatherRankings is the read path /classify and /classify/batch share: gather
// the n-query fan-out's newest generation and merge each query's ranking.
// degraded is nil under full coverage. On failure it has answered 502 and
// ok is false.
func (rt *Router) gatherRankings(w http.ResponseWriter, results []callResult, n, top int, decode func([]byte) (*BatchPartial, error)) (rankings [][]httpapi.Score, degraded *degradedJSON, ok bool) {
	fail := func(msg string) ([][]httpapi.Score, *degradedJSON, bool) {
		httpapi.WriteError(w, http.StatusBadGateway, msg)
		return nil, nil, false
	}
	batches, alive, total, err := rt.gatherClassify(results, n, decode)
	if err != nil {
		return fail(err.Error())
	}
	if alive == 0 {
		return fail("no shard answered: " + joinErrors(results))
	}
	rankings = make([][]httpapi.Score, n)
	covered := 0
	for qi := range rankings {
		partials := make([][]PartialScore, len(batches))
		for i, p := range batches {
			if p != nil {
				partials[i] = p.Results[qi]
			}
		}
		if rankings[qi], covered, err = mergeRanking(partials, top); err != nil {
			return fail(err.Error())
		}
	}
	if alive < len(rt.backends) {
		mRouterDegraded.Inc()
		degraded = degradedReport(results, covered, total)
	}
	return rankings, degraded, true
}

func (rt *Router) handleClassify(w http.ResponseWriter, r *http.Request) {
	q, top, err := httpapi.ParseClassify(r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	path := "/shard/classify?q=" + url.QueryEscape(q) + "&top=" + strconv.Itoa(top)
	results := rt.scatter(r.Context(), http.MethodGet, path, nil)
	rankings, degraded, ok := rt.gatherRankings(w, results, 1, top, decodeSingle)
	if !ok {
		return
	}
	if degraded == nil {
		// Full coverage: answer exactly as a single node would.
		httpapi.WriteJSON(w, http.StatusOK, rankings[0])
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"results": rankings[0], "degraded": degraded})
}

func (rt *Router) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	req, err := httpapi.DecodeBatch(w, r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	results := rt.scatter(r.Context(), http.MethodPost, "/shard/classify/batch", body)
	rankings, degraded, ok := rt.gatherRankings(w, results, len(req.Queries), req.Top, decodeBatch)
	if !ok {
		return
	}
	resp := map[string]any{"results": rankings}
	if degraded != nil {
		resp["degraded"] = degraded
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleDomains(w http.ResponseWriter, r *http.Request) {
	results := rt.scatter(r.Context(), http.MethodGet, "/domains", nil)
	// Each shard lists only the domains it owns, so the union over healthy
	// shards is the whole catalog, each entry from its owner. The
	// owner-preference below only matters for unsharded backends (a 1-node
	// "topology" fronting a full server), where every shard lists
	// everything.
	byID := make(map[int]httpapi.Domain)
	alive := 0
	for i := range results {
		if results[i].failed() {
			continue
		}
		var list []httpapi.Domain
		if err := json.Unmarshal(results[i].body, &list); err != nil {
			rt.observeFailure(rt.backends[i])
			results[i].err = fmt.Errorf("shard %d: decoding domains: %w", i, err)
			continue
		}
		alive++
		for _, d := range list {
			prev, have := byID[d.ID]
			if !have || (d.Mediated != nil && prev.Mediated == nil) || Owner(d.ID, len(rt.backends)) == i {
				byID[d.ID] = d
			}
		}
	}
	if alive == 0 {
		httpapi.WriteError(w, http.StatusBadGateway, "no shard answered: "+joinErrors(results))
		return
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []httpapi.Domain
	for _, id := range ids {
		out = append(out, byID[id])
	}
	if alive == len(rt.backends) {
		httpapi.WriteJSON(w, http.StatusOK, out)
		return
	}
	mRouterDegraded.Inc()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"results":  out,
		"degraded": degradedReport(results, len(out), len(out)),
	})
}

// proxyToOwnerByQuery forwards a domain-addressed GET (/schema, /explain)
// to the shard owning the ?domain= parameter.
func (rt *Router) proxyToOwnerByQuery(w http.ResponseWriter, r *http.Request) {
	domain, err := strconv.Atoi(r.URL.Query().Get("domain"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "bad domain parameter")
		return
	}
	b := rt.backends[Owner(domain, len(rt.backends))]
	res := rt.call(r.Context(), b, http.MethodGet, r.URL.Path+"?"+r.URL.RawQuery, nil)
	if res.failed() {
		httpapi.WriteError(w, http.StatusBadGateway, res.err.Error())
		return
	}
	copyResponse(w, res)
}

// queryRequest extracts the one field the router needs; the body is
// forwarded verbatim, so the shard still enforces full validation.
type queryRequest struct {
	Domain int `json:"domain"`
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, httpapi.MaxBodyBytes))
	if err != nil {
		httpapi.BadRequest(w, httpapi.BadBody(err))
		return
	}
	var req queryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpapi.BadRequest(w, httpapi.BadBody(err))
		return
	}
	b := rt.backends[Owner(req.Domain, len(rt.backends))]
	res := rt.call(r.Context(), b, http.MethodPost, "/query", body)
	if res.failed() {
		// The owning shard is out: answer the query degraded — zero tuples
		// plus the failure report — rather than turning one shard outage
		// into a hard error for every query touching its domains.
		mRouterDegraded.Inc()
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"tuples": []any{},
			"degraded": map[string]any{
				"failed":  []failureJSON{{Shard: b.index, Error: res.err.Error()}},
				"skipped": 1,
			},
		})
		return
	}
	copyResponse(w, res)
}

func (rt *Router) handleFeedback(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, httpapi.MaxBodyBytes))
	if err != nil {
		httpapi.BadRequest(w, httpapi.BadBody(err))
		return
	}
	// Feedback must land on every shard or on none that matters: each
	// shard applies the same deterministic correction to its full model,
	// so unanimous success keeps the replicas convergent. A partial apply
	// is a divergence — surface it loudly instead of pretending.
	results := rt.scatter(r.Context(), http.MethodPost, "/feedback", body)
	var firstOK *callResult
	okCount := 0
	for i := range results {
		if results[i].failed() {
			continue
		}
		if results[i].status == http.StatusOK {
			okCount++
			if firstOK == nil {
				firstOK = &results[i]
			}
		} else if firstOK == nil {
			// Uniform client error (bad feedback): forward the first shard's
			// verdict — every shard validates identically.
			copyResponse(w, results[i])
			return
		}
	}
	if okCount == len(rt.backends) {
		copyResponse(w, *firstOK)
		return
	}
	if okCount == 0 {
		httpapi.WriteError(w, http.StatusBadGateway, "no shard applied feedback: "+joinErrors(results))
		return
	}
	httpapi.WriteJSON(w, http.StatusBadGateway, map[string]any{
		"error":     fmt.Sprintf("feedback applied on %d/%d shards; replicas have diverged — restore the topology from a re-split checkpoint (see docs/OPERATIONS.md)", okCount, len(rt.backends)),
		"diverged":  true,
		"applied":   okCount,
		"shards":    len(rt.backends),
		"divergent": degradedReport(results, 0, 0).Failed,
	})
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	req, err := httpapi.DecodeSchema(w, r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	results := rt.scatter(r.Context(), http.MethodPost, "/shard/assign", body)
	alive, allFresh := 0, true
	bestShard, bestSim := -1, -1.0
	for i := range results {
		if results[i].failed() {
			continue
		}
		if results[i].status != http.StatusOK {
			// A probe rejecting the schema (422/400) is a client error every
			// shard agrees on; forward it.
			copyResponse(w, results[i])
			return
		}
		var p AssignProbe
		if e := json.Unmarshal(results[i].body, &p); e != nil {
			rt.observeFailure(rt.backends[i])
			results[i].err = fmt.Errorf("shard %d: decoding probe: %w", i, e)
			continue
		}
		noteGeneration(i, p.Generation)
		alive++
		if !p.Fresh {
			allFresh = false
		}
		if p.BestSim > bestSim {
			bestSim, bestShard = p.BestSim, i
		}
	}
	if alive == 0 {
		httpapi.WriteError(w, http.StatusBadGateway, "no shard answered the assignment probe: "+joinErrors(results))
		return
	}
	journalAck := func(reason string, degraded bool) {
		if err := rt.journal.Append(UnroutableArrival{Name: req.Name, Attributes: req.Attributes, Reason: reason}); err != nil {
			// The journal is the ack's durability; if it fails, the arrival
			// must be refused, not silently dropped.
			httpapi.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		mRouterUnroutable.Inc()
		resp := map[string]any{
			"schema":           req.Name,
			"domains":          []any{},
			"best_sim":         bestSim,
			"fresh":            reason == "fresh",
			"pending_rebuild":  rt.journal.Len(),
			"router_journaled": true,
		}
		if degraded {
			mRouterDegraded.Inc()
			resp["degraded"] = degradedReport(results, 0, 0)
		}
		httpapi.WriteJSON(w, http.StatusAccepted, resp)
	}
	if alive < len(rt.backends) {
		// Partial probe coverage: the true best domain may live on a dead
		// shard, so routing now could assign the schema to the wrong place
		// forever. Journal at the router instead — the ack stays durable and
		// nothing is lost, just deferred until the topology heals.
		journalAck("shard-unavailable", true)
		return
	}
	if allFresh {
		// Globally fresh (no shard's domains claimed it — the probes cover
		// every domain, so this equals the single-node fresh verdict). A
		// fresh schema seeds a new domain at the next topology-wide
		// recluster; park it at the router.
		journalAck("fresh", false)
		return
	}
	// The winner shard owns the globally most similar domain; its real
	// ingest (full model, local WAL, local journal) acks the arrival.
	res := rt.call(r.Context(), rt.backends[bestShard], http.MethodPost, "/schemas", body)
	if res.failed() {
		// The winner died between probe and ingest: fall back to the
		// router journal so the ack is still durable.
		journalAck("shard-unavailable", true)
		return
	}
	copyResponse(w, res)
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	results := rt.scatter(r.Context(), http.MethodGet, "/healthz", nil)
	shards := make(map[string]any, len(results))
	alive := 0
	pending := rt.journal.Len()
	schemas, domains, maxGen := 0, 0, -1
	for i := range results {
		key := strconv.Itoa(i)
		if results[i].failed() {
			shards[key] = map[string]any{"status": "unreachable", "error": results[i].err.Error()}
			continue
		}
		var h map[string]any
		if err := json.Unmarshal(results[i].body, &h); err != nil {
			shards[key] = map[string]any{"status": "unreachable", "error": "bad healthz payload"}
			continue
		}
		alive++
		shards[key] = h
		if v, ok := h["pending_schemas"].(float64); ok {
			pending += int(v)
		}
		if v, ok := h["schemas"].(float64); ok {
			schemas = int(v)
		}
		if v, ok := h["domains"].(float64); ok {
			domains = int(v)
		}
		if v, ok := h["generation"].(float64); ok {
			noteGeneration(i, int(v))
			if int(v) > maxGen {
				maxGen = int(v)
			}
		}
	}
	status := "ok"
	if alive < len(rt.backends) {
		status = "degraded"
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status":          status,
		"router":          true,
		"shards":          shards,
		"shards_total":    len(rt.backends),
		"shards_alive":    alive,
		"schemas":         schemas,
		"domains":         domains,
		"pending_schemas": pending,
		"generation":      maxGen,
		"router_journal":  rt.journal.Len(),
	})
}

// copyResponse relays a backend answer (status, content type, body)
// verbatim.
func copyResponse(w http.ResponseWriter, res callResult) {
	ct := "application/json"
	if res.header != nil {
		if c := res.header.Get("Content-Type"); c != "" {
			ct = c
		}
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck
}

func joinErrors(results []callResult) string {
	var parts []string
	for _, res := range results {
		if res.failed() {
			parts = append(parts, res.err.Error())
		}
	}
	return strings.Join(parts, "; ")
}
