// Package server exposes a built pay-as-you-go integration system over
// HTTP — the search-engine use case of the thesis' architecture (Figure
// 3.1): a keyword query comes in, the classifier ranks domains, the caller
// retrieves the winning domain's mediated schema as a structured query
// interface, and finally poses a structured query that returns
// probability-ranked tuples.
//
// Endpoints (all JSON):
//
//	GET  /domains                 list domains with members and mediated schemas
//	GET  /classify?q=...&top=k    rank domains for a keyword query
//	POST /classify/batch          {"queries": [...], "top": k} — many queries, one call
//	GET  /explain?q=...&domain=r  per-term score breakdown for one domain
//	GET  /schema?domain=r         one domain's mediated schema
//	POST /query                   {"domain": r, "select": [...], "where": {...}, "limit": k}
//	POST /feedback                {"moves": [...], "merges": [...], "splits": [...]}
//	POST /schemas                 {"name": "...", "attributes": [...]} — online ingestion
//	POST /admin/recluster         force a full recluster over serving + pending schemas
//	GET  /admin/snapshot          stream the serving state (generation in X-Schemaflow-Generation;
//	                              ?after=N answers 304 until the generation passes N)
//	GET  /healthz                 liveness + ingestion status + generation + breaker states
//	GET  /metrics                 metrics registry (Prometheus text; JSON on Accept/?format=json)
//	     /debug/pprof/*           runtime profiles (only with Config.EnablePprof)
//
// Every request carries an X-Request-ID and is logged as one structured
// line (request id, route, status, duration, degraded flag) through
// Config.Logger; per-route request counts and latency histograms land in
// the metrics registry served by GET /metrics (see docs/METRICS.md and
// docs/OPERATIONS.md).
//
// POST /feedback applies explicit user corrections and atomically swaps in
// the rebuilt system — the live pay-as-you-go loop. Domain ids may change
// across a feedback application; the response carries the id mapping.
//
// Classification (GET /classify and POST /classify/batch) selects the top
// k domains without ranking the rest and is answered through the manager's
// generation-keyed result cache, keyed by term set and k: repeated keyword
// queries skip the classifier entirely, and every atomic swap (feedback or
// recluster) invalidates the whole cache by construction, so responses are
// always computed against the current serving generation.
//
// POST /schemas is the online half of pay-as-you-go: the new schema is
// assigned to current domains immediately (returned as domain
// probabilities), journaled, and folded into the serving model by the next
// drift-triggered, interval, or forced recluster — all without blocking
// classify/query traffic, which keeps reading the previous generation
// until the rebuilt one is atomically swapped in.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"schemaflow/internal/engine"
	"schemaflow/internal/httpapi"
	"schemaflow/payg"
)

// requestTimeout bounds each request's context.
const requestTimeout = 30 * time.Second

// Config tunes the server's robustness envelope. The zero value of every
// field selects a sensible default.
type Config struct {
	// Sources supplies one TupleSource per input schema (aligned with the
	// system's build order). Nil means /query answers 503; classification
	// and schema browsing still work — the system never needs data.
	Sources []payg.TupleSource
	// DriftThreshold is the fresh-arrival fraction that triggers a
	// background recluster (payg.ManagerOptions.DriftThreshold: 0 means
	// the default 0.5, negative disables drift-triggered rebuilds).
	DriftThreshold float64
	// Logger receives one structured line per request plus server
	// lifecycle events. Nil selects a JSON handler on stderr.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and cost CPU, so an operator opts
	// in (payg-server's -pprof flag).
	EnablePprof bool
	// QueryCacheSize bounds the manager's generation-keyed classification
	// result cache (payg.ManagerOptions.QueryCacheSize: 0 means the default
	// 1024, negative disables caching).
	QueryCacheSize int
	// ReadOnly rejects every state-mutating endpoint (POST /schemas,
	// /feedback, /admin/recluster) with 403 — the follower serving mode,
	// where state arrives only by snapshot shipping.
	ReadOnly bool
}

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return c
}

// Server wires a built System (and optionally its data sources) to an
// http.Handler. It is safe for concurrent use: a payg.Manager owns the
// serving state, and both the feedback endpoint and the online ingestion
// pipeline replace it by copy-on-write atomic swap, so reads never block
// on a rebuild. Every request runs under panic recovery and a request
// timeout, and POST bodies are size-capped.
type Server struct {
	mgr *payg.Manager

	cfg     Config
	handler http.Handler

	// epoch identifies this server incarnation for snapshot polling; see
	// epochHeader.
	epoch string
}

// NewWithConfig builds a non-durable manager over sys and cfg's sources,
// drift threshold and cache size, under payg.DefaultPolicy, and wires it to
// the handler. A node that needs more of payg.ManagerOptions (a resilience
// policy, a data dir, interval rebuilds, sources for arrivals) builds its
// manager itself and calls NewWithManager.
func NewWithConfig(sys *payg.System, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	mgr, err := payg.NewManager(sys, cfg.Sources, payg.ManagerOptions{
		DriftThreshold: cfg.DriftThreshold,
		QueryCacheSize: cfg.QueryCacheSize,
		Logf: func(format string, args ...any) {
			cfg.Logger.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return nil, err
	}
	return NewWithManager(mgr, cfg), nil
}

// NewWithManager wires an already-constructed manager — built by
// payg.NewManager, recovered from a data dir (payg.LoadManagerDir) or
// bootstrapped for follower mode (payg.LoadManagerAt) — to the HTTP
// handler. The manager's own options apply; the Config fields that would
// construct a new manager (Sources, DriftThreshold, QueryCacheSize) are
// ignored.
func NewWithManager(mgr *payg.Manager, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{mgr: mgr, cfg: cfg, epoch: newRequestID()}
	// mutating wraps a handler with the read-only guard: follower
	// replicas answer every read but refuse writes, which belong on the
	// leader.
	mutating := func(h http.HandlerFunc) http.HandlerFunc {
		if !cfg.ReadOnly {
			return h
		}
		return func(w http.ResponseWriter, r *http.Request) {
			httpapi.WriteError(w, http.StatusForbidden, "read-only follower: send writes to the leader")
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", route("/healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", route("/metrics", httpapi.Metrics))
	mux.HandleFunc("GET /domains", route("/domains", s.handleDomains))
	mux.HandleFunc("GET /classify", route("/classify", s.handleClassify))
	mux.HandleFunc("POST /classify/batch", route("/classify/batch", s.handleClassifyBatch))
	mux.HandleFunc("GET /explain", route("/explain", s.handleExplain))
	mux.HandleFunc("GET /schema", route("/schema", s.handleSchema))
	mux.HandleFunc("POST /query", route("/query", s.handleQuery))
	mux.HandleFunc("POST /feedback", route("/feedback", mutating(s.handleFeedback)))
	mux.HandleFunc("POST /schemas", route("/schemas", mutating(s.handleIngest)))
	mux.HandleFunc("POST /admin/recluster", route("/admin/recluster", mutating(s.handleRecluster)))
	mux.HandleFunc("GET /admin/snapshot", route("/admin/snapshot", s.handleSnapshot))
	s.registerShardRoutes(mux)
	if cfg.EnablePprof {
		// No method prefix: pprof.Symbol accepts GET and POST. The request
		// timeout exempts this subtree so long CPU/trace profiles survive.
		mux.HandleFunc("/debug/pprof/", route("/debug/pprof", pprof.Index))
		mux.HandleFunc("/debug/pprof/cmdline", route("/debug/pprof", pprof.Cmdline))
		mux.HandleFunc("/debug/pprof/profile", route("/debug/pprof", pprof.Profile))
		mux.HandleFunc("/debug/pprof/symbol", route("/debug/pprof", pprof.Symbol))
		mux.HandleFunc("/debug/pprof/trace", route("/debug/pprof", pprof.Trace))
	}
	s.handler = withObserve(cfg.Logger, httpapi.Recover(cfg.Logger, httpapi.Timeout(requestTimeout, mux)))
	return s
}

// Manager exposes the ingestion manager (snapshotting, programmatic
// ingestion).
func (s *Server) Manager() *payg.Manager { return s.mgr }

// Close stops the manager's background work (interval loop, in-flight
// rebuild). The handler keeps answering reads.
func (s *Server) Close() { s.mgr.Close() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Status()
	resp := map[string]any{
		"status":          "ok",
		"schemas":         st.Schemas,
		"domains":         st.Domains,
		"rebuilding":      st.Rebuilding,
		"pending_schemas": st.Pending,
		"generation":      st.Generation,
	}
	if s.cfg.ReadOnly {
		resp["read_only"] = true
	}
	// Executor health: the breaker state of every source that can fail,
	// so an operator sees a degraded source here before queries start
	// returning degraded answers. Empty when every source is in memory;
	// absent when the server runs without data sources.
	if states := s.mgr.BreakerStates(); states != nil {
		sources := make(map[string]string, len(states))
		open := 0
		for name, bs := range states {
			sources[name] = bs.String()
			if bs == payg.BreakerOpen {
				open++
			}
		}
		resp["sources"] = sources
		resp["breakers_open"] = open
		if open > 0 {
			resp["status"] = "degraded"
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	var out []httpapi.Domain
	for _, d := range s.mgr.System().Domains() {
		dj := httpapi.Domain{ID: d.ID, Unclustered: d.Unclustered, Mediated: d.MediatedAttributes}
		for _, m := range d.Schemas {
			dj.Schemas = append(dj.Schemas, httpapi.Member{Name: m.Name, Prob: m.Prob})
		}
		out = append(out, dj)
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	q, top, err := httpapi.ParseClassify(r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	// The manager's generation-keyed cache answers repeated queries without
	// running the classifier; results are identical to System().ClassifyTop,
	// which selects the top domains without ranking the rest.
	v := s.mgr.View()
	httpapi.WriteJSON(w, http.StatusOK, scoresJSON(v.System(), v.ClassifyTop(strings.Fields(q), top)))
}

// scoresJSON converts a ranking computed on sys to wire form, decorated
// with each domain's mediated schema when available.
func scoresJSON(sys *payg.System, scores []payg.Score) []httpapi.Score {
	out := make([]httpapi.Score, 0, len(scores))
	for _, sc := range scores {
		sj := httpapi.Score{Domain: sc.Domain, Posterior: sc.Posterior}
		if attrs, err := sys.MediatedAttributes(sc.Domain); err == nil {
			sj.Mediated = attrs
		}
		out = append(out, sj)
	}
	return out
}

func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	req, err := httpapi.DecodeBatch(w, r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	v := s.mgr.View()
	rankings := v.ClassifyBatch(req.Queries, req.Top)
	results := make([][]httpapi.Score, len(rankings))
	for i, scores := range rankings {
		results[i] = scoresJSON(v.System(), scores)
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"results": results})
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	domain, err := strconv.Atoi(r.URL.Query().Get("domain"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "bad domain parameter")
		return
	}
	attrs, err := s.mgr.System().MediatedAttributes(domain)
	if err != nil {
		httpapi.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"domain": domain, "mediated_schema": attrs})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, err := httpapi.QueryParam(r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	domain, err := strconv.Atoi(r.URL.Query().Get("domain"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "bad domain parameter")
		return
	}
	ex, err := s.mgr.System().Explain(q, domain)
	if err != nil {
		httpapi.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	type termJSON struct {
		Term  string  `json:"term"`
		Delta float64 `json:"delta"`
	}
	terms := make([]termJSON, 0, len(ex.Terms))
	for _, t := range ex.Terms {
		terms = append(terms, termJSON{Term: t.Term, Delta: t.Delta})
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"domain":    ex.Domain,
		"log_prior": ex.LogPrior,
		"baseline":  ex.Baseline,
		"terms":     terms,
		"total":     ex.Score(),
	})
}

// feedbackRequest is the /feedback body.
type feedbackRequest struct {
	Moves []struct {
		Schema int `json:"schema"`
		Domain int `json:"domain"`
	} `json:"moves"`
	Merges [][2]int `json:"merges"`
	Splits []int    `json:"splits"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	if err := httpapi.DecodeStrict(w, r, &req); err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	fb := payg.Feedback{Merges: req.Merges, Splits: req.Splits}
	for _, mv := range req.Moves {
		fb.Moves = append(fb.Moves, payg.Move{Schema: mv.Schema, Domain: mv.Domain})
	}
	if len(fb.Moves)+len(fb.Merges)+len(fb.Splits) == 0 {
		httpapi.WriteError(w, http.StatusBadRequest, "empty feedback")
		return
	}
	// The manager serializes feedback against rebuild publication and
	// swaps the corrected system (with a rebound executor whose breaker
	// state carries over) in atomically.
	res, err := s.mgr.ApplyFeedback(fb)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"domains":       res.System.NumDomains(),
		"domain_map":    res.DomainMap,
		"new_domain_of": res.NewDomainOf,
	})
}

// domainProbJSON is one (domain, probability) entry of an assignment.
type domainProbJSON struct {
	Domain int     `json:"domain"`
	Prob   float64 `json:"prob"`
}

// ingestResponse reports the immediate assignment and the pipeline state.
type ingestResponse struct {
	Schema           string           `json:"schema"`
	Domains          []domainProbJSON `json:"domains"`
	BestSim          float64          `json:"best_sim"`
	Fresh            bool             `json:"fresh"`
	PendingRebuild   int              `json:"pending_rebuild"`
	RebuildTriggered bool             `json:"rebuild_triggered"`
	Rebuilding       bool             `json:"rebuilding"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	req, err := httpapi.DecodeSchema(w, r)
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	res, err := s.mgr.Ingest(payg.Schema{Name: req.Name, Attributes: req.Attributes})
	if err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	out := ingestResponse{
		Schema:           req.Name,
		Domains:          make([]domainProbJSON, 0, len(res.Assignment.Domains)),
		BestSim:          res.Assignment.BestSim,
		Fresh:            res.Assignment.Fresh,
		PendingRebuild:   res.Pending,
		RebuildTriggered: res.RebuildTriggered,
		Rebuilding:       res.Rebuilding,
	}
	for _, d := range res.Assignment.Domains {
		out.Domains = append(out.Domains, domainProbJSON{Domain: d.Domain, Prob: d.Prob})
	}
	httpapi.WriteJSON(w, http.StatusAccepted, out)
}

// generationHeader carries the serving generation a snapshot was taken
// at; followers publish the downloaded state at exactly this generation.
const generationHeader = "X-Schemaflow-Generation"

// epochHeader identifies one leader incarnation: a random id minted when
// the server starts. Generations alone cannot distinguish "nothing new"
// from "different leader history at the same number" — a leader restarted
// on a wiped data dir counts from 0 again, and a follower comparing only
// generations would either stall (old condition: leader <= follower) or
// false-304 at an equal number. Followers echo the epoch back in ?epoch=;
// a mismatch forces a full snapshot regardless of the generation.
const epochHeader = "X-Schemaflow-Epoch"

// handleSnapshot streams the current serving state (system + pending
// journal) in Manager.Save format, stamped with its generation and the
// server's epoch. A follower that already holds generation N polls with
// ?after=N&epoch=E and gets 304 Not Modified only while the leader is at
// exactly generation N in the same epoch — one cheap request per poll
// instead of a full download. Equality (not <=) is what lets a follower
// that outlived a leader restarted at a lower generation reconverge: the
// lower generation is not "already seen", it is a different state.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if after := r.URL.Query().Get("after"); after != "" {
		gen, err := strconv.Atoi(after)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, "bad after parameter")
			return
		}
		epoch := r.URL.Query().Get("epoch")
		sameEpoch := epoch == "" || epoch == s.epoch
		if sameEpoch && s.mgr.Generation() == gen {
			w.Header().Set(generationHeader, strconv.Itoa(s.mgr.Generation()))
			w.Header().Set(epochHeader, s.epoch)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	// Serialization is buffered under the swap lock, so a slow download
	// never blocks ingests or swaps.
	snap, gen, err := s.mgr.SnapshotBytes()
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	mSnapshotsServed.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(snap)))
	w.Header().Set(generationHeader, strconv.Itoa(gen))
	w.Header().Set(epochHeader, s.epoch)
	if _, err := w.Write(snap); err != nil {
		s.cfg.Logger.Warn("streaming snapshot", slog.Any("error", err))
	}
}

func (s *Server) handleRecluster(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Recluster(r.Context()); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			httpapi.WriteError(w, http.StatusGatewayTimeout, "recluster timed out")
			return
		}
		httpapi.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	st := s.mgr.Status()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"schemas":         st.Schemas,
		"domains":         st.Domains,
		"pending_schemas": st.Pending,
		"rebuilds":        st.Rebuilds,
	})
}

// queryRequest is the /query body.
type queryRequest struct {
	Domain int               `json:"domain"`
	Select []string          `json:"select"`
	Where  map[string]string `json:"where"`
	Limit  int               `json:"limit"`
}

// tupleJSON is one result tuple.
type tupleJSON struct {
	Values  []string `json:"values"`
	Prob    float64  `json:"prob"`
	Sources []string `json:"sources"`
}

// sourceFailureJSON is one failed source in a degraded report.
type sourceFailureJSON struct {
	Source  string `json:"source"`
	Error   string `json:"error"`
	Skipped bool   `json:"skipped,omitempty"`
}

// degradedJSON reports the sources that contributed nothing to a query:
// which failed and why, and how many were skipped outright by an open
// circuit breaker.
type degradedJSON struct {
	Failed  []sourceFailureJSON `json:"failed"`
	Skipped int                 `json:"skipped"`
}

// queryResponse is the /query reply: consolidated tuples plus, when some
// sources failed, the degraded report.
type queryResponse struct {
	Tuples   []tupleJSON   `json:"tuples"`
	Degraded *degradedJSON `json:"degraded,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	exec := s.mgr.Executor()
	if exec == nil {
		httpapi.WriteError(w, http.StatusServiceUnavailable, "no data sources attached")
		return
	}
	var req queryRequest
	if err := httpapi.DecodeStrict(w, r, &req); err != nil {
		httpapi.BadRequest(w, err)
		return
	}
	if len(req.Select) == 0 {
		httpapi.WriteError(w, http.StatusBadRequest, "empty select list")
		return
	}
	if req.Limit < 0 {
		httpapi.WriteError(w, http.StatusBadRequest, "negative limit")
		return
	}
	res, err := exec.Execute(r.Context(), req.Domain,
		engine.Query{Select: req.Select, Where: req.Where, Limit: req.Limit})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			httpapi.WriteError(w, http.StatusGatewayTimeout, "query timed out")
			return
		}
		httpapi.BadRequest(w, err)
		return
	}
	out := queryResponse{Tuples: make([]tupleJSON, 0, len(res.Tuples))}
	for _, t := range res.Tuples {
		out.Tuples = append(out.Tuples, tupleJSON{Values: t.Values, Prob: t.Prob, Sources: t.Sources})
	}
	mQueries.Inc()
	if res.Degraded() {
		mQueriesDegraded.Inc()
		if m := metaFrom(r.Context()); m != nil {
			m.degraded = true
		}
		d := &degradedJSON{Failed: make([]sourceFailureJSON, 0, len(res.Failures))}
		for _, f := range res.Failures {
			d.Failed = append(d.Failed, sourceFailureJSON{Source: f.Source, Error: f.Err, Skipped: f.Skipped})
			if f.Skipped {
				d.Skipped++
			}
		}
		out.Degraded = d
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}
