// Package httpapi is the one definition of the serving HTTP contract: what
// the API accepts (request shapes, validation rules, error strings), what
// it emits (wire JSON types, the {"error": ...} envelope) and the
// middleware policy every request runs under. The single node
// (internal/server), its shard endpoints and the scatter-gather router
// (internal/shard) all call into it, so their byte-identity follows from
// shared code; internal/shard/router_test.go remains the check.
//
// Every validator failure is the caller's fault: respond with BadRequest.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"schemaflow/internal/obs"
)

// DefaultTop is how many domains a classify answer carries when the
// request names no top.
const DefaultTop = 3

// MaxBodyBytes caps every POST body the node, its shard endpoints and the
// router read, and every shard response the router reads back.
const MaxBodyBytes = 1 << 20

// MaxBatchQueries caps one /classify/batch request; wider workloads should
// shard into several requests (the body size cap would bite soon anyway).
const MaxBatchQueries = 1024

// Score is the wire form of one classified domain.
type Score struct {
	Domain    int      `json:"domain"`
	Posterior float64  `json:"posterior"`
	Mediated  []string `json:"mediated_schema,omitempty"`
}

// Domain is the wire form of one /domains entry.
type Domain struct {
	ID          int      `json:"id"`
	Unclustered bool     `json:"unclustered,omitempty"`
	Schemas     []Member `json:"schemas"`
	Mediated    []string `json:"mediated_schema,omitempty"`
}

// Member is one schema's probabilistic membership in a Domain.
type Member struct {
	Name string  `json:"name"`
	Prob float64 `json:"prob"`
}

// BatchRequest is the /classify/batch (and /shard/classify/batch) body.
type BatchRequest struct {
	Queries []string `json:"queries"`
	Top     int      `json:"top"`
}

// SchemaRequest is the /schemas (and /shard/assign) body: one new source
// schema.
type SchemaRequest struct {
	Name       string   `json:"name"`
	Attributes []string `json:"attributes"`
}

// QueryParam reads the required q parameter of /classify and /explain.
func QueryParam(r *http.Request) (string, error) {
	q := r.URL.Query().Get("q")
	if q == "" {
		return "", errors.New("missing q parameter")
	}
	return q, nil
}

// ParseClassify reads the q and top parameters of GET /classify and
// GET /shard/classify; an absent top is DefaultTop.
func ParseClassify(r *http.Request) (q string, top int, err error) {
	if q, err = QueryParam(r); err != nil {
		return "", 0, err
	}
	top = DefaultTop
	if t := r.URL.Query().Get("top"); t != "" {
		if top, err = strconv.Atoi(t); err != nil || top < 1 {
			return "", 0, errors.New("bad top parameter")
		}
	}
	return q, top, nil
}

// DecodeBatch decodes and validates a batch classify body. The returned
// request's Top is resolved (never 0).
func DecodeBatch(w http.ResponseWriter, r *http.Request) (BatchRequest, error) {
	var req BatchRequest
	if err := DecodeStrict(w, r, &req); err != nil {
		return req, err
	}
	if len(req.Queries) == 0 {
		return req, errors.New("empty query list")
	}
	if len(req.Queries) > MaxBatchQueries {
		return req, fmt.Errorf("too many queries: %d > %d", len(req.Queries), MaxBatchQueries)
	}
	for i, q := range req.Queries {
		if strings.TrimSpace(q) == "" {
			return req, fmt.Errorf("empty query at index %d", i)
		}
	}
	if req.Top == 0 {
		req.Top = DefaultTop
	}
	if req.Top < 1 {
		return req, errors.New("bad top value")
	}
	return req, nil
}

// DecodeSchema decodes and validates an arriving-schema body.
func DecodeSchema(w http.ResponseWriter, r *http.Request) (SchemaRequest, error) {
	var req SchemaRequest
	if err := DecodeStrict(w, r, &req); err != nil {
		return req, err
	}
	if req.Name == "" {
		return req, errors.New("missing schema name")
	}
	if len(req.Attributes) == 0 {
		return req, errors.New("empty attribute list")
	}
	return req, nil
}

// DecodeStrict decodes a JSON body capped at MaxBodyBytes into v, rejecting
// unknown fields and trailing garbage.
func DecodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return BadBody(err)
	}
	if dec.More() {
		return BadBody(errors.New("trailing data after JSON body"))
	}
	return nil
}

// BadBody marks err as an unreadable or undecodable request body, for
// handlers that read the body themselves to forward it verbatim.
func BadBody(err error) error {
	return fmt.Errorf("bad request body: %w", err)
}

// WriteJSON writes v as the response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to do but note it.
		slog.Warn("httpapi: encoding response", slog.Any("error", err))
	}
}

// WriteError writes the {"error": msg} envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// BadRequest answers 400 with err's text: the response to every validator
// failure in this package, and to any other error that is the caller's
// fault.
func BadRequest(w http.ResponseWriter, err error) {
	WriteError(w, http.StatusBadRequest, err.Error())
}

// Recover converts handler panics into logged 500s instead of killing the
// connection (and, under some servers, the process). The log line carries
// the X-Request-ID response header when an outer middleware set one.
func Recover(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			logger.Error("panic serving request",
				slog.String("request_id", w.Header().Get("X-Request-ID")),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Any("panic", rec))
			WriteError(w, http.StatusInternalServerError, "internal error")
		}()
		next.ServeHTTP(w, r)
	})
}

// Timeout bounds every request's context so a slow downstream cannot pin a
// connection forever. The pprof subtree is exempt: a 30s CPU profile is
// supposed to outlive a 30s request budget.
func Timeout(d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// Metrics serves the process metrics registry: Prometheus text format by
// default, JSON when the client asks for it (Accept: application/json or
// ?format=json).
func Metrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.Default()
	write, contentType := reg.WritePrometheus, "text/plain; version=0.0.4; charset=utf-8"
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		write, contentType = reg.WriteJSON, "application/json"
	}
	w.Header().Set("Content-Type", contentType)
	if err := write(w); err != nil {
		slog.Warn("httpapi: writing metrics", slog.Any("error", err))
	}
}
