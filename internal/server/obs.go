package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"schemaflow/internal/obs"
)

// HTTP-layer metrics, registered on the default registry. `route` is the
// server's own route name (bounded set; unmatched requests collapse into
// "unmatched"), never the raw request path.
var (
	mHTTPRequests = obs.Default().CounterVec(
		"schemaflow_http_requests_total",
		"HTTP requests served, by route and status code.",
		"route", "code")
	mHTTPDuration = obs.Default().HistogramVec(
		"schemaflow_http_request_duration_seconds",
		"HTTP request duration, by route.",
		obs.DurationBuckets(),
		"route")
	mHTTPInFlight = obs.Default().Gauge(
		"schemaflow_http_in_flight_requests",
		"HTTP requests currently being served.")
	mQueries = obs.Default().Counter(
		"schemaflow_queries_total",
		"Structured queries answered successfully (including degraded answers).")
	mQueriesDegraded = obs.Default().Counter(
		"schemaflow_queries_degraded_total",
		"Successful queries in which at least one source contributed nothing.")
	mStartupPhase = obs.Default().GaugeVec(
		"schemaflow_startup_phase_seconds",
		"How long each phase of this process's start took: read, build, sources, serve.",
		"phase")
)

// ObserveStartup records the duration of one phase of the process's start.
// The binary calls it once per phase on its way to listening.
func ObserveStartup(phase string, d time.Duration) { mStartupPhase.With(phase).Set(d.Seconds()) }

// reqMeta travels with each request's context: the inner route wrapper
// names the route, handlers flag domain-specific facts (a degraded query),
// and the observe middleware reads it all back out when the response is
// done. A request is handled by one goroutine, so plain fields suffice.
type reqMeta struct {
	id       string
	route    string
	degraded bool
}

type metaKey struct{}

// metaFrom returns the request's meta, or nil outside the observe
// middleware (e.g. a handler invoked directly in a test).
func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(metaKey{}).(*reqMeta)
	return m
}

// newRequestID returns a 16-hex-char random request id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// withObserve is the outermost middleware: it assigns a request id, tracks
// in-flight requests, and — once the response is written — increments the
// per-route request counter and latency histogram and emits one structured
// log line (request id, method, path, route, status, duration, degraded
// flag). It replaces the ad-hoc stderr writes the handlers used to do.
func withObserve(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		meta := &reqMeta{id: newRequestID(), route: "unmatched"}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		w.Header().Set("X-Request-ID", meta.id)
		mHTTPInFlight.Add(1)
		defer func() {
			mHTTPInFlight.Add(-1)
			d := time.Since(start)
			mHTTPRequests.With(meta.route, strconv.Itoa(rec.status)).Inc()
			mHTTPDuration.With(meta.route).Observe(d.Seconds())
			logger.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("request_id", meta.id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", meta.route),
				slog.Int("status", rec.status),
				slog.Duration("duration", d),
				slog.Bool("degraded", meta.degraded),
			)
		}()
		next.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), metaKey{}, meta)))
	})
}

// route names the request's route for metrics and logs before invoking the
// handler.
func route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if m := metaFrom(r.Context()); m != nil {
			m.route = name
		}
		h(w, r)
	}
}
