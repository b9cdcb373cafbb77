// Package obs is a dependency-free metrics registry: the observability
// substrate of the serving stack. It provides the three standard metric
// kinds — monotonic counters, set/add gauges, and fixed-bucket histograms
// — each optionally split by a small set of labels, collected in a
// concurrent-safe Registry that can expose itself in Prometheus text
// format or JSON (see expose.go).
//
// Design constraints, in order:
//
//   - The hot path (Inc, Add, Set, Observe on an already-resolved metric)
//     is a handful of atomic operations: no locks, no allocation. Label
//     resolution (With) takes a read lock and allocates only on the first
//     sighting of a label combination.
//   - Exposition never blocks writers: it reads the same atomics.
//   - Everything is stdlib. The text exposition follows the Prometheus
//     0.0.4 format (HELP/TYPE comments, cumulative `le` buckets,
//     `_sum`/`_count` series) so any Prometheus-compatible scraper can
//     consume /metrics unmodified.
//
// Instrumented packages register their metric families as package-level
// variables against Default(), which is what the server's /metrics
// endpoint serves; docs/METRICS.md is diffed against the same registry by
// a test, so the reference documentation cannot drift from the code.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric kinds a Registry can hold.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// valueSep joins label values into a child-map key. \x1f (unit separator)
// cannot collide with printable label values in practice.
const valueSep = "\x1f"

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// family is one registered metric family: a name, help text, kind, label
// names, and the children keyed by label values.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, sorted, +Inf implicit

	mu       sync.RWMutex
	children map[string]any      // joined label values → *Counter | *Gauge | *Histogram
	values   map[string][]string // joined label values → the values themselves
}

// child returns the metric for the given label values, creating it on
// first use. mint builds a new child.
func (f *family) child(values []string, mint func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels %v, got %d values %v",
			f.name, len(f.labels), f.labels, len(values), values))
	}
	key := strings.Join(values, valueSep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = mint()
	f.children[key] = c
	f.values[key] = append([]string(nil), values...)
	return c
}

// Registry is a concurrent-safe collection of metric families. The zero
// value is not usable; construct with NewRegistry or use Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that instrumented packages
// register against and /metrics serves.
func Default() *Registry { return defaultRegistry }

// register adds a family or panics: metric registration happens at package
// init with literal names, so a clash or malformed name is a programming
// error, not a runtime condition.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]any),
		values:   make(map[string][]string),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Names returns every registered family name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------- Counter

// Counter is a monotonically increasing integer count. All methods are
// safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a counter family split by labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label name,
// in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// Counter registers a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers a counter family split by the given labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// ------------------------------------------------------------------ Gauge

// Gauge is a float64 value that can be set or adjusted. All methods are
// safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d (use a negative d to decrease).
func (g *Gauge) Add(d float64) { addFloat(&g.bits, d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a gauge family split by labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// Gauge registers a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers a gauge family split by the given labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// -------------------------------------------------------------- Histogram

// Histogram is a fixed-bucket distribution: observation i lands in the
// first bucket whose upper bound is >= i (Prometheus `le` semantics), with
// an implicit +Inf overflow bucket. All methods are safe for concurrent
// use.
type Histogram struct {
	upper   []float64 // sorted upper bounds, +Inf excluded
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.counts[sort.SearchFloat64s(h.upper, v)].Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Cumulative returns the cumulative bucket counts aligned with Uppers,
// plus the +Inf bucket last (equal to Count up to concurrent skew).
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		out[i] = acc
	}
	return out
}

// Uppers returns the finite bucket upper bounds.
func (h *Histogram) Uppers() []float64 { return h.upper }

// HistogramVec is a histogram family split by labels; every child shares
// the family's buckets.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Histogram registers a label-less histogram over the given bucket upper
// bounds (sorted ascending; +Inf is implicit — do not include it).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, KindHistogram, nil, checkBuckets(name, buckets))
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec registers a histogram family split by the given labels.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, checkBuckets(name, buckets))}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %s: no buckets", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s: buckets not strictly increasing at %d", name, i))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		panic(fmt.Sprintf("obs: histogram %s: +Inf bucket is implicit", name))
	}
	return append([]float64(nil), buckets...)
}

// DurationBuckets returns the default latency buckets in seconds: 1ms to
// 10s, roughly logarithmic — wide enough for both in-memory fetches and
// full model rebuilds.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// addFloat atomically adds d to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}
