package payg

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schemaflow/internal/ingest"
	"schemaflow/internal/par"
	"schemaflow/internal/wal"
)

// ManagerOptions tunes the online ingestion pipeline. The zero value of
// every field selects a sensible default.
type ManagerOptions struct {
	// DriftThreshold is the fraction of recent arrivals that must be
	// "fresh" (claimed by no existing domain) to trigger a background
	// recluster. Default 0.5; negative disables drift-triggered rebuilds
	// (forced and interval rebuilds still work).
	DriftThreshold float64
	// RebuildInterval, when positive, rebuilds periodically whenever
	// schemas are pending — a backstop for workloads whose arrivals are
	// in-domain (never fresh, so drift stays low) but should still join
	// the serving model eventually.
	RebuildInterval time.Duration
	// Policy is the per-source resilience policy for the query executor.
	// The zero value selects DefaultPolicy.
	Policy Policy
	// MakeSource supplies the TupleSource for an ingested schema when the
	// manager serves data (and, with ServeData, for every recovered
	// schema). It is called concurrently, from as many goroutines as there
	// are CPUs, and never under the manager's lock. Nil means an empty
	// in-memory source (the schema is classifiable and mediated, but
	// contributes no tuples until real data is attached).
	MakeSource func(Schema) TupleSource
	// Logf receives lifecycle messages (rebuild started/finished/
	// discarded). Nil discards them.
	Logf func(format string, args ...any)
	// QueryCacheSize bounds the generation-keyed LRU cache of classification
	// results served by Manager.Classify and friends. Zero means 1024;
	// negative disables caching entirely (every request runs the
	// classifier).
	QueryCacheSize int
	// DataDir, when set, makes the manager durable: accepted arrivals are
	// written to a write-ahead log before they are acked, every recluster
	// swap writes a generation-stamped checkpoint snapshot (atomic
	// temp-file+rename), and LoadManagerDir recovers the full state after
	// a crash. Empty disables persistence. A fresh manager refuses a
	// DataDir that already holds a checkpoint — recover it with
	// LoadManagerDir instead of silently clobbering it.
	DataDir string
	// FsyncMode selects the WAL fsync policy: "always" (default — an
	// acked arrival survives an immediate power cut), "interval"
	// (background fsync every 100ms, internal/wal's period), or "none"
	// (the OS decides).
	FsyncMode string
	// ServeData makes LoadManagerDir attach one MakeSource-built
	// TupleSource per recovered schema, so the query path survives
	// recovery (a static source list cannot — the recovered schema set no
	// longer aligns with it). False leaves the recovered manager without
	// data: classification and ingestion work, /query does not.
	ServeData bool
	// Transform, when non-nil, post-processes every newly built serving
	// system before it is published — after a rebuild and after a feedback
	// apply (including WAL replay on recovery). It must be deterministic:
	// replicas replaying the same inputs through the same Transform must
	// converge on the same state. Shard replicas use it to re-prune a
	// rebuilt full system down to their local domains.
	Transform func(*System) (*System, error)
}

// Drift is the fresh fraction of the last driftWindow arrivals, and cannot
// trigger a rebuild before driftMinSamples of them, so one unlucky first
// arrival does not recluster the world.
const (
	driftWindow     = 16
	driftMinSamples = 4
)

// makeSources runs MakeSource for each schema on every core and returns
// the sources in schema order.
func (o ManagerOptions) makeSources(schemas []Schema) []TupleSource {
	out := make([]TupleSource, len(schemas))
	par.Each(len(schemas), func(i int) { out[i] = o.MakeSource(schemas[i]) })
	return out
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.DriftThreshold == 0 {
		o.DriftThreshold = 0.5
	}
	if o.Policy == (Policy{}) {
		o.Policy = DefaultPolicy()
	}
	if o.MakeSource == nil {
		o.MakeSource = func(sch Schema) TupleSource { return Source{Schema: sch} }
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.QueryCacheSize == 0 {
		o.QueryCacheSize = 1024
	}
	return o
}

// managedState is one immutable serving generation: a built system, its
// query executor, and the sources the executor is bound to. Readers load
// it atomically and never see a half-built model. gen is the generation
// counter value at which this state was published; carrying it here lets
// the query cache read a consistent (system, generation) pair from a
// single atomic load.
type managedState struct {
	sys     *System
	exec    *Executor     // nil when serving without data
	sources []TupleSource // aligned with sys.Schemas(); nil when no data
	gen     int
}

// flight is one in-progress background rebuild (single-flight: at most one
// exists at a time). err is written before done is closed and must only be
// read after <-done.
type flight struct {
	done chan struct{}
	err  error
}

// Manager owns a serving System and grows it online — the pay-as-you-go
// loop as a subsystem. Arriving schemas are assigned to current domains
// immediately (Ingest, read-only against the serving model), kept pending,
// and folded into a full recluster+rebuild that runs in a background
// goroutine when assignment quality drifts, when a rebuild interval
// elapses, or on demand (Recluster). The rebuilt system is published by a
// copy-on-write atomic swap: Classify/Execute traffic keeps hitting the
// old generation, un-blocked, until the new one is complete, and
// per-source circuit-breaker state carries across the swap via a shared
// BreakerPool. All methods are safe for concurrent use. See the package
// documentation ("Serving online: the Manager lifecycle") for the full
// state machine, including when a completed rebuild is discarded.
type Manager struct {
	opts ManagerOptions
	cur  atomic.Pointer[managedState]
	pool *BreakerPool // nil when serving without data

	mu sync.Mutex
	// pending holds the schemas accepted since the last published rebuild,
	// in arrival order. A rebuild captures a prefix and, on success, drains
	// exactly that prefix — arrivals during the flight stay pending.
	pending   []Schema
	drift     *ingest.Window
	gen       int     // bumped on every swap; a rebuild whose base generation is stale is discarded
	inflight  *flight // non-nil while a background rebuild runs
	cancel    context.CancelFunc
	rebuilds  int // completed, swapped-in rebuilds
	discarded int // rebuilds discarded because the base changed mid-flight
	closed    bool

	// queries caches ranked classification results keyed by canonical term
	// set, number of domains asked for and serving generation; nil when
	// QueryCacheSize < 0.
	queries *queryCache

	// Durability (nil/zero when ManagerOptions.DataDir is empty). wal is
	// appended under mu before an arrival is acked; checkpointLocked
	// truncates it after a snapshot lands.
	wal *wal.Log

	stopInterval context.CancelFunc
	wg           sync.WaitGroup
}

// NewManager wraps a built system for online ingestion. sources, when
// non-nil, must supply one TupleSource per schema in build order (as for
// NewExecutor) and enables the query path; ingested schemas get sources
// from opts.MakeSource at rebuild time. Call Close to stop background
// work.
func NewManager(sys *System, sources []TupleSource, opts ManagerOptions) (*Manager, error) {
	if err := requireFreshDataDir(opts.DataDir); err != nil {
		return nil, err
	}
	m := emptyManager(opts)
	st, err := m.bind(sys, sources, 0)
	if err != nil {
		return nil, err
	}
	m.cur.Store(st)
	if err := m.start(); err != nil {
		return nil, err
	}
	return m, nil
}

// requireFreshDataDir refuses to bootstrap durability in a data dir that
// already holds a checkpoint: it belongs to a previous incarnation and is
// recovered, not clobbered. An empty dir (no durability) passes.
func requireFreshDataDir(dir string) error {
	if dir == "" {
		return nil
	}
	if ok, err := HasCheckpoint(dir); err != nil {
		return fmt.Errorf("payg: scanning data dir %s: %w", dir, err)
	} else if ok {
		return fmt.Errorf("payg: data dir %s already holds a checkpoint; recover it with LoadManagerDir", dir)
	}
	return nil
}

// emptyManager returns a manager with no serving state yet; the caller
// publishes one (bind or restore) and then calls start.
func emptyManager(opts ManagerOptions) *Manager {
	opts = opts.withDefaults()
	return &Manager{
		opts:    opts,
		drift:   ingest.NewWindow(driftWindow),
		queries: newQueryCache(opts.QueryCacheSize),
	}
}

// bind wraps a system as serving generation gen, with a query executor
// over sources when there are any (one per schema in build order).
func (m *Manager) bind(sys *System, sources []TupleSource, gen int) (*managedState, error) {
	st := &managedState{sys: sys, gen: gen}
	if sources != nil {
		if m.pool == nil {
			m.pool = NewBreakerPool(m.opts.Policy)
		}
		exec, err := sys.NewExecutor(sources, m.opts.Policy, m.pool)
		if err != nil {
			return nil, err
		}
		st.exec = exec
		st.sources = sources
	}
	return st, nil
}

// start attaches durability when a data dir is configured (replaying its
// WAL on top of the published state) and launches the interval loop.
func (m *Manager) start() error {
	if m.opts.DataDir != "" {
		if err := m.initDurable(); err != nil {
			return err
		}
	}
	if every := m.opts.RebuildInterval; every > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		m.stopInterval = cancel
		m.wg.Add(1)
		go m.intervalLoop(ctx, every)
	}
	return nil
}

// LoadManager reconstructs a manager from a snapshot written by
// Manager.Save: the system is rebuilt as by Load and the snapshot's pending
// schemas are pending again — a restart loses nothing. sources and opts are
// as for NewManager.
func LoadManager(r io.Reader, sources []TupleSource, opts ManagerOptions) (*Manager, error) {
	if err := requireFreshDataDir(opts.DataDir); err != nil {
		return nil, err
	}
	return loadManager(r, 0, func(*System) []TupleSource { return sources }, opts)
}

// loadManager is the constructor behind LoadManager, LoadManagerAt and
// LoadManagerDir: an empty manager, the one restore step, then start.
func loadManager(r io.Reader, gen int, sources func(*System) []TupleSource, opts ManagerOptions) (*Manager, error) {
	m := emptyManager(opts)
	if err := m.restore(r, gen, sources); err != nil {
		return nil, err
	}
	if err := m.start(); err != nil {
		return nil, err
	}
	return m, nil
}

// restore is the one step from snapshot bytes to this manager's serving
// state: decode and rebuild (LoadWithPending), bind the sources chosen for
// the decoded system (nil: serve without data), adopt the snapshot's pending
// schemas, and publish the lot at gen by the usual atomic swap.
func (m *Manager) restore(r io.Reader, gen int, sources func(*System) []TupleSource) error {
	sys, pending, err := LoadWithPending(r)
	if err != nil {
		return err
	}
	var srcs []TupleSource
	if sources != nil {
		srcs = sources(sys)
	}
	st, err := m.bind(sys, srcs, gen)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("payg: manager closed")
	}
	m.pending = pending
	m.drift.Reset()
	m.gen = gen
	m.cur.Store(st)
	mSwapGeneration.Set(float64(gen))
	mIngestPending.Set(float64(len(pending)))
	mIngestDrift.Set(0)
	return nil
}

// System returns the current serving system (lock-free).
func (m *Manager) System() *System { return m.cur.Load().sys }

// Executor returns the current query executor, or nil when the manager
// serves without data (lock-free).
func (m *Manager) Executor() *Executor { return m.cur.Load().exec }

// View is one serving generation pinned by a single atomic load: rankings,
// the system that decorates them and the generation stamp all describe the
// same model, however many swaps land while a handler assembles its reply.
type View struct {
	st    *managedState
	cache *queryCache // the manager's; nil when caching is disabled
}

// View pins the current serving generation (lock-free).
func (m *Manager) View() View { return View{st: m.cur.Load(), cache: m.queries} }

// System returns the pinned serving system.
func (v View) System() *System { return v.st.sys }

// Generation returns the generation the pinned system was published at.
func (v View) Generation() int { return v.st.gen }

// Classify ranks all domains for a free-text keyword query, answering from
// the generation-keyed result cache when the same canonical term set was
// classified against the current serving generation before. Results are
// always identical to System().Classify: a swap (rebuild publication or
// feedback apply) bumps the generation, which invalidates every older
// entry for free — stale rankings are structurally unservable.
func (m *Manager) Classify(query string) []Score { return m.View().Classify(query) }

// ClassifyKeywords is Classify for an already-tokenized query.
func (m *Manager) ClassifyKeywords(keywords []string) []Score {
	v := m.View()
	return v.ClassifyTop(keywords, v.st.sys.NumDomains())
}

// ClassifyBatch returns the best k domains for each of many free-text
// queries in one call, in input order. Cached queries are answered
// immediately; the misses run through the classifier's CPU-parallel batch
// path against a single consistent serving generation and populate the
// cache for next time.
func (m *Manager) ClassifyBatch(queries []string, k int) [][]Score {
	return m.View().ClassifyBatch(queries, k)
}

// Classify is Manager.Classify against the pinned generation.
func (v View) Classify(query string) []Score {
	return v.ClassifyTop(strings.Fields(query), v.st.sys.NumDomains())
}

// ClassifyTop returns the best k domains for an already-tokenized query
// against the pinned generation: System().ClassifyTop's answer, from the
// result cache when the same canonical term set was asked for at the same k
// before. Every k past the domain count is one entry, the whole ranking.
func (v View) ClassifyTop(keywords []string, k int) []Score {
	st, cache := v.st, v.cache
	k = min(k, st.sys.NumDomains())
	if cache == nil {
		return st.sys.ClassifyTop(keywords, k)
	}
	key := cacheKey(st.sys.space.QueryTerms(keywords), k)
	if scores, ok := cache.get(key, st.gen); ok {
		return scores
	}
	scores := st.sys.ClassifyTop(keywords, k)
	// The entry is tagged with the generation the ranking was computed
	// against; if a swap raced this call, the tag no longer matches the
	// serving generation and the entry is simply never served.
	cache.put(key, st.gen, scores)
	return scores
}

// ClassifyBatch is Manager.ClassifyBatch against the pinned generation.
func (v View) ClassifyBatch(queries []string, k int) [][]Score {
	mQueryBatchWidth.Observe(float64(len(queries)))
	st, cache := v.st, v.cache
	k = min(k, st.sys.NumDomains())
	out := make([][]Score, len(queries))
	if cache == nil {
		kws := make([][]string, len(queries))
		for i, q := range queries {
			kws[i] = strings.Fields(q)
		}
		return st.sys.ClassifyBatch(kws, k)
	}
	keys := make([]string, len(queries))
	var missIdx []int
	var missKws [][]string
	for i, q := range queries {
		kw := strings.Fields(q)
		keys[i] = cacheKey(st.sys.space.QueryTerms(kw), k)
		if scores, ok := cache.get(keys[i], st.gen); ok {
			out[i] = scores
			continue
		}
		missIdx = append(missIdx, i)
		missKws = append(missKws, kw)
	}
	if len(missIdx) > 0 {
		res := st.sys.ClassifyBatch(missKws, k)
		for j, i := range missIdx {
			out[i] = res[j]
			cache.put(keys[i], st.gen, res[j])
		}
	}
	return out
}

// IngestResult reports what happened to one arrival.
type IngestResult struct {
	// Assignment is the immediate routing decision against the serving
	// model.
	Assignment *Assignment
	// Pending is the journal length after this arrival — schemas accepted
	// but not yet part of the serving model.
	Pending int
	// DriftRatio is the current fraction of fresh arrivals in the window.
	DriftRatio float64
	// RebuildTriggered is true when this arrival pushed drift over the
	// threshold and started a background rebuild.
	RebuildTriggered bool
	// Rebuilding is true while a background rebuild is in flight.
	Rebuilding bool
}

// Ingest accepts one new schema: it is assigned to current domains
// immediately (without touching the serving model), journaled for the next
// rebuild, and counted toward drift. If the drift ratio crosses the
// threshold a background recluster starts (single-flight). Ingest never
// blocks on a rebuild.
//
// On a durable manager (ManagerOptions.DataDir) the arrival is appended
// to the write-ahead log — fsynced under the default policy — before
// Ingest returns, so an acked arrival survives a crash at any later
// point. A WAL append failure rejects the arrival instead of acking
// something the disk never saw.
func (m *Manager) Ingest(sch Schema) (*IngestResult, error) {
	st := m.cur.Load()
	a, err := st.sys.Ingest(sch)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("payg: manager closed")
	}
	if err := m.appendWALLocked(walRecord{Kind: walKindIngest, Schema: &sch}); err != nil {
		return nil, err
	}
	m.pending = append(m.pending, sch)
	m.drift.Record(a.Fresh)
	mIngestArrivals.Inc()
	if a.Fresh {
		mIngestFresh.Inc()
	}
	mIngestPending.Set(float64(len(m.pending)))
	mIngestDrift.Set(m.drift.Ratio())
	res := &IngestResult{
		Assignment: a,
		Pending:    len(m.pending),
		DriftRatio: m.drift.Ratio(),
	}
	if m.inflight == nil &&
		m.opts.DriftThreshold >= 0 &&
		m.drift.Samples() >= driftMinSamples &&
		m.drift.Ratio() >= m.opts.DriftThreshold {
		m.startRebuildLocked("drift")
		res.RebuildTriggered = true
	}
	res.Rebuilding = m.inflight != nil
	return res, nil
}

// Recluster forces a full recluster+rebuild over the serving schemas plus
// everything pending, and waits for it to be published (or for ctx). If a
// background rebuild is already in flight it joins that one instead of
// starting another.
func (m *Manager) Recluster(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("payg: manager closed")
	}
	f := m.inflight
	if f == nil {
		f = m.startRebuildLocked("forced")
	}
	m.mu.Unlock()

	select {
	case <-f.done:
		return f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// startRebuildLocked launches the single background rebuild flight.
// Callers must hold m.mu and have checked that no flight is running.
func (m *Manager) startRebuildLocked(reason string) *flight {
	st := m.cur.Load()
	// The capped view is safe to read outside the lock: later arrivals
	// append past it and a drain replaces the slice, never its elements.
	entries := m.pending[:len(m.pending):len(m.pending)]
	ctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{})}
	m.inflight = f
	m.cancel = cancel
	startGen := m.gen
	mRebuildsStarted.With(reason).Inc()
	m.opts.Logf("payg: %s rebuild started (%d schemas + %d pending)",
		reason, st.sys.NumSchemas(), len(entries))
	m.wg.Add(1)
	go m.runRebuild(ctx, cancel, st, entries, startGen, f)
	return f
}

// runRebuild builds a complete system over the union of the serving
// schemas and the journaled pending schemas, then publishes it with an
// atomic swap — unless the serving generation changed underneath it (a
// feedback apply), in which case the result is discarded and the journal
// kept for the next flight.
func (m *Manager) runRebuild(ctx context.Context, cancel context.CancelFunc, st *managedState, entries []Schema, startGen int, f *flight) {
	defer m.wg.Done()
	defer close(f.done)
	defer cancel()
	start := time.Now()
	defer func() { mRebuildDuration.Observe(time.Since(start).Seconds()) }()

	union := make([]Schema, 0, st.sys.NumSchemas()+len(entries))
	union = append(union, st.sys.Schemas()...)
	union = append(union, entries...)
	newSys, err := BuildContext(ctx, union, st.sys.opts)
	if err == nil && m.opts.Transform != nil {
		newSys, err = m.opts.Transform(newSys)
		if err != nil {
			err = fmt.Errorf("payg: transforming rebuilt system: %w", err)
		}
	}
	// The arrivals' sources are made before the lock, so no ingest ack
	// waits on them.
	var arrived []TupleSource
	if err == nil && st.sources != nil {
		arrived = m.opts.makeSources(entries)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight = nil
	m.cancel = nil
	if err != nil {
		f.err = err
		// A cancellation is the owner shutting the flight down, not a
		// rebuild that went wrong; alerting on it would page on every
		// deploy.
		if !errors.Is(err, context.Canceled) {
			mRebuildsFailed.Inc()
		}
		m.opts.Logf("payg: rebuild failed: %v", err)
		return
	}
	if m.gen != startGen {
		// The serving system changed mid-flight (feedback swap): this
		// result is based on a stale generation. Keep the journal; the
		// next trigger rebuilds over the fresh base.
		m.discarded++
		mRebuildsDiscarded.Inc()
		f.err = fmt.Errorf("payg: rebuild discarded: serving system changed during rebuild")
		m.opts.Logf("payg: rebuild discarded (base generation changed)")
		return
	}
	var sources []TupleSource
	if st.sources != nil {
		sources = slices.Concat(st.sources, arrived)
	}
	next, err := m.bind(newSys, sources, m.gen+1)
	if err != nil {
		f.err = fmt.Errorf("payg: rebinding sources after rebuild: %w", err)
		m.opts.Logf("payg: %v", f.err)
		return
	}
	// Clamped: a Restore that lands mid-flight at this same generation may
	// have swapped in a shorter list.
	m.pending = slices.Clone(m.pending[min(len(entries), len(m.pending)):])
	m.drift.Reset()
	m.gen++
	m.rebuilds++
	m.cur.Store(next)
	mRebuildsPublished.Inc()
	mSwapGeneration.Set(float64(m.gen))
	mIngestPending.Set(float64(len(m.pending)))
	mIngestDrift.Set(m.drift.Ratio())
	m.opts.Logf("payg: rebuild published: %d schemas, %d domains (%d still pending)",
		newSys.NumSchemas(), newSys.NumDomains(), len(m.pending))
	// Make the swap durable: a checkpoint stamped with the new generation
	// supersedes every WAL record (drained arrivals are in the system,
	// undrained ones in the snapshot's journal), so the log truncates.
	m.checkpointLocked()
}

// ApplyFeedback applies explicit user corrections to the serving system
// and swaps the corrected system in, serialized against rebuild
// publication. Pending (journaled) schemas are unaffected — they join at
// the next rebuild over the corrected base; an in-flight background
// rebuild is invalidated and will be discarded on completion. On a
// durable manager the validated batch is written to the WAL before the
// swap, so crash recovery re-applies it deterministically.
func (m *Manager) ApplyFeedback(fb Feedback) (*FeedbackResult, error) {
	return m.applyFeedback(fb, true)
}

func (m *Manager) applyFeedback(fb Feedback, logWAL bool) (*FeedbackResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("payg: manager closed")
	}
	st := m.cur.Load()
	res, err := st.sys.ApplyFeedback(fb)
	if err != nil {
		return nil, err
	}
	if m.opts.Transform != nil {
		res.System, err = m.opts.Transform(res.System)
		if err != nil {
			return nil, fmt.Errorf("payg: transforming corrected system: %w", err)
		}
	}
	// Validation passed (ApplyFeedback builds the corrected system without
	// mutating the serving one). Persist before publishing: if the WAL
	// rejects the record, nothing has swapped and the caller gets an
	// error; recovery therefore only ever replays feedback that was acked.
	if logWAL {
		if err := m.appendWALLocked(walRecord{Kind: walKindFeedback, Feedback: &fb}); err != nil {
			return nil, err
		}
	}
	next, err := m.bind(res.System, st.sources, m.gen+1)
	if err != nil {
		return nil, fmt.Errorf("payg: rebinding sources: %w", err)
	}
	m.gen++
	m.cur.Store(next)
	mFeedbackApplied.Inc()
	mSwapGeneration.Set(float64(m.gen))
	return res, nil
}

// BreakerStates reports the circuit-breaker state of every data source but
// the in-memory ones, keyed by source name — closed sources are healthy,
// open ones are being skipped by the query path. Nil when the manager
// serves without data (no executor, hence no breakers).
func (m *Manager) BreakerStates() map[string]BreakerState {
	if m.pool == nil {
		return nil
	}
	return m.pool.States()
}

// ManagerStatus is a point-in-time view of the ingestion pipeline.
type ManagerStatus struct {
	// Schemas and Domains describe the serving system.
	Schemas int
	Domains int
	// Pending is the journal length (accepted, not yet reclustered).
	Pending int
	// Rebuilding is true while a background rebuild is in flight.
	Rebuilding bool
	// DriftRatio is the fresh fraction of the current drift window.
	DriftRatio float64
	// Rebuilds counts published rebuilds; Discarded counts rebuilds
	// thrown away because the serving system changed mid-flight.
	Rebuilds  int
	Discarded int
	// Generation is the serving-state generation, bumped on every atomic
	// swap. Followers compare it against the leader's to measure
	// replication lag.
	Generation int
}

// Pending returns the schemas accepted but not yet folded into the serving
// model by a rebuild, in arrival order. The slice is a copy.
func (m *Manager) Pending() []Schema {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.pending)
}

// Status reports the pipeline's current state.
func (m *Manager) Status() ManagerStatus {
	st := m.cur.Load()
	m.mu.Lock()
	defer m.mu.Unlock()
	return ManagerStatus{
		Schemas:    st.sys.NumSchemas(),
		Domains:    st.sys.NumDomains(),
		Pending:    len(m.pending),
		Rebuilding: m.inflight != nil,
		DriftRatio: m.drift.Ratio(),
		Rebuilds:   m.rebuilds,
		Discarded:  m.discarded,
		Generation: m.gen,
	}
}

// intervalLoop periodically rebuilds while schemas are pending.
func (m *Manager) intervalLoop(ctx context.Context, every time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.mu.Lock()
			if !m.closed && m.inflight == nil && len(m.pending) > 0 {
				m.startRebuildLocked("interval")
			}
			m.mu.Unlock()
		}
	}
}

// Close stops the interval loop, cancels any in-flight rebuild, waits
// for background goroutines to finish, and closes the write-ahead log.
// The manager keeps serving reads (System/Executor) but rejects further
// Ingest/Recluster/ApplyFeedback.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	if m.stopInterval != nil {
		m.stopInterval()
	}
	if m.cancel != nil {
		m.cancel()
	}
	m.mu.Unlock()
	m.wg.Wait()
	// After wg.Wait no rebuild can checkpoint and closed blocks new
	// arrivals, so the log is quiescent.
	if m.wal != nil {
		if err := m.wal.Close(); err != nil {
			m.opts.Logf("payg: closing WAL: %v", err)
		}
	}
}
