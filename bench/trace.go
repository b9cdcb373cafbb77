package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"schemaflow/internal/candgen"
	"schemaflow/internal/classify"
	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/ingest"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
	"schemaflow/internal/server"
	"schemaflow/internal/shard"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
	"schemaflow/internal/wal"
	"schemaflow/payg"
)

// The traced run measures layers from outside: the harness calls each
// layer's public entry point on the same input, innermost first, and
// records a span around every call. A layer's self time is its span minus
// the span of its logical child on that input. Nothing inside the program
// is instrumented; in-program stage timers are a later change that must
// reuse the span names fixed here.

// span is one timed call. Spans of one input share Req; Parent is the id
// of the span of the enclosing layer on that input (-1 for the outermost).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span times f, records it and returns the span's id.
func (t *tracer) span(name string, req int, f func()) int {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Req: req, Name: name, Start: int64(start), End: int64(end)})
	return id
}

// nest declares child's logical parent. Layers are called innermost first,
// so a parent's id exists only after its children ran.
func (t *tracer) nest(parent int, children ...int) {
	for _, c := range children {
		t.spans[c].Parent = parent
	}
}

// us returns the durations of every span of a name, in microseconds.
func (t *tracer) us(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfUs returns, per span of a name, its duration minus its children's of
// the given name — span minus the logical child on the same input.
func (t *tracer) selfUs(name, child string) []float64 {
	childDur := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == child && s.Parent >= 0 {
			childDur[s.Parent] += float64(s.End-s.Start) / 1e3
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3-childDur[s.ID])
		}
	}
	return out
}

// write dumps the spans to bench/out/trace-<workload>.json.
func (t *tracer) write(root, workload string) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "out", "trace-"+workload+".json"), b, 0o644)
}

// medianUs sets a metric to the median of a span name's durations.
func (e *env) medianUs(tr *tracer, metric, spanName string) float64 {
	d := tr.us(spanName)
	m := median(d)
	e.rep.setN(metric, m, "us", len(d))
	return m
}

// allocsPer reports mallocs per call of f over n calls on this goroutine.
func allocsPer(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func quietLogger() *slog.Logger { return slog.New(slog.NewJSONHandler(io.Discard, nil)) }

// ---------------------------------------------------------------------------
// Build path

// traceBuildSystem replays payg.Build's pipeline with the same public calls
// payg.buildBlocked / payg.buildExact make, timing each phase, then times
// payg.Build itself and checks the replay reached the same domain count.
// What payg.Build spends beyond the phases is payg.build_unattributed_s.
// It returns the system payg.Build produced. The constants are
// payg.Options' defaults; the domain-count check is what notices if they or
// the pipeline drift.
func (e *env) traceBuildSystem(set schema.Set, opts payg.Options) (*payg.System, error) {
	rep := e.rep
	ctx := context.Background()
	const tauC, theta, tauT = 0.25, 0.02, 0.8
	fcfg := feature.Config{TermOpts: terms.DefaultOptions(), Sim: strsim.LCSSim{}, Tau: tauT}
	copts := core.Options{TauCSim: tauC, Theta: theta}
	link := cluster.NewLinkage(mustMethod("avg-jaccard"))
	vec := feature.NewTermVectorizer(candgen.Config{Bands: 128, Rows: 2})
	mopts := mediate.DefaultOptions()
	mopts.FreqThreshold, mopts.TermSim, mopts.TermTau = 0.1, strsim.LCSSim{}, tauT

	var (
		sp    *feature.Space
		pairs []candgen.Pair
		ps    *cluster.PairSims
		cl    *cluster.Result
		model *core.Model
	)
	type step struct {
		metric string
		f      func() error
	}
	var steps []step
	blocked := opts.CandidateGen == "lsh" || (opts.CandidateGen == "" && len(set) >= 4096)
	if blocked {
		steps = []step{
			{"feature.build_s", func() error { sp = feature.BuildLite(set, fcfg); return nil }},
			{"candgen.fit_s", func() error { return vec.Fit(sp) }},
			{"candgen.pairs_s", func() (err error) { pairs, err = vec.CandidatePairs(ctx); return }},
			{"cluster.pairwise_s", func() (err error) { ps, err = cluster.PairwiseSims(ctx, sp, pairs, 0); return }},
			{"cluster.hac_s", func() (err error) {
				cl, err = cluster.AgglomerativeSparse(ctx, sp, link, tauC, ps, cluster.SparseOptions{})
				return
			}},
			{"core.assign_s", func() (err error) { model, err = core.AssignDomainsSparse(set, sp, cl, ps, copts); return }},
		}
	} else {
		steps = []step{
			{"feature.build_full_s", func() (err error) { sp, err = feature.BuildContext(ctx, set, fcfg); return }},
			{"cluster.hac_dense_s", func() (err error) { cl, err = cluster.AgglomerativeContext(ctx, sp, link, tauC); return }},
			{"core.assign_dense_s", func() (err error) { model, err = core.AssignDomains(set, sp, cl, copts); return }},
			{"candgen.fit_s", func() error { return vec.Fit(sp) }},
		}
	}
	steps = append(steps,
		step{"classify.new_s", func() (err error) { _, err = classify.New(model, classify.Config{}); return }},
		step{"mediate.build_s", func() error {
			for r := range model.Domains {
				var members schema.Set
				for _, mem := range model.Domains[r].Members {
					members = append(members, set[mem.Schema])
				}
				if _, err := mediate.Build(members, mopts); err != nil {
					return err
				}
			}
			return nil
		}},
	)
	sum := 0.0
	for _, s := range steps {
		runtime.GC()
		t0 := time.Now()
		if err := s.f(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.metric, err)
		}
		d := time.Since(t0).Seconds()
		sum += d
		rep.set(s.metric, d, "s")
	}
	if blocked {
		n := float64(len(set))
		rep.set("candgen.pairs", float64(len(pairs)), "count")
		rep.set("candgen.candidate_fraction", float64(len(pairs))/(n*(n-1)/2), "share")
	}
	rep.set("cluster.clusters", float64(cl.NumClusters()), "count")
	rep.set("core.domains", float64(model.NumDomains()), "count")
	rep.set("core.uncertain_memberships", float64(model.UncertainCount()), "count")
	rep.set("mediate.build_ms_per_domain", rep.values["mediate.build_s"].Value*1000/float64(model.NumDomains()), "ms")

	runtime.GC()
	t0 := time.Now()
	sys, err := payg.Build(set, opts)
	if err != nil {
		return nil, err
	}
	total := time.Since(t0).Seconds()
	rep.set("payg.build_total_s", total, "s")
	rep.set("payg.build_unattributed_s", total-sum, "s")
	if sys.NumDomains() != model.NumDomains() {
		rep.wrong("build replay reached %d domains, payg.Build %d: the replay no longer mirrors the pipeline", model.NumDomains(), sys.NumDomains())
	}
	return sys, nil
}

func mustMethod(name string) cluster.Method {
	m, err := cluster.ParseMethod(name)
	if err != nil {
		panic(err)
	}
	return m
}

// ---------------------------------------------------------------------------
// Read path

// readPath calls every read layer on each query, innermost first, against
// a cache-disabled manager so every call is a miss.
func (e *env) readPath(tr *tracer, sys *payg.System, queries []query) error {
	rep := e.rep
	model := sys.Model()
	sp := model.Space
	cls, err := classify.New(model, classify.Config{})
	if err != nil {
		return err
	}
	mgr, err := payg.NewManager(sys, nil, payg.ManagerOptions{QueryCacheSize: -1, DriftThreshold: -1})
	if err != nil {
		return err
	}
	defer mgr.Close()
	srv := server.NewWithManager(mgr, server.Config{Logger: quietLogger()})

	handle := func(q query) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, classifyURL("", q.Q), nil))
		if rec.Code != http.StatusOK {
			rep.fails.add("traced classify %q: status %d", q.Q, rec.Code)
		}
		return rec.Body.Len()
	}
	kws := make([][]string, len(queries))
	for i, q := range queries {
		kws[i] = strings.Fields(q.Q)
	}
	bits, bytes := 0, 0
	for i, q := range queries {
		kw := kws[i]
		handle(q) // untimed: every layer below then runs equally warm on this input
		x := tr.span("terms.extract", i, func() { sp.QueryTerms(kw) })
		f := tr.span("feature.embed", i, func() { bits += sp.QueryVector(kw).Count() })
		c := tr.span("classify.classify", i, func() { cls.Classify(kw) })
		m := tr.span("payg.manager_miss", i, func() { mgr.ClassifyKeywords(kw) })
		h := tr.span("server.handler", i, func() { bytes += handle(q) })
		tr.nest(f, x)
		tr.nest(c, f)
		tr.nest(m, c)
		tr.nest(h, m)
	}
	rep.attempted += 2 * len(queries)
	n := float64(len(queries))

	e.medianUs(tr, "terms.extract_us", "terms.extract")
	e.medianUs(tr, "feature.embed_us", "feature.embed")
	rep.set("feature.embed_self_us", median(tr.selfUs("feature.embed", "terms.extract")), "us")
	rep.set("feature.query_bits", float64(bits)/n, "count")
	rep.set("feature.vocab_size", float64(sp.Dim()), "count")
	e.medianUs(tr, "classify.classify_us", "classify.classify")
	rep.set("classify.score_self_us", median(tr.selfUs("classify.classify", "feature.embed")), "us")
	rep.set("classify.domains", float64(model.NumDomains()), "count")
	rep.set("classify.table_mb", float64(model.NumDomains())*float64(sp.Dim())*8/(1<<20), "MB")
	e.medianUs(tr, "payg.manager_miss_us", "payg.manager_miss")
	rep.set("payg.manager_self_us", median(tr.selfUs("payg.manager_miss", "classify.classify")), "us")
	e.medianUs(tr, "server.handler_us", "server.handler")
	rep.set("server.overhead_self_us", median(tr.selfUs("server.handler", "payg.manager_miss")), "us")
	rep.set("server.response_bytes", float64(bytes)/n, "B")

	rep.set("feature.embed_allocs", allocsPer(len(kws), func(i int) { sp.QueryVector(kws[i]) }), "count")
	rep.set("classify.allocs", allocsPer(len(kws), func(i int) { cls.Classify(kws[i]) }), "count")

	// Tracing overhead: the outermost span with every span recorded (the
	// loop above) against the same requests with only it recorded.
	all := median(tr.us("server.handler"))
	solo := newTracer()
	for i, q := range queries {
		handle(q)
		solo.span("server.handler", i, func() { handle(q) })
	}
	if s := median(solo.us("server.handler")); s > 0 {
		rep.set("trace.overhead_ratio", all/s, "ratio")
	}
	return nil
}

// traceRead is the traced half of the classify workloads: build replay
// (the server's set-up, phase by phase), read path, and for the two-shard
// topology the router path.
func traceRead(e *env, set schema.Set, opts payg.Options, queries []query, topo topology, timedP50Ms float64) error {
	sys, err := e.traceBuildSystem(set, opts)
	if err != nil {
		return err
	}
	if len(queries) > e.p.TraceQueries {
		queries = queries[:e.p.TraceQueries]
	}
	tr := newTracer()
	if err := e.readPath(tr, sys, queries); err != nil {
		return err
	}
	front := "server.handler_us" // what answered the timed run's requests
	if topo == twoShards {
		if err := e.shardPath(tr, sys, queries); err != nil {
			return err
		}
		front = "shard.router_us"
	}
	e.rep.set("loadgen.transport_us", timedP50Ms*1000-e.rep.values[front].Value, "us")
	return tr.write(e.root, e.name)
}

// shardPath runs the sampled queries through an in-process shard.Router
// over two httptest shard servers, and calls the shards and the merge
// separately on the same inputs.
func (e *env) shardPath(tr *tracer, sys *payg.System, queries []query) error {
	rep := e.rep
	var urls []string
	for i := 0; i < 2; i++ {
		part, err := sys.Shard(shard.LocalDomains(sys.NumDomains(), i, 2))
		if err != nil {
			return err
		}
		srv, err := server.NewWithConfig(part, server.Config{Logger: quietLogger(), QueryCacheSize: -1, DriftThreshold: -1})
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	router, err := shard.NewRouter(shard.RouterConfig{Shards: urls, Logger: quietLogger(), JournalDir: e.sup.path("trace-router")})
	if err != nil {
		return err
	}
	defer router.Close()
	client := newClient(1)

	var skew, slowest, routerSelf []float64
	bytes := 0
	for i, q := range queries {
		var parts [2]shard.ClassifyPartial
		var calls [2]int
		var slow, fast float64
		for s, u := range urls {
			var body []byte
			var status int
			var err error
			calls[s] = tr.span("shard.call", i, func() {
				status, body, err = do(client, http.MethodGet, u+"/shard"+classifyURL("", q.Q), nil)
			})
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("traced shard call: status %d: %v", status, err)
			}
			if err := json.Unmarshal(body, &parts[s]); err != nil {
				return err
			}
			bytes += len(body)
			d := float64(tr.spans[calls[s]].End-tr.spans[calls[s]].Start) / 1e3
			if s == 0 || d > slow {
				slow = d
			}
			if s == 0 || d < fast {
				fast = d
			}
		}
		mg := tr.span("classify.merge", i, func() {
			classify.MergeScores([][]classify.Score{shard.WireScores(parts[0].Scores), shard.WireScores(parts[1].Scores)})
		})
		rt := tr.span("shard.router", i, func() {
			rec := httptest.NewRecorder()
			router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, classifyURL("", q.Q), nil))
			if rec.Code != http.StatusOK {
				rep.fails.add("traced router classify %q: status %d", q.Q, rec.Code)
			}
		})
		tr.nest(rt, mg, calls[0], calls[1])
		skew = append(skew, slow/fast)
		slowest = append(slowest, slow)
		// The router waits for its slowest shard; what is left is its own:
		// fan-out, gather, decode, merge, encode.
		routerSelf = append(routerSelf, float64(tr.spans[rt].End-tr.spans[rt].Start)/1e3-slow)
	}
	rep.attempted += len(queries)
	e.medianUs(tr, "shard.router_us", "shard.router")
	rep.set("shard.router_self_us", median(routerSelf), "us")
	rep.set("shard.slowest_shard_us", median(slowest), "us")
	rep.set("shard.skew", median(skew), "ratio")
	rep.set("shard.partial_bytes", float64(bytes)/float64(len(queries)), "B")
	e.medianUs(tr, "classify.merge_us", "classify.merge")
	return nil
}

// ---------------------------------------------------------------------------
// Write path (mixed-ingest)

// traceMixed is the traced half of mixed-ingest: the rebuild a recluster
// runs (replayed over everything that arrived), then the read path with and
// without the result cache, the ingest path layer by layer down to the WAL
// append, a structured query, checkpoint and recovery.
func traceMixed(e *env, base, arrived schema.Set, hot []query, timedClassifyP50Ms float64) error {
	rep := e.rep
	final := append(append(schema.Set{}, base...), arrived...)
	if _, err := e.traceBuildSystem(final, payg.Options{}); err != nil {
		return err
	}
	rep.set("payg.rebuild_s", rep.values["payg.build_total_s"].Value, "s")

	sys, err := payg.Build(base, payg.Options{})
	if err != nil {
		return err
	}
	tr := newTracer()
	queries := hot
	if len(queries) > e.p.TraceQueries {
		queries = queries[:e.p.TraceQueries]
	}
	if err := e.readPath(tr, sys, queries); err != nil {
		return err
	}

	// The server as mixed-ingest runs it: durable, fsync on every ack,
	// synthetic tuples behind every source, result cache on.
	sources := make([]payg.TupleSource, len(base))
	for i, s := range base {
		sources[i] = syntheticSource(s, int64(i))
	}
	dir := e.sup.path("trace-data")
	mopts := payg.ManagerOptions{
		DriftThreshold: -1, DataDir: dir, FsyncMode: "always", ServeData: true,
		MakeSource: func(s payg.Schema) payg.TupleSource { return syntheticSource(s, int64(len(s.Name))) },
	}
	mgr, err := payg.NewManager(sys, sources, mopts)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			mgr.Close()
		}
	}()
	srv := server.NewWithManager(mgr, server.Config{Logger: quietLogger()})

	// Cache hits: every query once to fill, then timed.
	for _, q := range queries {
		mgr.Classify(q.Q)
	}
	for i, q := range queries {
		m := tr.span("payg.cache_hit", i, func() { mgr.Classify(q.Q) })
		h := tr.span("server.handler_hit", i, func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, classifyURL("", q.Q), nil))
		})
		tr.nest(h, m)
	}
	e.medianUs(tr, "payg.cache_hit_us", "payg.cache_hit")
	hit := e.medianUs(tr, "server.handler_hit_us", "server.handler_hit")
	rep.set("loadgen.transport_us", timedClassifyP50Ms*1000-hit, "us")

	// Ingest, innermost first. Only the last call changes anything (the
	// manager journals the arrival); the layers below it are read-only.
	model := sys.Model()
	arrivals := arrived
	if len(arrivals) > e.p.TraceIngests {
		arrivals = arrivals[:e.p.TraceIngests]
	}
	walPath := filepath.Join(dir, "wal.log")
	walBefore := fileSize(walPath)
	newTerms := 0
	for i, s := range arrivals {
		x := tr.span("feature.extend", i, func() {
			ext, _ := model.Space.Extend(s)
			newTerms += ext.Dim() - model.Space.Dim()
		})
		a := tr.span("ingest.assign", i, func() {
			if _, err := ingest.Assign(model, s); err != nil {
				rep.fails.add("traced assign %s: %v", s.Name, err)
			}
		})
		si := tr.span("payg.system_ingest", i, func() {
			if _, err := sys.Ingest(s); err != nil {
				rep.fails.add("traced system ingest %s: %v", s.Name, err)
			}
		})
		mi := tr.span("payg.manager_ingest", i, func() {
			if _, err := mgr.Ingest(s); err != nil {
				rep.fails.add("traced manager ingest %s: %v", s.Name, err)
			}
		})
		tr.nest(a, x)
		tr.nest(si, a)
		tr.nest(mi, si)
	}
	rep.attempted += len(arrivals)
	if n := len(arrivals); n > 0 {
		e.medianUs(tr, "feature.extend_us", "feature.extend")
		rep.set("feature.extend_new_terms", float64(newTerms)/float64(n), "count")
		e.medianUs(tr, "ingest.assign_us", "ingest.assign")
		e.medianUs(tr, "payg.system_ingest_us", "payg.system_ingest")
		e.medianUs(tr, "payg.manager_ingest_us", "payg.manager_ingest")
		perIngest := (fileSize(walPath) - walBefore) / int64(n)
		if _, ok := rep.values["wal.bytes_per_ingest"]; !ok {
			rep.set("wal.bytes_per_ingest", float64(perIngest), "B")
		}
		// The WAL append alone, at the record size the manager writes.
		log, err := wal.Open(e.sup.path("trace-wal.log"), wal.Options{Mode: wal.SyncAlways})
		if err != nil {
			return err
		}
		payload := make([]byte, max(perIngest-8, 1))
		for i := 0; i < n; i++ {
			tr.span("wal.append", i, func() {
				if err := log.Append(payload); err != nil {
					rep.fails.add("traced wal append: %v", err)
				}
			})
		}
		if err := log.Close(); err != nil {
			return err
		}
		e.medianUs(tr, "wal.append_us", "wal.append")
	}

	// A structured query per sampled domain.
	ctx := context.Background()
	exec := mgr.Executor()
	for i, d := range sys.Domains() {
		if len(d.MediatedAttributes) == 0 || i >= e.p.TraceQueries {
			continue
		}
		sel := d.MediatedAttributes
		if len(sel) > 2 {
			sel = sel[:2]
		}
		tr.span("engine.execute", i, func() {
			if _, err := exec.Execute(ctx, d.ID, payg.Query{Select: sel, Limit: 5}); err != nil {
				rep.fails.add("traced execute domain %d: %v", d.ID, err)
			}
		})
	}
	e.medianUs(tr, "engine.execute_us", "engine.execute")

	// Checkpoint (the atomic snapshot write a swap performs) and recovery.
	snap := e.sup.path("trace-checkpoint.snap")
	t0 := time.Now()
	if err := mgr.SaveFile(snap); err != nil {
		return err
	}
	rep.set("payg.checkpoint_ms", time.Since(t0).Seconds()*1000, "ms")
	rep.set("payg.checkpoint_mb", float64(fileSize(snap))/(1<<20), "MB")
	mgr.Close()
	closed = true
	t0 = time.Now()
	recovered, err := payg.LoadManagerDir(dir, mopts)
	if err != nil {
		return err
	}
	rep.set("payg.recover_s", time.Since(t0).Seconds(), "s")
	if st := recovered.Status(); st.Schemas+st.Pending != len(base)+len(arrivals) {
		rep.wrong("recovery found %d schemas, %d were acked", st.Schemas+st.Pending, len(base)+len(arrivals))
	}
	recovered.Close()

	// Feedback is reported, and gates nothing.
	fb, err := payg.NewManager(sys, nil, payg.ManagerOptions{DriftThreshold: -1})
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := fb.ApplyFeedback(payg.Feedback{Splits: []int{0}}); err != nil {
		rep.fails.add("traced feedback: %v", err)
	}
	rep.set("feedback.apply_ms", time.Since(t0).Seconds()*1000, "ms")
	fb.Close()
	return tr.write(e.root, e.name)
}

// syntheticSource is the in-memory source payg-server attaches with
// -tuples 20.
func syntheticSource(s payg.Schema, seed int64) payg.TupleSource {
	rows := dataset.GenerateTuples(s, 20, seed)
	ts := make([]payg.Tuple, len(rows))
	for k, r := range rows {
		ts[k] = r
	}
	return payg.Source{Schema: s, Tuples: ts}
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
