package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schemaflow/internal/eval"
	"schemaflow/internal/schema"
	"schemaflow/payg"
)

// ---------------------------------------------------------------------------
// build-blocked

// runBuildBlocked is the offline workload: payg.Build in-process over the
// wide corpus, repeated for --seconds (at least BuildsPerSlice times). It is
// the only workload where feature.BuildLite, candidate generation,
// clustering, domain assignment, classifier construction and mediation do
// the work and every serving layer is idle.
func runBuildBlocked(e *env) error {
	rep := e.rep
	var set schema.Set
	var setups []float64
	// Set-up here is tens of milliseconds, so it is repeated eight times as
	// often as a server start: a median of 24 shrugs off stray stalls.
	for i := 0; i < 8*e.setupRuns(); i++ {
		t0 := time.Now()
		set = wideCorpus(e.p, e.seed)
		if err := os.WriteFile(e.sup.path("wide.txt"), corpusBytes(set), 0o644); err != nil {
			return err
		}
		t1 := time.Now()
		setups = append(setups, t1.Sub(t0).Seconds()*e.host.factor(t0, t1))
	}
	rep.setN("setup_s", median(setups), "s", len(setups))

	opts := e.buildOptions()
	var builds []float64         // milliseconds each
	var began, ended []time.Time // of each build
	var sys *payg.System
	cpu := 0.0
	domains := -1
	deadline := time.Now().Add(e.duration())
	for len(builds) < e.p.BuildsPerSlice || time.Now().Before(deadline) {
		runtime.GC() // the previous build's garbage is not this build's cost
		c0, err := cpuSeconds(os.Getpid())
		if err != nil {
			return err
		}
		t0 := time.Now()
		built, err := payg.Build(set, opts)
		t1 := time.Now()
		c1, _ := cpuSeconds(os.Getpid())
		rep.attempted++
		if err != nil {
			rep.fails.add("payg.Build: %v", err)
			if rep.fails.n > e.p.BuildsPerSlice {
				break
			}
			continue
		}
		sys = built
		builds = append(builds, t1.Sub(t0).Seconds()*1000)
		began, ended = append(began, t0), append(ended, t1)
		cpu += (c1 - c0) * e.host.factor(t0, t1)
		if domains >= 0 && sys.NumDomains() != domains {
			rep.wrong("payg.Build is not deterministic: %d domains, then %d", domains, sys.NumDomains())
		}
		domains = sys.NumDomains()
	}
	if sys == nil {
		return fmt.Errorf("no build succeeded: %v", rep.fails.reasons)
	}
	f1 := eval.PairwiseF1(sys.Model().Clustering.Assign, labelIDs(set))
	scale := func(lo, hi int) float64 { return e.host.factor(began[lo], ended[hi-1]) }
	p50, slices := sliceQuartile(builds, e.p.BuildsPerSlice, 50, scale)
	slowest, _ := sliceQuartile(builds, e.p.BuildsPerSlice, 100, scale)
	raw, _ := sliceQuartile(builds, e.p.BuildsPerSlice, 50, nil)
	rep.setN("p50_ms", p50, "ms", len(builds))
	rep.setN("tail_ms", slowest, "ms", len(builds))
	rep.set("cpu_ms", cpu/float64(len(builds))*1000, "ms")
	rep.set("quality", f1, "share")
	rep.set("loadgen.raw_p50_ms", raw, "ms")
	rep.set("loadgen.ops_per_s", float64(len(set))/(median(builds)/1000), "1/s")
	rep.set("build_s", median(builds)/1000, "s")
	rep.set("build_f1", f1, "share")
	rep.set("domains", float64(domains), "count")
	rep.note("%d payg.Build calls over %d schemas in %d slices of %d: p50_ms is the lower quartile over slices of the slice's median build, tail_ms of its slowest; cpu_ms the harness's CPU time per build (the build runs its phases on both cores); all three at the reference host speed (probe.go), loadgen.raw_p50_ms as the clock read; quality pairwise F1 against the generator's labels; loadgen.ops_per_s schemas clustered per second at the median build, as the clock read",
		len(builds), len(set), slices, e.p.BuildsPerSlice)
	if f1 < 0.5 {
		rep.wrong("pairwise F1 %.3f: the build no longer recovers the generator's domains", f1)
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	// Less the host probe's table, which is resident in full and is not the
	// build's.
	rep.set("rss_peak_mb", rss-probeTable*8/float64(1<<20), "MB")
	if e.trace {
		_, err = e.traceBuildSystem(set, opts)
	}
	return err
}

// labelIDs maps each schema's ground-truth label to a dense id, the
// partition eval.PairwiseF1 compares a clustering against.
func labelIDs(set schema.Set) []int {
	ids := map[string]int{}
	out := make([]int, len(set))
	for i, s := range set {
		l := labelOf(s.Name)
		if _, ok := ids[l]; !ok {
			ids[l] = len(ids)
		}
		out[i] = ids[l]
	}
	return out
}

func (e *env) duration() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// setupRuns is how often set-up is repeated: a traced run spends that time
// on the in-process layer calls instead.
func (e *env) setupRuns() int {
	if e.trace {
		return 1
	}
	return e.p.Setups
}

// buildOptions are the payg.Build options of the wide corpus; serverFlags
// passes the same choice to payg-server. The full scale uses the zero value
// ("auto", which picks the blocked path above 4,096 schemas); the smoke
// scale forces the blocked path so tests cover it on a tiny corpus.
func (e *env) buildOptions() payg.Options {
	if e.p.WideN < 4096 {
		return payg.Options{CandidateGen: "lsh"}
	}
	return payg.Options{}
}

func (e *env) wideServerFlags() []string {
	if e.p.WideN < 4096 {
		return []string{"-candgen", "lsh"}
	}
	return nil
}

// ---------------------------------------------------------------------------
// classify-wide, classify-fuzzy, classify-sharded

type streamKind int

const (
	wideStream streamKind = iota
	fuzzyStream
)

type topology int

const (
	singleNode topology = iota
	twoShards
)

// serving is a topology that answers the single-node HTTP API.
type serving struct {
	base  string  // where requests go
	procs []*proc // every process whose memory counts
}

// repeatSetup brings a topology up setupRuns times, stopping all but the
// last, and reports the median bring-up time as setup_s.
func (e *env) repeatSetup(start func(round int) (*serving, time.Duration, error)) (*serving, error) {
	var srv *serving
	var setups []float64
	for i := 0; i < e.setupRuns(); i++ {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		var err error
		t0 := time.Now()
		if srv, took, err = start(i); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds()*e.host.factor(t0, time.Now()))
	}
	e.rep.setN("setup_s", median(setups), "s", len(setups))
	return srv, nil
}

// startNode starts one payg-server as a serving topology of its own.
func (e *env) startNode(name string, args ...string) (*serving, time.Duration, error) {
	p, took, err := e.sup.startServer(name, e.bin, args...)
	if err != nil {
		return nil, 0, err
	}
	return &serving{base: p.base, procs: []*proc{p}}, took, nil
}

func (s *serving) stop() {
	for _, p := range s.procs {
		p.stop()
	}
}

func (s *serving) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, p := range s.procs {
		v, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// cpuSeconds sums the CPU time the topology's processes have used so far.
func (s *serving) cpuSeconds() (float64, error) {
	sum := 0.0
	for _, p := range s.procs {
		v, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// classifyInputs generates a classify workload's corpus and query stream,
// and says how the server (flags) and the traced replay (opts) build it.
func classifyInputs(e *env, kind streamKind) (set schema.Set, stream []query, flags []string, opts payg.Options) {
	n := e.p.WarmupOps + int(e.seconds*float64(e.p.MaxOpsPerSecond))
	if kind == fuzzyStream {
		set, c := fuzzyCorpus(e.p, e.seed)
		return set, fuzzyQueries(c, e.seed, n), nil, payg.Options{}
	}
	set = wideCorpus(e.p, e.seed)
	return set, wideQueries(set, e.seed, n), e.wideServerFlags(), e.buildOptions()
}

// runClassify is the closed-loop read workload: a served corpus, a stream
// of distinct keyword queries (so the result cache cannot help), one
// client. The stream decides which layer works: wide makes scoring over
// hundreds of domains dominate, fuzzy makes term matching dominate; the
// two-shard topology puts the router, the partial-score wire format and the
// merge on the path.
func runClassify(e *env, kind streamKind, topo topology) error {
	rep := e.rep
	set, stream, flags, opts := classifyInputs(e, kind)
	corpus := e.sup.path("corpus.txt")
	if err := os.WriteFile(corpus, corpusBytes(set), 0o644); err != nil {
		return err
	}

	start := func(round int) (*serving, time.Duration, error) {
		return e.startNode(fmt.Sprintf("server-%d", round), append([]string{"-in", corpus}, flags...)...)
	}
	if topo == twoShards {
		// The single node that writes the checkpoint is classify-wide's
		// set-up, measured there; here it is done once and what repeats is
		// what sharding adds: split, two shard recoveries, router.
		seedDir := e.sup.path("single")
		seed, took, err := e.startNode("seed", append([]string{"-in", corpus, "-data-dir", seedDir, "-drift-threshold", "-1"}, flags...)...)
		if err != nil {
			return err
		}
		seed.stop()
		rep.set("seed_node_s", took.Seconds(), "s")
		start = func(round int) (*serving, time.Duration, error) { return e.startShards(seedDir, round) }
	}
	srv, err := e.repeatSetup(start)
	if err != nil {
		return err
	}
	defer srv.stop()

	client := newClient(1)
	cat, err := fetchCatalog(client, srv.base)
	if err != nil {
		return err
	}
	rep.set("domains", float64(cat.numDomains), "count")
	hits0, err := cacheHits(client, srv)
	if err != nil {
		return err
	}

	// Each op is validated; top-1 domains are kept so accuracy can be
	// scored over the fixed warm-up prefix afterwards.
	top1 := make([]int32, len(stream))
	op := func(i int) {
		status, body, err := do(client, http.MethodGet, classifyURL(srv.base, stream[i].Q), nil)
		switch {
		case err != nil:
			rep.fails.add("classify %q: %v", stream[i].Q, err)
		case status != http.StatusOK:
			rep.fails.add("classify %q: status %d: %s", stream[i].Q, status, body)
		default:
			d, err := checkClassify(body, top, cat.numDomains)
			if err != nil {
				rep.fails.add("classify %q: %v", stream[i].Q, err)
			}
			top1[i] = int32(d)
		}
	}
	warm := e.p.WarmupOps
	defer e.host.hold()() // the client samples between its requests
	closedLoop(0, warm, op, e.host)
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	var lat []float64
	cuts := []time.Time{time.Now()} // slice s ran from cuts[s] to cuts[s+1]
	for next := warm; time.Since(cuts[0]) < e.duration() && next+e.p.SliceOps <= len(stream); next += e.p.SliceOps {
		lat = append(lat, closedLoop(next, e.p.SliceOps, op, e.host)...)
		cuts = append(cuts, time.Now())
	}
	began, ended := cuts[0], cuts[len(cuts)-1]
	wall := ended.Sub(began)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	rep.attempted += warm + len(lat)
	if len(lat) == 0 {
		return fmt.Errorf("the stream of %d queries holds no slice of %d after the warm-up", len(stream), e.p.SliceOps)
	}
	if warm+len(lat)+e.p.SliceOps > len(stream) {
		rep.note("the pre-generated stream ran out before --seconds did; raise MaxOpsPerSecond")
	}

	scale := func(lo, hi int) float64 {
		return e.host.factor(cuts[lo/e.p.SliceOps], cuts[(hi+e.p.SliceOps-1)/e.p.SliceOps])
	}
	p50, slices := sliceQuartile(lat, e.p.SliceOps, 50, scale)
	p99, _ := sliceQuartile(lat, e.p.SliceOps, 99, scale)
	raw, _ := sliceQuartile(lat, e.p.SliceOps, 50, nil)
	rep.setN("p50_ms", p50, "ms", e.p.SliceOps)
	rep.setN("tail_ms", p99, "ms", e.p.SliceOps)
	rep.set("cpu_ms", (cpu1-cpu0)/float64(len(lat))*1000*e.host.factor(began, ended), "ms")
	rep.set("loadgen.raw_p50_ms", raw, "ms")
	rep.set("loadgen.ops_per_s", float64(len(lat))/wall.Seconds(), "1/s")
	rep.note("%d timed ops in %d slices of %d: p50_ms / tail_ms are the lower quartile over slices of the slice's p50 / p99; cpu_ms is the serving processes' CPU time per op over the whole timed phase; all three at the reference host speed (probe.go), loadgen.raw_p50_ms and loadgen.ops_per_s as the clock read", len(lat), slices, e.p.SliceOps)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("rss_peak_mb", rss, "MB")

	right := 0
	for i := 0; i < warm; i++ {
		if cat.label[int(top1[i])] == stream[i].Label {
			right++
		}
	}
	acc := float64(right) / float64(warm)
	rep.setN("quality", acc, "share", warm)
	rep.note("quality is top-1 accuracy over the first %d ops of the stream (the untimed warm-up), so it repeats exactly at a fixed seed", warm)
	if acc < 0.5 {
		rep.wrong("top-1 accuracy %.3f: the classifier no longer finds the query's domain", acc)
	}
	hits1, err := cacheHits(client, srv)
	if err != nil {
		return err
	}
	if hits1 != hits0 {
		rep.wrong("%.0f result-cache hits on a stream of distinct queries", hits1-hits0)
	}
	srv.stop()

	if e.trace {
		return traceRead(e, set, opts, stream[:warm], topo, rep.values["loadgen.raw_p50_ms"].Value)
	}
	return nil
}

// startShards cuts the seed checkpoint in two, recovers both shards and
// puts a router in front; the returned duration is split → router healthy.
func (e *env) startShards(seedDir string, round int) (*serving, time.Duration, error) {
	t0 := time.Now()
	out := e.sup.path(fmt.Sprintf("shards-%d", round))
	split, err := e.sup.start(fmt.Sprintf("split-%d", round), e.bin, "-data-dir", seedDir, "-shard-split", "2", "-shard-out", out)
	if err != nil {
		return nil, 0, err
	}
	if err := split.wait(); err != nil {
		return nil, 0, err
	}
	// Both shards recover at once; shards[i] must be split index i, the
	// order -route lists them in.
	shards := make([]*proc, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i], _, errs[i] = e.sup.startServer(fmt.Sprintf("shard-%d-%d", round, i), e.bin,
				"-data-dir", filepath.Join(out, fmt.Sprintf("shard-%d", i)))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	router, _, err := e.sup.startServer(fmt.Sprintf("router-%d", round), e.bin,
		"-route", shards[0].base+","+shards[1].base, "-data-dir", e.sup.path(fmt.Sprintf("router-%d", round)))
	if err != nil {
		return nil, 0, err
	}
	return &serving{base: router.base, procs: []*proc{router, shards[0], shards[1]}}, time.Since(t0), nil
}

// fetchCatalog reads GET /domains.
func fetchCatalog(client *http.Client, base string) (*catalog, error) {
	var domains []domainEntry
	if err := getJSON(client, base+"/domains", &domains); err != nil {
		return nil, err
	}
	if len(domains) == 0 {
		return nil, fmt.Errorf("GET /domains: no domains")
	}
	return newCatalog(domains), nil
}

// metricCounter sums one counter out of a process's Prometheus text.
func metricCounter(client *http.Client, base, name string) (float64, error) {
	status, body, err := do(client, http.MethodGet, base+"/metrics", nil)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	sum := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest[strings.LastIndexByte(rest, ' ')+1:], "%g", &v); err == nil {
			sum += v
		}
	}
	return sum, nil
}

// cacheHits sums the result-cache hit counter over the processes that
// classify (the router itself has no cache; its /metrics is its own).
func cacheHits(client *http.Client, s *serving) (float64, error) {
	sum := 0.0
	for _, p := range s.procs {
		v, err := metricCounter(client, p.base, "schemaflow_query_cache_hits_total")
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// ---------------------------------------------------------------------------
// mixed-ingest

// runMixedIngest is writes beside reads: a durable server (WAL fsync on
// every ack) under an open-loop schedule of cached classifies, structured
// queries and arriving schemas, with a forced recluster every few hundred
// ops — rebuild, checkpoint and cache invalidation contending with traffic
// for two cores. A read gain bought with slower ingest, slower swaps or
// more memory shows up here.
func runMixedIngest(e *env) error {
	rep := e.rep
	base, heldOut := mixedCorpus(e.p, e.seed)
	hot := hotQueries(base, e.seed, e.p.MixedHot)
	sched := mixedSchedule(e.p, e.seed, int(e.seconds*e.p.MixedRate))
	corpus := e.sup.path("corpus.txt")
	if err := os.WriteFile(corpus, corpusBytes(base), 0o644); err != nil {
		return err
	}

	srv, err := e.repeatSetup(func(round int) (*serving, time.Duration, error) {
		return e.startNode(fmt.Sprintf("server-%d", round),
			"-in", corpus, "-data-dir", e.sup.path(fmt.Sprintf("data-%d", round)),
			"-fsync", "always", "-drift-threshold", "-1", "-tuples", "20")
	})
	if err != nil {
		return err
	}
	defer srv.stop()

	client := newClient(openConns)
	first, err := fetchCatalog(client, srv.base)
	if err != nil {
		return err
	}
	var cat atomic.Pointer[catalog]
	cat.Store(first)

	// Warm-up: a fixed run of hot-set classifies, closed loop. It fills
	// the result cache and, being fixed, scores quality exactly.
	warm := e.p.WarmupOps
	warmTop1 := make([]int32, warm)
	classify := func(q query) int {
		status, body, err := do(client, http.MethodGet, classifyURL(srv.base, q.Q), nil)
		if err != nil || status != http.StatusOK {
			rep.fails.add("classify %q: status %d: %v", q.Q, status, err)
			return -1
		}
		// The model may be a swap ahead of the catalog, so the id range is
		// not checked here; everything else about the body is.
		d, err := checkClassify(body, top, 1<<30)
		if err != nil {
			rep.fails.add("classify %q: %v", q.Q, err)
		}
		return d
	}
	closedLoop(0, warm, func(i int) {
		warmTop1[i] = int32(classify(hot[i%len(hot)]))
	}, nil)
	right := 0
	for i := 0; i < warm; i++ {
		if first.label[int(warmTop1[i])] == hot[i%len(hot)].Label {
			right++
		}
	}
	rep.attempted += warm
	rep.setN("quality", float64(right)/float64(warm), "share", warm)
	rep.note("quality is top-1 accuracy over the %d warm-up classifies (before any write), so it repeats exactly at a fixed seed", warm)

	hits0, _ := metricCounter(client, srv.base, "schemaflow_query_cache_hits_total")
	miss0, _ := metricCounter(client, srv.base, "schemaflow_query_cache_misses_total")
	wal0, _ := metricCounter(client, srv.base, "schemaflow_wal_appended_bytes_total")

	var acked, staleRetries atomic.Int64
	// Written by the admin goroutine alone, read once it has finished.
	var reclusters []float64
	var windows [][2]time.Time // POST /admin/recluster sent → catalog re-read
	adminClient := newClient(1)
	recluster := func() {
		t0 := time.Now()
		status, body, err := do(adminClient, http.MethodPost, srv.base+"/admin/recluster", nil)
		if err != nil || status != http.StatusOK {
			rep.fails.add("recluster: status %d: %v %s", status, err, body)
			return
		}
		took := time.Since(t0).Seconds()
		fresh, err := fetchCatalog(adminClient, srv.base)
		if err != nil {
			rep.fails.add("recluster: refreshing /domains: %v", err)
			return
		}
		cat.Store(fresh)
		reclusters = append(reclusters, took)
		windows = append(windows, [2]time.Time{t0, time.Now()})
	}
	query := func(arg uint32) {
		// Domain ids and mediated attributes change at every swap. A query
		// built from the catalog of the generation before is rejected with
		// a 4xx — correctly — so the catalog is read again and the query
		// rebuilt and resent, once; the refresh and the retry count in the
		// op's time.
		for attempt := 0; ; attempt++ {
			c := cat.Load()
			d := c.queryable[int(arg)%len(c.queryable)]
			sel := d.Mediated
			if len(sel) > 2 {
				sel = sel[:2]
			}
			body, _ := json.Marshal(map[string]any{"domain": d.ID, "select": sel, "limit": 5})
			status, resp, err := do(client, http.MethodPost, srv.base+"/query", body)
			if err == nil && status >= 400 && status < 500 && attempt == 0 {
				if fresh, err := fetchCatalog(client, srv.base); err == nil {
					cat.Store(fresh)
					staleRetries.Add(1)
					continue
				}
			}
			if err != nil || status != http.StatusOK {
				rep.fails.add("query domain %d: status %d: %v %s", d.ID, status, err, resp)
			} else if err := checkQuery(resp); err != nil {
				rep.fails.add("query domain %d: %v", d.ID, err)
			}
			return
		}
	}
	ingest := func(s schema.Schema) {
		body, _ := json.Marshal(map[string]any{"name": s.Name, "attributes": s.Attributes})
		status, resp, err := do(client, http.MethodPost, srv.base+"/schemas", body)
		if err != nil || status != http.StatusAccepted {
			rep.fails.add("ingest %s: status %d: %v %s", s.Name, status, err, resp)
			return
		}
		acked.Add(1)
		if err := checkIngest(resp, s.Name); err != nil {
			rep.fails.add("ingest %s: %v", s.Name, err)
		}
	}

	due := make([]int64, len(sched))
	for i, op := range sched {
		due[i] = op.DueNs
	}
	// The forced reclusters are an operator's doing, not the clients': they
	// go out on a connection of their own, so both client connections keep
	// to the schedule while the rebuild runs and the swap is published.
	admin := make(chan struct{}, len(sched)/e.p.MixedReclusterEvery+1) // one slot per recluster the schedule holds
	adminDone := make(chan struct{})
	go func() {
		defer close(adminDone)
		for range admin {
			recluster()
		}
	}()
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	res, start, wall := openLoop(due, func(i int) {
		switch op := sched[i]; op.Kind {
		case opClassify:
			classify(hot[op.Arg])
		case opQuery:
			query(op.Arg)
		case opIngest:
			ingest(heldOut[op.Arg])
		}
		if n := i + 1; n%e.p.MixedReclusterEvery == 0 && n < len(sched) {
			admin <- struct{}{}
		}
	})
	close(admin)
	<-adminDone
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	rep.attempted += len(sched) + len(reclusters)

	// An op is in a recluster window if any of its life — due time to
	// answer — overlapped one. What happens in there (a rebuild taking both
	// cores, a checkpoint fsync beside the WAL's, a cold cache after the
	// swap) is real, but a run holds a handful of windows and their tails do
	// not repeat; they are reported apart, per layer.
	inWindow := func(i int) bool {
		dueAt := start.Add(time.Duration(due[i]))
		endAt := dueAt.Add(time.Duration(res[i].LatencyMs * float64(time.Millisecond)))
		for _, w := range windows {
			if dueAt.Before(w[1]) && endAt.After(w[0]) {
				return true
			}
		}
		return false
	}
	byKind := make([][]float64, numOpKinds) // each in op order
	late := make([]float64, len(res))
	var inside, outside []float64
	var ackDue, ackDone []time.Time // of each POST /schemas, in op order
	for i, r := range res {
		late[i] = r.LateMs
		byKind[sched[i].Kind] = append(byKind[sched[i].Kind], r.LatencyMs)
		if sched[i].Kind == opIngest {
			dueAt := start.Add(time.Duration(due[i]))
			ackDue = append(ackDue, dueAt)
			ackDone = append(ackDone, dueAt.Add(time.Duration(r.LatencyMs*float64(time.Millisecond))))
		}
		if inWindow(i) {
			inside = append(inside, r.LatencyMs)
		} else {
			outside = append(outside, r.LatencyMs)
		}
	}
	sort.Float64s(inside)
	sort.Float64s(outside)
	// The gated latencies are the arrivals' — the op only this workload has,
	// and one whose time is the server's work (Extend, Assign, WAL fsync),
	// not the wake-up of an idle vCPU as a cached classify's is.
	acks := byKind[opIngest]
	scale := func(lo, hi int) float64 { return e.host.factor(ackDue[lo], ackDone[hi-1]) }
	p50, slices := sliceQuartile(acks, e.p.MixedSliceIngests, 50, scale)
	p90, _ := sliceQuartile(acks, e.p.MixedSliceIngests, 90, scale)
	raw, _ := sliceQuartile(acks, e.p.MixedSliceIngests, 50, nil)
	rep.setN("p50_ms", p50, "ms", e.p.MixedSliceIngests)
	rep.setN("tail_ms", p90, "ms", e.p.MixedSliceIngests)
	rep.set("cpu_ms", (cpu1-cpu0)/float64(len(sched))*1000*e.host.factor(start, start.Add(wall)), "ms")
	rep.set("loadgen.raw_p50_ms", raw, "ms")
	rep.note("%d POST /schemas acks, from due time, in %d slices of %d: p50_ms / tail_ms are the lower quartile over slices of the slice's p50 / p90 (a slice a forced recluster ran through is not among the quietest); cpu_ms is the server's CPU time per scheduled op over the whole phase, rebuilds included; all three at the reference host speed (probe.go), every loadgen.* as the clock read", len(acks), slices, e.p.MixedSliceIngests)
	rep.set("loadgen.window_share", float64(len(inside))/float64(len(res)), "share")
	rep.setN("loadgen.window_p50_ms", percentile(inside, 50), "ms", len(inside))
	rep.setN("loadgen.window_p90_ms", percentile(inside, 90), "ms", len(inside))
	rep.setN("loadgen.steady_p99_ms", percentile(outside, 99), "ms", len(outside))
	for k, name := range opKindNames {
		s := sortedCopy(byKind[k])
		rep.setN("loadgen."+name+"_p50_ms", percentile(s, 50), "ms", len(s))
		rep.setN("loadgen."+name+"_p99_ms", percentile(s, 99), "ms", len(s))
	}
	sort.Float64s(reclusters)
	rep.setN("loadgen.recluster_s", percentile(reclusters, 50), "s", len(reclusters))
	rep.setN("loadgen.late_p99_ms", percentile(sortedCopy(late), 99), "ms", len(late))
	rep.set("loadgen.achieved_rate", float64(len(sched))/wall.Seconds(), "1/s")
	rep.set("loadgen.ops_per_s", float64(len(sched))/wall.Seconds(), "1/s")
	rep.set("loadgen.stale_query_retries", float64(staleRetries.Load()), "count")

	hits1, _ := metricCounter(client, srv.base, "schemaflow_query_cache_hits_total")
	miss1, _ := metricCounter(client, srv.base, "schemaflow_query_cache_misses_total")
	wal1, _ := metricCounter(client, srv.base, "schemaflow_wal_appended_bytes_total")
	if lookups := hits1 - hits0 + miss1 - miss0; lookups > 0 {
		rep.set("payg.cache_hit_ratio", (hits1-hits0)/lookups, "share")
	}
	if n := acked.Load(); n > 0 && wal1 > wal0 {
		rep.set("wal.bytes_per_ingest", (wal1-wal0)/float64(n), "B")
	}

	var health struct {
		Schemas int `json:"schemas"`
		Pending int `json:"pending_schemas"`
	}
	if err := getJSON(client, srv.base+"/healthz", &health); err != nil {
		return err
	}
	if lost := lostAcks(len(base), int(acked.Load()), health.Schemas, health.Pending); lost > 0 {
		for i := 0; i < lost; i++ {
			rep.fails.add("acked schema missing after the run (%d of %d accounted for)", health.Schemas+health.Pending, len(base)+int(acked.Load()))
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("rss_peak_mb", rss, "MB")
	srv.stop()

	if e.trace {
		arrived := heldOut[:int(acked.Load())]
		return traceMixed(e, base, arrived, hot, rep.values["loadgen.classify_p50_ms"].Value)
	}
	return nil
}
