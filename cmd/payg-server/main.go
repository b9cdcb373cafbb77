// Command payg-server serves a pay-as-you-go integration system over HTTP:
// the Figure 3.1 search-engine workflow as a service. It builds the system
// from a schema file, optionally attaches synthetic data so /query works,
// and listens for JSON requests.
//
// The query path runs under a per-source resilience policy (timeout,
// retries with backoff, circuit breaker) and degrades gracefully: when
// some sources fail, /query returns the healthy sources' tuples plus a
// "degraded" report instead of an error. The server itself drains
// connections on SIGINT/SIGTERM, recovers panics, and bounds request
// bodies and durations.
//
// New schemas can arrive while the server runs (POST /schemas): each is
// assigned to current domains immediately and journaled; when the fraction
// of unassignable arrivals drifts past -drift-threshold (or every
// -rebuild-interval while schemas are pending, or on POST
// /admin/recluster) the model is fully reclustered in the background and
// swapped in atomically — traffic never blocks on a rebuild.
//
// With -data-dir the server is durable: every accepted ingest and
// feedback is written to a write-ahead log before it is acknowledged, and
// every recluster swap writes an atomic checkpoint. On restart with the
// same -data-dir the server recovers its exact pre-crash state (newest
// checkpoint + WAL replay) and ignores -in. -fsync picks the WAL
// durability/latency trade-off; see docs/OPERATIONS.md § Durability.
//
// With -follow the server is a read-only replica instead: it bootstraps
// from the leader's GET /admin/snapshot, serves every read endpoint
// locally, rejects writes with 403, and polls the leader every
// -poll-interval, atomically swapping in each new generation.
//
// The serving tier also shards horizontally (see DESIGN.md § 11):
//
//   - payg-server -data-dir /var/lib/payg -shard-split 2 -shard-out /var/lib/shards
//     cuts the newest single-node checkpoint into per-shard data dirs
//     (shard-0, shard-1, ...) and exits.
//   - payg-server -data-dir /var/lib/shards/shard-0 serves one shard: the
//     shard.json manifest written by the splitter is auto-detected, the
//     system recovers domain-pruned, and drift/interval rebuilds are
//     disabled (a recluster is a topology-wide operation).
//   - payg-server -route http://s0:8081,http://s1:8082 -data-dir /var/lib/payg-router
//     runs the scatter-gather router: it speaks the ordinary API, merges
//     per-shard classification partials bit-identically to a single node,
//     routes ingests to the winning shard, and journals unroutable
//     arrivals under -data-dir.
//
// The server is observable in production: GET /metrics exposes the full
// metrics registry (Prometheus text format; JSON with Accept:
// application/json), GET /healthz reports ingestion status, serving
// generation, and per-source circuit-breaker states, every request is
// logged as one structured JSON line on stderr, and -pprof mounts
// net/http/pprof under /debug/pprof/. See docs/OPERATIONS.md for the
// runbook and docs/METRICS.md for the metric reference.
//
// Usage:
//
//	payg-server -in schemas.txt [-addr :8080] [-tau 0.25] [-tuples 20]
//	            [-drift-threshold 0.5] [-rebuild-interval 0] [-pprof]
//	            [-data-dir /var/lib/payg] [-fsync always|interval|none]
//	            [-flake 'air1:down=2s+3s']
//	payg-server -follow http://leader:8080 [-addr :8081] [-poll-interval 2s]
//
//	curl 'localhost:8080/classify?q=departure+toronto'
//	curl 'localhost:8080/domains'
//	curl -X POST localhost:8080/query -d '{"domain":0,"select":["departure"]}'
//	curl -X POST localhost:8080/schemas -d '{"name":"cruises","attributes":["departure port","destination port","price"]}'
//	curl -X POST localhost:8080/admin/recluster
//	curl 'localhost:8080/metrics'
//	curl 'localhost:8080/healthz'
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"schemaflow/internal/cli"
	"schemaflow/internal/dataset"
	"schemaflow/internal/par"
	"schemaflow/internal/server"
	"schemaflow/internal/shard"
	"schemaflow/payg"
)

type options struct {
	in, addr        string
	tau             float64
	candGen         string
	tuples          int
	driftThreshold  float64
	rebuildInterval time.Duration
	pprofOn         bool
	queryCache      int
	dataDir         string
	fsync           string
	follow          string
	pollInterval    time.Duration
	route           string
	shardSplit      int
	shardOut        string
	flakes          []flakeSpec
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "schema file (.json or line format); required unless recovering from -data-dir or following")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.Float64Var(&o.tau, "tau", 0.25, "clustering threshold tau_c_sim")
	flag.StringVar(&o.candGen, "candgen", "auto", "clustering pair graph: auto, exact, or lsh (the blocked build, pairs at or above a similarity floor; \"lsh\" is its historical name)")
	flag.IntVar(&o.tuples, "tuples", 20, "synthetic tuples per source for /query (0 disables data)")
	flag.Float64Var(&o.driftThreshold, "drift-threshold", 0.5, "fraction of recent unassignable arrivals that triggers a background recluster (negative disables)")
	flag.DurationVar(&o.rebuildInterval, "rebuild-interval", 0, "periodically recluster while ingested schemas are pending (0 disables)")
	flag.BoolVar(&o.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.IntVar(&o.queryCache, "query-cache", 0, "max cached classification results (0 = default 1024, negative disables)")
	flag.StringVar(&o.dataDir, "data-dir", "", "durability directory (WAL + checkpoints); restart with the same dir to recover")
	flag.StringVar(&o.fsync, "fsync", "always", "WAL fsync policy: always, interval, or none")
	flag.StringVar(&o.follow, "follow", "", "leader base URL; run as a read-only snapshot-shipping follower")
	flag.DurationVar(&o.pollInterval, "poll-interval", 2*time.Second, "follower poll period against the leader")
	flag.StringVar(&o.route, "route", "", "comma-separated shard base URLs; run as a scatter-gather router (-data-dir holds the unroutable-arrival journal)")
	flag.IntVar(&o.shardSplit, "shard-split", 0, "split -data-dir's newest checkpoint into this many shard data dirs under -shard-out, then exit")
	flag.StringVar(&o.shardOut, "shard-out", "", "output directory for -shard-split (shard-0, shard-1, ... are created inside it)")
	flag.Func("flake", "inject faults into a synthetic source: NAME:err=0.1,lat=5ms,jit=5ms,down=2s+3s (NAME=* for all; down= repeatable; flag repeatable; chaos testing only)", func(s string) error {
		spec, err := parseFlakeSpec(s)
		if err != nil {
			return err
		}
		o.flakes = append(o.flakes, spec)
		return nil
	})
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil)).With(slog.String("app", "payg-server"))
	if o.shardSplit > 0 {
		if err := runSplit(logger, o); err != nil {
			logger.Error("fatal", slog.Any("error", err))
			os.Exit(1)
		}
		return
	}
	if err := run(logger, o); err != nil {
		logger.Error("fatal", slog.Any("error", err))
		os.Exit(1)
	}
}

// app is one assembled serving mode: the handler to mount, an optional
// follower poll loop, and the teardown for whatever the mode owns.
type app struct {
	handler  http.Handler
	follower *server.Follower
	close    func()
}

func run(logger *slog.Logger, o options) error {
	a, err := buildApp(logger, o)
	if err != nil {
		return err
	}
	defer a.close()

	srv := &http.Server{
		Addr:              o.addr,
		Handler:           a.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Serve until the listener fails or a shutdown signal arrives; on
	// SIGINT/SIGTERM drain in-flight connections before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if a.follower != nil {
		go a.follower.Run(ctx)
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			slog.String("addr", o.addr),
			slog.Bool("pprof", o.pprofOn),
			slog.Bool("follower", a.follower != nil),
			slog.Bool("router", o.route != ""))
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		logger.Info("shutdown signal received; draining connections")
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logger.Info("shutdown complete")
		return nil
	}
}

// buildApp picks the startup path: scatter-gather router, follower
// replica, recovery from an initialized data dir (shard or single-node),
// or a fresh build from the schema file. Every path that hosts a manager
// starts from the one managerOptions value.
func buildApp(logger *slog.Logger, o options) (*app, error) {
	if o.route != "" {
		if o.follow != "" {
			return nil, errors.New("-route and -follow are mutually exclusive")
		}
		return buildRouter(logger, o)
	}
	opts := managerOptions(logger, o)
	if o.follow != "" {
		if o.dataDir != "" {
			return nil, errors.New("-follow and -data-dir are mutually exclusive: durability lives on the leader")
		}
		return buildFollower(logger, o, opts)
	}

	if o.dataDir != "" {
		// A shard.json manifest marks the dir as one slice of a sharded
		// topology (written by -shard-split); serve it domain-pruned.
		man, sharded, err := shard.ReadManifest(o.dataDir)
		if err != nil {
			return nil, err
		}
		ok, err := payg.HasCheckpoint(o.dataDir)
		if err != nil {
			return nil, err
		}
		if sharded {
			if !ok {
				return nil, fmt.Errorf("%s has a shard manifest but no checkpoint; re-run -shard-split", o.dataDir)
			}
			return recoverServer(logger, o, opts, &man)
		}
		if ok {
			return recoverServer(logger, o, opts, nil)
		}
	}

	if o.in == "" {
		return nil, errors.New("-in is required (no -data-dir checkpoint to recover, not following)")
	}
	start := time.Now()
	set, err := cli.ReadSchemasFile(o.in)
	if err != nil {
		return nil, err
	}
	startupPhase("read", start)
	start = time.Now()
	sys, err := payg.Build(set, payg.Options{
		TauCSim:      o.tau,
		CandidateGen: o.candGen,
	})
	if err != nil {
		return nil, err
	}
	logger.Info("system built",
		slog.Int("domains", sys.NumDomains()),
		slog.Int("schemas", sys.NumSchemas()),
		slog.Duration("took", startupPhase("build", start).Round(time.Millisecond)))

	var sources []payg.TupleSource
	if opts.ServeData {
		// Sources are independent and land by index, so they are made on
		// every core; makeSource only reads o and logs.
		start = time.Now()
		sources = make([]payg.TupleSource, len(set))
		par.Each(len(set), func(i int) {
			sources[i] = opts.MakeSource(set[i])
		})
		logger.Info("attached synthetic data",
			slog.Int("tuples_per_source", o.tuples),
			slog.Duration("took", startupPhase("sources", start).Round(time.Millisecond)))
	}

	start = time.Now()
	mgr, err := payg.NewManager(sys, sources, opts)
	if err != nil {
		return nil, err
	}
	handler := server.NewWithManager(mgr, server.Config{Logger: logger, EnablePprof: o.pprofOn})
	startupPhase("serve", start)
	return &app{handler: handler, close: handler.Close}, nil
}

// managerOptions is this node's one manager configuration: a fresh boot
// uses it as is, recovery adds what a shard needs, and a follower turns
// interval rebuilds off. Arrivals get their synthetic rows from the same
// makeSource the boot and recovery paths use.
func managerOptions(logger *slog.Logger, o options) payg.ManagerOptions {
	return payg.ManagerOptions{
		DriftThreshold:  o.driftThreshold,
		RebuildInterval: o.rebuildInterval,
		QueryCacheSize:  o.queryCache,
		DataDir:         o.dataDir,
		FsyncMode:       o.fsync,
		ServeData:       o.tuples > 0,
		MakeSource: func(sch payg.Schema) payg.TupleSource {
			return makeSource(logger, o, sch)
		},
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	}
}

// startupPhase records how long one phase of this process's start took, in
// schemaflow_startup_phase_seconds, and returns it.
func startupPhase(phase string, start time.Time) time.Duration {
	d := time.Since(start)
	server.ObserveStartup(phase, d)
	return d
}

// buildRouter assembles the scatter-gather front-end over -route's shard
// URLs; -data-dir (required) holds the unroutable-arrival journal.
func buildRouter(logger *slog.Logger, o options) (*app, error) {
	if o.dataDir == "" {
		return nil, errors.New("-route requires -data-dir for the unroutable-arrival journal")
	}
	var urls []string
	for _, u := range strings.Split(o.route, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, errors.New("-route lists no shard URLs")
	}
	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards:     urls,
		Logger:     logger,
		JournalDir: o.dataDir,
	})
	if err != nil {
		return nil, err
	}
	logger.Info("routing over shards", slog.Int("shards", len(urls)), slog.Any("urls", urls))
	return &app{handler: rt, close: func() {
		if err := rt.Close(); err != nil {
			logger.Warn("closing router journal", slog.Any("error", err))
		}
	}}, nil
}

// runSplit is the offline checkpoint splitter: -data-dir's newest
// checkpoint becomes -shard-split pruned shard dirs under -shard-out.
func runSplit(logger *slog.Logger, o options) error {
	if o.dataDir == "" {
		return errors.New("-shard-split requires -data-dir (the single-node checkpoint to split)")
	}
	if o.shardOut == "" {
		return errors.New("-shard-split requires -shard-out")
	}
	start := time.Now()
	sum, err := shard.SplitCheckpoint(o.dataDir, o.shardOut, o.shardSplit)
	if err != nil {
		return err
	}
	for i, dir := range sum.Dirs {
		logger.Info("shard written",
			slog.Int("shard", i),
			slog.String("dir", dir),
			slog.Int("local_domains", sum.LocalDomains[i]),
			slog.Int("pending", sum.Pending[i]))
	}
	logger.Info("split complete",
		slog.Int("shards", o.shardSplit),
		slog.Int("domains", sum.Domains),
		slog.Int("generation", sum.Generation),
		slog.Duration("took", time.Since(start).Round(time.Millisecond)))
	return nil
}

// recoverServer restores the pre-crash state from the data dir: newest
// checkpoint plus WAL replay. -in is ignored — the durable state is the
// source of truth. A non-nil manifest serves the dir as one shard of a
// sharded topology: the recovered system is re-pruned to the manifest's
// slice of the hash ring after every rebuild, and local drift/interval
// reclusters are disabled (a recluster is a topology-wide operation).
func recoverServer(logger *slog.Logger, o options, opts payg.ManagerOptions, man *shard.Manifest) (*app, error) {
	if o.in != "" {
		logger.Warn("ignoring -in: recovering state from -data-dir", slog.String("data_dir", o.dataDir))
	}
	if man != nil {
		opts.DriftThreshold = -1
		opts.RebuildInterval = 0
		opts.Transform = func(sys *payg.System) (*payg.System, error) {
			return sys.Shard(shard.LocalDomains(sys.NumDomains(), man.Index, man.Shards))
		}
	}
	start := time.Now()
	mgr, err := payg.LoadManagerDir(o.dataDir, opts)
	if err != nil {
		return nil, fmt.Errorf("recovering from %s: %w", o.dataDir, err)
	}
	st := mgr.Status()
	logger.Info("recovered from data dir",
		slog.String("data_dir", o.dataDir),
		slog.Int("schemas", st.Schemas),
		slog.Int("domains", st.Domains),
		slog.Int("pending", st.Pending),
		slog.Int("generation", st.Generation),
		slog.Duration("took", startupPhase("build", start).Round(time.Millisecond)))
	if man != nil {
		logger.Info("serving as shard",
			slog.Int("shard", man.Index),
			slog.Int("shards", man.Shards),
			slog.Int("local_domains", mgr.System().NumLocalDomains()))
	}
	start = time.Now()
	handler := server.NewWithManager(mgr, server.Config{Logger: logger, EnablePprof: o.pprofOn})
	startupPhase("serve", start)
	return &app{handler: handler, close: handler.Close}, nil
}

// buildFollower bootstraps a read-only replica from the leader's current
// snapshot and returns the poll loop that keeps it converged. State arrives
// only by snapshot, so the replica starts no interval rebuild of its own.
func buildFollower(logger *slog.Logger, o options, opts payg.ManagerOptions) (*app, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, gen, err := server.FetchSnapshot(ctx, nil, o.follow)
	if err != nil {
		return nil, fmt.Errorf("bootstrapping from leader %s: %w", o.follow, err)
	}
	opts.RebuildInterval = 0
	mgr, err := payg.LoadManagerAt(bytes.NewReader(snap), gen, nil, opts)
	if err != nil {
		return nil, fmt.Errorf("loading leader snapshot: %w", err)
	}
	st := mgr.Status()
	logger.Info("bootstrapped from leader",
		slog.String("leader", o.follow),
		slog.Int("schemas", st.Schemas),
		slog.Int("domains", st.Domains),
		slog.Int("generation", st.Generation))
	handler := server.NewWithManager(mgr, server.Config{
		Logger:      logger,
		EnablePprof: o.pprofOn,
		ReadOnly:    true,
	})
	follower := server.NewFollower(mgr, server.FollowerConfig{
		Leader:   o.follow,
		Interval: o.pollInterval,
		Logger:   logger,
	})
	return &app{handler: handler, follower: follower, close: handler.Close}, nil
}

// makeSource builds a deterministic in-memory source for a schema so
// /query serves data without external systems, wrapped in a fault
// injector when a -flake spec matches the schema name. The rows are a
// function of the schema alone — seeded by its name — so a source serves the
// same rows whether the node booted from -in, recovered from -data-dir, was
// cut by -shard-split or took the schema as an arrival.
func makeSource(logger *slog.Logger, o options, s payg.Schema) payg.TupleSource {
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	seed := int64(h.Sum64())
	rows := dataset.GenerateTuples(s, o.tuples, seed)
	ts := make([]payg.Tuple, len(rows))
	for k, r := range rows {
		ts[k] = r
	}
	if sp, ok := matchFlake(o.flakes, s.Name); ok {
		logger.Info("flake applied to source",
			slog.String("source", s.Name),
			slog.Float64("err_rate", sp.errRate),
			slog.Duration("latency", sp.latency),
			slog.Int("blackout_windows", len(sp.windows)))
		return applyFlake(sp, s.Name, ts, seed)
	}
	return payg.Source{Schema: s, Tuples: ts}
}
