package payg

import "schemaflow/internal/obs"

// Serving-stack metrics, registered on the default registry so /metrics
// exposes them. Breaker metrics are labeled by source name (bounded by the
// number of attached sources); rebuild metrics by trigger kind.
var (
	mBreakerTransitions = obs.Default().CounterVec(
		"schemaflow_breaker_transitions_total",
		"Circuit-breaker state transitions per source; `to` is the state entered (closed, open, half-open).",
		"source", "to")
	mBreakerState = obs.Default().GaugeVec(
		"schemaflow_breaker_state",
		"Current circuit-breaker state per source: 0 closed, 1 open, 2 half-open.",
		"source")

	mIngestArrivals = obs.Default().Counter(
		"schemaflow_ingest_arrivals_total",
		"Schemas accepted by Manager.Ingest (POST /schemas).")
	mIngestFresh = obs.Default().Counter(
		"schemaflow_ingest_fresh_arrivals_total",
		"Ingested schemas no existing domain claimed (they seed new domains at the next rebuild).")
	mIngestPending = obs.Default().Gauge(
		"schemaflow_ingest_pending_schemas",
		"Journaled schemas accepted but not yet folded into the serving model.")
	mIngestDrift = obs.Default().Gauge(
		"schemaflow_ingest_drift_ratio",
		"Fraction of recent arrivals that were fresh (the drift-rebuild trigger signal).")

	mRebuildsStarted = obs.Default().CounterVec(
		"schemaflow_rebuilds_started_total",
		"Background recluster+rebuild flights started, by trigger (drift, interval, forced).",
		"trigger")
	mRebuildsPublished = obs.Default().Counter(
		"schemaflow_rebuilds_published_total",
		"Rebuilds that completed and were atomically swapped into serving.")
	mRebuildsFailed = obs.Default().Counter(
		"schemaflow_rebuilds_failed_total",
		"Rebuilds that ended in an error (shutdown cancellations excluded).")
	mRebuildsDiscarded = obs.Default().Counter(
		"schemaflow_rebuilds_discarded_total",
		"Completed rebuilds thrown away because the serving system changed mid-flight.")
	mRebuildDuration = obs.Default().Histogram(
		"schemaflow_rebuild_duration_seconds",
		"Wall-clock duration of background rebuild flights, published or not.",
		obs.DurationBuckets())
	mSwapGeneration = obs.Default().Gauge(
		"schemaflow_swap_generation",
		"Serving-state generation, bumped on every atomic swap (rebuild publication or feedback).")
	mFeedbackApplied = obs.Default().Counter(
		"schemaflow_feedback_applied_total",
		"User feedback batches applied and swapped into serving.")

	mQueryCacheHits = obs.Default().Counter(
		"schemaflow_query_cache_hits_total",
		"Classification requests answered from the generation-keyed query-result cache.")
	mQueryCacheMisses = obs.Default().Counter(
		"schemaflow_query_cache_misses_total",
		"Classification requests that had to run the classifier (absent or stale-generation entries).")
	mQueryCacheEvictions = obs.Default().Counter(
		"schemaflow_query_cache_evictions_total",
		"Query-cache entries dropped, by LRU capacity pressure or because their generation went stale.")
	mQueryCacheSize = obs.Default().Gauge(
		"schemaflow_query_cache_size",
		"Entries currently in the query-result cache.")
	mQueryBatchWidth = obs.Default().Histogram(
		"schemaflow_query_batch_width",
		"Queries per Manager.ClassifyBatch call (POST /classify/batch request width).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})

	mCheckpointsWritten = obs.Default().Counter(
		"schemaflow_checkpoints_written_total",
		"Durable checkpoint snapshots written (after recluster swaps and at recovery compaction).")
	mCheckpointErrors = obs.Default().Counter(
		"schemaflow_checkpoint_errors_total",
		"Checkpoint writes or post-checkpoint WAL truncations that failed; the WAL is kept so recovery loses nothing.")
	mCheckpointDuration = obs.Default().Histogram(
		"schemaflow_checkpoint_duration_seconds",
		"Wall-clock duration of one checkpoint write (serialize, fsync, rename, WAL truncate, prune).",
		obs.DurationBuckets())
	mCheckpointGeneration = obs.Default().Gauge(
		"schemaflow_checkpoint_generation",
		"Generation stamped on the newest durable checkpoint. Lag behind schemaflow_swap_generation is the WAL replay a crash would incur.")

	mBuildPhase = obs.Default().HistogramVec(
		"schemaflow_build_phase_duration_seconds",
		"Duration of each Build pipeline phase (features, candidates, pairwise, cluster, domains, classifier, mediation).",
		obs.DurationBuckets(),
		"phase")

	mClassifierTableBytes = obs.Default().Gauge(
		"schemaflow_classifier_table_bytes",
		"Bytes held by the most recently assembled system's classifier tables (per-domain defaults plus the terms each domain's members mention).")

	mBuildMode = obs.Default().CounterVec(
		"schemaflow_build_mode_total",
		"Builds by where the clustering's schema pairs came from: exact (every pair) or blocked (MinHash-LSH candidates).",
		"mode")
	mBuildCandidatePairs = obs.Default().Gauge(
		"schemaflow_build_candidate_pairs",
		"Positive-similarity pairs the band filter examined in the most recent blocked build, before Collide decided which to keep.")
	mBuildCandidateFraction = obs.Default().Gauge(
		"schemaflow_build_candidate_fraction",
		"schemaflow_build_candidate_pairs as a fraction of all n(n-1)/2 pairs in the most recent blocked build: the positive share of the corpus, the work the pairwise phase cannot skip.")
	mBuildStoredPairs = obs.Default().Gauge(
		"schemaflow_build_stored_pairs",
		"Positive-similarity pairs the most recent build stored: the pair graph Algorithms 2 and 3 both read (on a blocked build, the ones the bands kept).")
	mBuildHACWorkers = obs.Default().Gauge(
		"schemaflow_build_hac_workers",
		"Worker goroutines available to the most recent build's clustering: Algorithm 2 runs one independent component per worker.")
	mBuildHACComponents = obs.Default().Gauge(
		"schemaflow_build_hac_components",
		"Independent groups of schemas (components of the similarity graph at the clustering threshold) the most recent build's Algorithm 2 ran as; 1 means a single sequential run.")
	mBuildHACLargestComponent = obs.Default().Gauge(
		"schemaflow_build_hac_largest_component",
		"Schemas in the largest of those components: the sequential part of the most recent build's clustering.")
)
