package ingest

import "schemaflow/internal/obs"

// mAssignDuration times Algorithm-3 assignment of one arriving schema
// against the serving clusters — the latency an ingest client pays before
// its 202, and the number to compare against
// schemaflow_build_phase_duration_seconds to see what incremental
// assignment saves over a full rebuild.
var mAssignDuration = obs.Default().Histogram(
	"schemaflow_ingest_assign_duration_seconds",
	"Duration of incremental (Algorithm 3) assignment of one arriving schema against serving clusters.",
	obs.DurationBuckets())

// mExtendNewTerms tracks how many novel vocabulary terms each arrival
// carries — the dimensions a space over the grown set adds — as the probe
// that scores it on the serving space counts them. A mostly-zero
// distribution means arrivals speak the vocabulary the model already knows;
// a fat tail means the corpus vocabulary is still growing and rebuilds will
// keep shifting the space.
var mExtendNewTerms = obs.Default().Histogram(
	"schemaflow_ingest_extend_new_terms",
	"Novel vocabulary terms per arriving schema (what incremental feature-space extension would append).",
	[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128})
