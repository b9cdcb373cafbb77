package feature

import "schemaflow/internal/obs"

// mExtendFallback counts incremental feature-space extensions that could
// not take the incremental route and fell back to a full BuildLite rebuild
// (TermFrequency mode: per-occurrence counts cannot be patched in place);
// Probe falls back to one such extension in that mode.
// A nonzero rate on a serving system means every "incremental" ingest is
// silently paying rebuild cost — switch the space to Binary mode or expect
// assignment latency to scale with corpus size.
var mExtendFallback = obs.Default().Counter(
	"schemaflow_ingest_extend_fallback_total",
	"Incremental feature-space extensions that fell back to a full rebuild (TermFrequency counts cannot be patched in place).")

// mMatchVerifications and mMatchHits count, once per g-gram lookup, the
// vocabulary terms that survived the length and count filters and were
// checked, and the ones that matched. hits ÷ verifications is the matcher's
// useful-outcomes-per-attempt ratio: near 1 the filters leave almost only
// true matches, a low ratio means lookups pay for LCS runs that reject.
var (
	mMatchVerifications = obs.Default().Counter(
		"schemaflow_feature_match_verifications_total",
		"Vocabulary terms that passed the g-gram matcher's length and count filters and were checked against the term (equality, else the threshold LCS).")
	mMatchHits = obs.Default().Counter(
		"schemaflow_feature_match_hits_total",
		"Checks that confirmed a match; divide by schemaflow_feature_match_verifications_total for the share of verifications that were useful.")
)
