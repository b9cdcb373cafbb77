package feature

import "schemaflow/internal/obs"

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
