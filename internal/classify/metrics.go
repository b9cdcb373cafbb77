package classify

import (
	"math"
	"strconv"

	"schemaflow/internal/obs"
)

// Classifier behavior metrics, registered on the default registry. The
// posterior-entropy histogram is the operator's view of routing
// confidence: entropy near 0 means queries land decisively in one domain,
// entropy near log(#domains) means the classifier is guessing — typically
// a sign the domain model has drifted from the query workload.
var (
	mClassifyRequests = obs.Default().Counter(
		"schemaflow_classify_requests_total",
		"Keyword queries classified.")
	mClassifyEntropy = obs.Default().Histogram(
		"schemaflow_classify_posterior_entropy_nats",
		"Shannon entropy (nats) of the normalized posterior over domains per classified query.",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 1.5, 2, 3, 4})
	mClassifyTopDomain = obs.Default().CounterVec(
		"schemaflow_classify_top_domain_total",
		"Queries won by each domain id (ids are per-generation; they shift after a recluster).",
		"domain")
)

// observeClassification records one classification outcome: the request
// count, the posterior's entropy h over every domain (rankTop's), and which
// domain won — scores is the non-empty answer, best first.
func observeClassification(scores []Score, h float64) {
	mClassifyRequests.Inc()
	mClassifyEntropy.Observe(h)
	if !math.IsInf(scores[0].LogPosterior, -1) {
		mClassifyTopDomain.With(strconv.Itoa(scores[0].Domain)).Inc()
	}
}
