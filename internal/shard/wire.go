package shard

import (
	"math"

	"schemaflow/internal/classify"
	"schemaflow/payg"
)

// The shard wire protocol: what a shard replica reports to the router.
// Partial scores carry the *raw* per-domain log posterior — never the
// shard-locally normalized posterior, which is meaningless globally — so
// the router can re-run the single-node normalization over the
// concatenated partials (classify.MergeTop) and recover the exact
// floats. JSON cannot encode -Inf, so a skipped/empty domain travels as
// NegInf=true; Go's float64 JSON round-trip is exact for every finite
// value (shortest-representation encoding), which is what keeps the
// merged ranking bit-identical across the wire hop.

// PartialScore is one local domain's contribution to a ranking.
type PartialScore struct {
	// Domain is the global domain id.
	Domain int `json:"domain"`
	// LP is the raw log posterior (meaningful only when NegInf is false).
	LP float64 `json:"lp"`
	// NegInf marks a -Inf log posterior (JSON cannot carry the value).
	NegInf bool `json:"neg_inf,omitempty"`
	// Mediated is the domain's mediated schema, attached only to the
	// shard's top-k local entries (the only ones that can reach a global
	// top-k — see the superset argument in the package docs).
	Mediated []string `json:"mediated_schema,omitempty"`
}

// ClassifyPartial is a shard's answer to GET /shard/classify: its local
// domains' raw scores plus enough context for the router to check
// coverage and model consistency.
type ClassifyPartial struct {
	Generation   int            `json:"generation"`
	TotalDomains int            `json:"total_domains"`
	Scores       []PartialScore `json:"scores"`
}

// BatchPartial is a shard's answer to POST /shard/classify/batch: one
// partial score list per query, in request order.
type BatchPartial struct {
	Generation   int              `json:"generation"`
	TotalDomains int              `json:"total_domains"`
	Results      [][]PartialScore `json:"results"`
}

// AssignProbe is a shard's answer to POST /shard/assign: the read-only
// Algorithm-3 probe of an arriving schema against the shard's local
// domains. BestSim is comparable across shards (every shard holds the
// full feature space), so the router's argmax over probes is the global
// argmax; the arrival is globally fresh iff every shard reports Fresh.
type AssignProbe struct {
	Generation int     `json:"generation"`
	BestDomain int     `json:"best_domain"`
	BestSim    float64 `json:"best_sim"`
	Fresh      bool    `json:"fresh"`
}

// PartialScores converts a full ranking computed on sys into the shard's
// wire partial: local domains only, in rank order, raw log posteriors,
// mediated schemas attached to the first top local entries.
func PartialScores(scores []classify.Score, sys *payg.System, top int) []PartialScore {
	out := make([]PartialScore, 0, sys.NumLocalDomains())
	attached := 0
	for _, sc := range scores {
		if !sys.IsLocalDomain(sc.Domain) {
			continue
		}
		ps := PartialScore{Domain: sc.Domain, LP: sc.LogPosterior}
		if math.IsInf(sc.LogPosterior, -1) {
			ps.LP, ps.NegInf = 0, true
		}
		if attached < top {
			if attrs, err := sys.MediatedAttributes(sc.Domain); err == nil {
				ps.Mediated = attrs
			}
			attached++
		}
		out = append(out, ps)
	}
	return out
}

// WireScores converts wire partial scores back to classifier scores,
// restoring -Inf. Posterior is left zero — MergeTop recomputes it.
func WireScores(ps []PartialScore) []classify.Score {
	out := make([]classify.Score, len(ps))
	for i, p := range ps {
		lp := p.LP
		if p.NegInf {
			lp = math.Inf(-1)
		}
		out[i] = classify.Score{Domain: p.Domain, LogPosterior: lp}
	}
	return out
}
