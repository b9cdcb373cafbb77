// Package ingest implements the online half of pay-as-you-go integration:
// source schemas keep arriving after the system is built, and each arrival
// must be routed to its domains immediately — without re-running clustering,
// classifier setup, or mediation.
//
// The package supplies the two mechanisms the online pipeline composes:
//
//   - Assign places one new schema against the *current* probabilistic
//     domain model using exactly the gates of Algorithm 3 (Section 4.3):
//     the schema's feature vector is compared to every cluster (summing
//     over the schemas it shares a feature with; every other similarity is
//     an exact zero); clusters passing both the absolute τ_c_sim gate and
//     the relative θ gate share the schema with probabilities proportional
//     to similarity. The schema is scored on the serving feature space as
//     it stands: feature.Space.Probe reads its row of the space Algorithm 1
//     builds over the corpus and the arrival, without building that space.
//     Nothing in the model — in particular the classifier's precomputed
//     tables — is touched.
//   - Window tracks assignment-quality drift: the fraction of recent
//     arrivals that no existing domain could claim. A high ratio means the
//     model no longer covers the incoming schema distribution and a full
//     recluster is warranted.
//
// The lifecycle that ties these together — the pending list, background
// rebuild, single flight, copy-on-write atomic swap — lives in payg.Manager;
// this package is pure model-level mechanism with no locking of its own. Assign times
// itself into the schemaflow_ingest_assign_duration_seconds histogram
// (internal/obs), the number to weigh against a full rebuild's
// schemaflow_build_phase_duration_seconds when tuning drift thresholds.
package ingest

import (
	"sync"
	"time"

	"schemaflow/internal/core"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// Assignment is the outcome of routing one new schema against an existing
// domain model.
type Assignment struct {
	// Domains lists the domains that claimed the schema. As in
	// core.Model.DomainsOf, the Membership.Schema field holds the domain
	// id; probabilities sum to 1. Empty iff Fresh.
	Domains []core.Membership
	// Best is the id of the most similar domain, whether or not it passed
	// the gate. It is -1 when the model has no domains, and also when every
	// schema-to-cluster similarity is exactly 0 — an arrival sharing no
	// matched term with any cluster has no meaningful "most similar" domain
	// to report (such an arrival is always Fresh).
	Best int
	// BestSim is s_c_sim against the Best domain (0 when Best is -1).
	BestSim float64
	// Fresh is true when no domain passed the τ_c_sim gate: the schema
	// belongs to none of the current domains and will seed a new one at
	// the next rebuild.
	Fresh bool
}

// Assign routes one new schema against the model's current clusters using
// Algorithm 3's gates (m.Opts.TauCSim and m.Opts.Theta). The newcomer is
// scored on the serving feature space itself (feature.Space.Probe: its row
// of the space Algorithm 1 builds over the model's schemas followed by s,
// Space.Extend's product — its novel terms count toward the Jaccard
// denominators as in that build — without building that space), so
// per-arrival cost is O(new terms × candidates + affected schemas) instead
// of O(n × total terms), and nothing is copied.
// The model itself is read, never written.
func Assign(m *core.Model, s schema.Schema) (*Assignment, error) {
	return AssignRestricted(m, s, nil)
}

// rowBufs keeps arrivals from allocating a count array over every schema
// each.
var rowBufs = sync.Pool{New: func() any { return new(feature.RowBuf) }}

// AssignRestricted is Assign with the cluster comparison restricted to the
// domains for which include returns true (nil includes every domain) — the
// primitive behind a shard's read-only assignment probe. Excluded domains
// are skipped entirely: they contribute neither a similarity, nor a gate
// pass, nor a Best candidate. Because Algorithm 3's per-cluster similarity
// is independent of other clusters, the restricted Best/BestSim equal the
// unrestricted ones whenever the unrestricted winner is included — which is
// what lets a router recover the global argmax from per-shard probes.
//
// This is the only copy of the newcomer comparison; feedback.AddSchema calls
// it too. s_c_sim(S, C_r) averages Similarity(S, S_j) over C_r's members in
// the space over the grown set, and only a schema sharing a set bit with the
// newcomer has a non-zero similarity to it — a couple of percent of a wide
// corpus. So
// the sums are taken over the newcomer's row alone (feature.Space.Probe, the
// row Space.Row would read off Space.Extend's product), ascending, each into
// its schema's cluster: Members[r] is ascending too, hence every sum adds
// what cluster.SchemaClusterSim adds, in the same order, minus exact zeros,
// and the result is that function's bit for bit.
func AssignRestricted(m *core.Model, s schema.Schema, include func(r int) bool) (*Assignment, error) {
	start := time.Now()
	defer func() { mAssignDuration.Observe(time.Since(start).Seconds()) }()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	buf := rowBufs.Get().(*feature.RowBuf)
	defer rowBufs.Put(buf)
	js, rowSims, newTerms := m.Space.Probe(s, buf)
	mExtendNewTerms.Observe(float64(newTerms))

	nD := m.NumDomains()
	sims := make([]float64, nD)
	for k, j := range js {
		if r := m.Clustering.Assign[j]; include == nil || include(r) {
			sims[r] += rowSims[k]
		}
	}
	// cands stays nil (every domain) without a restriction; with one it is
	// the included domains, non-nil even when there are none.
	var cands []int
	if include != nil {
		cands = make([]int, 0, nD)
	}
	a := &Assignment{Best: -1}
	for r := 0; r < nD; r++ {
		if include != nil {
			if !include(r) {
				continue
			}
			cands = append(cands, r)
		}
		if sims[r] != 0 { // a cluster no sharing schema belongs to stays an exact 0
			sims[r] /= float64(len(m.Clustering.Members[r]))
		}
		if sims[r] > a.BestSim {
			a.BestSim, a.Best = sims[r], r
		}
	}
	a.Domains = core.Gate(sims, cands, m.Opts)
	a.Fresh = len(a.Domains) == 0
	return a, nil
}
