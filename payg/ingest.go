package payg

import (
	"fmt"

	"schemaflow/internal/ingest"
)

// DomainProb is one (domain, probability) entry of an incremental
// assignment.
type DomainProb struct {
	Domain int
	Prob   float64
}

// Assignment is the outcome of routing one newly arrived schema against a
// built system's current domains — the online counterpart of Algorithm 3.
// Probabilities across Domains sum to 1 (a clear in-domain schema gets a
// single entry with probability 1; a boundary schema within the θ margin
// of several domains splits across them).
type Assignment struct {
	// Domains lists the claiming domains, or is empty when Fresh.
	Domains []DomainProb
	// BestDomain is the most similar domain regardless of gates. It is -1
	// when the system has no domains to compare against, and also when the
	// arrival's similarity to every domain is exactly 0 (no matched term in
	// common with any cluster — such an arrival is always Fresh).
	BestDomain int
	// BestSim is s_c_sim against BestDomain (0 when BestDomain is -1).
	BestSim float64
	// Fresh is true when no domain passed the τ_c_sim gate; the schema
	// matches nothing the system currently knows and will seed a new
	// domain at the next recluster.
	Fresh bool
}

// Ingest computes the incremental assignment of one new schema against the
// system's current domains: its feature vector is scored against the serving
// feature space as it stands (its row of the space Algorithm 1 builds over
// the corpus and the arrival, computed without building that space) and
// compared to every cluster, gated by τ_c_sim and θ exactly as
// Algorithm 3 does at build time. The system is read, never modified — in
// particular the classifier's precomputed tables are untouched — so Ingest
// is safe to call concurrently with Classify and Execute. To actually grow a
// serving system use Manager.Ingest, which journals the schema and folds it
// into the next background rebuild.
func (s *System) Ingest(sch Schema) (*Assignment, error) {
	return s.ingest(sch, nil)
}

// ingest is Ingest with the comparison restricted to the domains include
// admits (nil = every domain), in the public Assignment's shape.
func (s *System) ingest(sch Schema, include func(r int) bool) (*Assignment, error) {
	a, err := ingest.AssignRestricted(s.model, sch, include)
	if err != nil {
		return nil, fmt.Errorf("payg: %w", err)
	}
	out := &Assignment{BestDomain: a.Best, BestSim: a.BestSim, Fresh: a.Fresh}
	for _, d := range a.Domains {
		out.Domains = append(out.Domains, DomainProb{Domain: d.Schema, Prob: d.Prob})
	}
	return out, nil
}
