package payg

import (
	"fmt"
	"sort"

	"schemaflow/internal/mediate"
)

// This file makes a System shard-aware: a shard replica keeps the full
// schema corpus, feature space, and domain model (all cheap and required
// for bit-identical classification math) but holds the two O(|D|)-heavy
// structures — the classifier's score table and the per-domain mediated
// schemas — only for the domains it owns. Domain ids
// remain global: a pruned system still speaks the same id space as the
// full one, it just answers -Inf/"not local" for domains that live on
// other shards. The partitioning itself (which domain belongs to which
// shard) is decided by the caller (internal/shard's rendezvous ring).

// Shard returns a copy of the system restricted to the given local
// domains. The schemas, feature space, and model are shared with the
// receiver; the classifier is rebuilt over the local domains alone
// (classify.Config.Local — a term-major table cannot share rows) and
// mediation keeps only the local domains' mediated schemas. The receiver must be a full (unsharded)
// system. Classification on the result reports the receiver's exact
// LogPosterior for every local domain and -Inf for the rest;
// MediatedAttributes/Execute refuse non-local domains with an error.
func (s *System) Shard(local []int) (*System, error) {
	if s.localSet != nil {
		return nil, fmt.Errorf("payg: cannot shard an already-sharded system")
	}
	nD := s.model.NumDomains()
	sorted := make([]int, 0, len(local))
	sorted = append(sorted, local...)
	sort.Ints(sorted)
	set := make([]bool, nD)
	for i, r := range sorted {
		if r < 0 || r >= nD {
			return nil, fmt.Errorf("payg: shard domain %d out of range [0,%d)", r, nD)
		}
		if i > 0 && sorted[i-1] == r {
			return nil, fmt.Errorf("payg: duplicate shard domain %d", r)
		}
		set[r] = true
	}
	cls, err := s.opts.newClassifier(s.model, sorted)
	if err != nil {
		return nil, fmt.Errorf("payg: %w", err)
	}
	sh := &System{
		opts:       s.opts,
		schemas:    s.schemas,
		space:      s.space,
		model:      s.model,
		classifier: cls,
		local:      sorted,
		localSet:   set,
	}
	if s.mediated != nil {
		sh.mediated = make([]*mediate.Mediated, nD)
		for _, r := range sorted {
			sh.mediated[r] = s.mediated[r]
		}
	}
	return sh, nil
}

// LocalDomains returns the sorted domain ids this system holds locally,
// or nil when the system is full (unsharded — every domain is local).
// The returned slice is a copy.
func (s *System) LocalDomains() []int {
	if s.local == nil {
		return nil
	}
	out := make([]int, len(s.local)) // non-nil even for a zero-domain shard
	copy(out, s.local)
	return out
}

// IsLocalDomain reports whether the system holds domain r locally. A
// full system holds every valid domain id.
func (s *System) IsLocalDomain(r int) bool {
	if r < 0 || r >= s.model.NumDomains() {
		return false
	}
	if s.localSet == nil {
		return true
	}
	return s.localSet[r]
}

// NumLocalDomains returns how many domains this system holds locally
// (equal to NumDomains for a full system).
func (s *System) NumLocalDomains() int {
	if s.localSet == nil {
		return s.model.NumDomains()
	}
	return len(s.local)
}

// IngestLocal is Ingest with the Algorithm-3 comparison restricted to
// the system's local domains — the read-only probe a router broadcasts
// to every shard before routing an arrival. On a full system it is
// exactly Ingest. Because per-cluster similarities are independent of
// other clusters and every shard keeps the full feature space, a
// restricted probe's BestSim equals the full probe's similarity to the
// same domain, which is what makes the router's argmax over shard probes
// equal the single-node argmax.
func (s *System) IngestLocal(sch Schema) (*Assignment, error) {
	if s.localSet == nil {
		return s.Ingest(sch)
	}
	return s.ingest(sch, func(r int) bool { return s.localSet[r] })
}
