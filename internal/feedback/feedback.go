// Package feedback implements the pay-as-you-go refinement loop the thesis'
// conclusion proposes as future work: improving the automatically built
// integration system as it gets used.
//
// Three feedback channels are provided:
//
//   - explicit feedback (Session): a user tells the system that a schema
//     belongs in a different domain, that two domains are really one, or
//     that a schema deserves its own domain; Apply rebuilds the
//     probabilistic model honoring those corrections, with corrected
//     schemas pinned at probability 1;
//   - implicit feedback (ClickLog): clicks on search results shift the
//     ranking of domains for future queries via a learned prior;
//   - automatic feedback (CheckConsistency): the values retrieved from the
//     sources of one domain are compared per mediated attribute, and
//     sources whose values are inconsistent with their cluster peers are
//     flagged as candidates for re-clustering.
package feedback

import (
	"fmt"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/ingest"
	"schemaflow/internal/schema"
)

// PairFloor chooses the pair graph Algorithm 3 reads over a space of n
// schemas: the positive pairs whose similarity is at least the floor it
// returns (≤ 0: every one), as cluster.CompletePairSims defines them. payg
// passes its build's, so a correction reads the pairs the build read.
type PairFloor func(n int) float64

// Session accumulates explicit corrections against a model. Operations are
// recorded immediately but take effect only at Apply, which returns a new
// model (the input model is never mutated).
type Session struct {
	model *core.Model
	// moveTo[schema] = target domain id (in the input model's numbering).
	moveTo map[int]int
	// merges are pairs of input-model domain ids to union.
	merges [][2]int
	// splits are schemas to isolate into fresh singleton domains.
	splits map[int]bool
}

// NewSession starts a feedback session over a model.
func NewSession(m *core.Model) *Session {
	return &Session{
		model:  m,
		moveTo: make(map[int]int),
		splits: make(map[int]bool),
	}
}

// MoveSchema records that schemaIdx belongs to domainID ("the user directly
// assesses the correctness of clustering ... by informing the system that a
// schema should be assigned to another cluster").
func (s *Session) MoveSchema(schemaIdx, domainID int) error {
	if err := s.checkSchema(schemaIdx); err != nil {
		return err
	}
	if err := s.checkDomain(domainID); err != nil {
		return err
	}
	delete(s.splits, schemaIdx)
	s.moveTo[schemaIdx] = domainID
	return nil
}

// MergeDomains records that two domains describe the same real-world domain.
func (s *Session) MergeDomains(a, b int) error {
	if err := s.checkDomain(a); err != nil {
		return err
	}
	if err := s.checkDomain(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("feedback: merging domain %d with itself", a)
	}
	s.merges = append(s.merges, [2]int{a, b})
	return nil
}

// SplitSchema records that schemaIdx does not belong with its cluster and
// should form its own domain.
func (s *Session) SplitSchema(schemaIdx int) error {
	if err := s.checkSchema(schemaIdx); err != nil {
		return err
	}
	delete(s.moveTo, schemaIdx)
	s.splits[schemaIdx] = true
	return nil
}

func (s *Session) checkSchema(i int) error {
	if i < 0 || i >= len(s.model.Schemas) {
		return fmt.Errorf("feedback: no schema %d", i)
	}
	return nil
}

func (s *Session) checkDomain(d int) error {
	if d < 0 || d >= s.model.NumDomains() {
		return fmt.Errorf("feedback: no domain %d", d)
	}
	return nil
}

// Pending reports how many corrections the session holds.
func (s *Session) Pending() int {
	return len(s.moveTo) + len(s.merges) + len(s.splits)
}

// Result is the outcome of Apply: the corrected model plus the mapping from
// the input model's domain ids to the new model's (or -1 for domains that
// disappeared by merging into another).
type Result struct {
	Model     *core.Model
	DomainMap []int
	// NewDomainOf maps each split schema to its fresh singleton domain.
	NewDomainOf map[int]int
}

// Apply rebuilds the model with all recorded corrections: the hard
// clustering is edited (moves, merges, splits), memberships are recomputed
// by Algorithm 3 over the edited clustering and the model space's pair graph
// at floor (core.AssignDomainsRows, streamed: no pair is stored), and every
// corrected schema is pinned to its target domain with probability 1 — user
// knowledge overrides the similarity heuristics. Given the floor the model
// was built with, an empty session reproduces every membership bit for bit.
func (s *Session) Apply(floor PairFloor) (*Result, error) {
	m := s.model
	n := len(m.Schemas)

	// Union-find over old domain ids to honor merges.
	root := make([]int, m.NumDomains())
	for i := range root {
		root[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	for _, mg := range s.merges {
		ra, rb := find(mg[0]), find(mg[1])
		if ra != rb {
			root[rb] = ra
		}
	}

	// Edited raw assignment: old-root domain ids, with moves and splits.
	// Splits get fresh ids beyond the old domain range.
	assign := make([]int, n)
	nextFresh := m.NumDomains()
	freshOf := make(map[int]int)
	for i := 0; i < n; i++ {
		switch {
		case s.splits[i]:
			freshOf[i] = nextFresh
			assign[i] = nextFresh
			nextFresh++
		default:
			d := m.Clustering.Assign[i]
			if to, ok := s.moveTo[i]; ok {
				d = to
			}
			assign[i] = find(d)
		}
	}

	cl := cluster.FromAssignment(assign)
	newModel, err := core.AssignDomainsRows(m.Schemas, m.Space, cl, floor(n), m.Opts)
	if err != nil {
		return nil, err
	}

	// Pin corrected schemas: their membership becomes certain.
	for i, to := range s.moveTo {
		if err := newModel.Pin(i, cl.Assign[i]); err != nil {
			return nil, fmt.Errorf("feedback: pinning moved schema %d to domain %d: %w", i, to, err)
		}
	}
	for i := range s.splits {
		if err := newModel.Pin(i, cl.Assign[i]); err != nil {
			return nil, fmt.Errorf("feedback: pinning split schema %d: %w", i, err)
		}
	}

	// Old → new domain id mapping (merged-away domains map to the
	// survivor's new id; emptied domains map to -1).
	domainMap := make([]int, m.NumDomains())
	for d := range domainMap {
		domainMap[d] = -1
	}
	rawToNew := make(map[int]int)
	for i := 0; i < n; i++ {
		rawToNew[assign[i]] = cl.Assign[i]
	}
	for d := range domainMap {
		if newID, ok := rawToNew[find(d)]; ok {
			domainMap[d] = newID
		}
	}
	res := &Result{Model: newModel, DomainMap: domainMap, NewDomainOf: make(map[int]int)}
	for i, fresh := range freshOf {
		res.NewDomainOf[i] = rawToNew[fresh]
	}
	return res, nil
}

// AddSchema grows a model with one new source incrementally — the essence of
// pay-as-you-go: new sources keep arriving and must be integrated without
// re-running the full clustering. The new schema joins the existing cluster
// it is most similar to (per s_c_sim and the τ_c_sim gate of Algorithm 3),
// or becomes a fresh singleton domain; every existing schema keeps its
// cluster. The comparison is ingest.AssignRestricted's, on the model's own
// space, which it does not copy; AddSchema then builds the extended space
// itself (feature.Space.Extend, copy-on-write — novel terms are appended to
// the vocabulary and only affected vectors are touched, instead of
// re-embedding all n existing schemas), and memberships are recomputed by
// Algorithm 3 over the extended space's pair graph (core.AssignDomainsRows)
// at the floor for its n + 1 schemas, which may cross a blocking threshold
// n did not, so the new schema gets a proper probabilistic assignment.
//
// It returns the new model and the new schema's primary domain id.
func AddSchema(m *core.Model, s schema.Schema, floor PairFloor) (*core.Model, int, error) {
	a, err := ingest.AssignRestricted(m, s, nil)
	if err != nil {
		return nil, 0, err
	}
	sp, newIdx := m.Space.Extend(s)
	extended := make(schema.Set, 0, newIdx+1)
	extended = append(extended, m.Schemas...)
	extended = append(extended, s)
	assign := make([]int, len(extended))
	copy(assign, m.Clustering.Assign)
	if a.Best >= 0 && a.BestSim >= m.Opts.TauCSim {
		assign[newIdx] = a.Best
	} else {
		assign[newIdx] = m.NumDomains() // fresh singleton
	}

	cl := cluster.FromAssignment(assign)
	newModel, err := core.AssignDomainsRows(extended, sp, cl, floor(len(extended)), m.Opts)
	if err != nil {
		return nil, 0, err
	}
	return newModel, cl.Assign[newIdx], nil
}
