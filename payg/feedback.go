package payg

import (
	"context"

	"schemaflow/internal/core"
	"schemaflow/internal/feedback"
)

// Feedback is a batch of explicit user corrections to apply to a built
// system — the pay-as-you-go refinement step: the system starts from the
// automatic (approximate) integration and improves as users fix it.
type Feedback struct {
	// Moves reassigns schemas (by index in build order) to domains.
	Moves []Move
	// Merges unions pairs of domains that describe the same real-world
	// domain.
	Merges [][2]int
	// Splits isolates schemas into fresh singleton domains.
	Splits []int
}

// Move is one schema-to-domain correction.
type Move struct {
	Schema int
	Domain int
}

// FeedbackResult is the outcome of ApplyFeedback.
type FeedbackResult struct {
	// System is the corrected system, fully rebuilt (domains, mediation,
	// classifier). The original system is unchanged.
	System *System
	// DomainMap maps the old system's domain ids to the new system's
	// (-1 for domains merged away).
	DomainMap []int
	// NewDomainOf maps each split schema index to its fresh domain id.
	NewDomainOf map[int]int
}

// ApplyFeedback rebuilds the system with the corrections applied. Corrected
// schemas are pinned to their domains with probability 1. Memberships are
// recomputed over the pair graph Build chose for this space (pairFloor), so
// a schema no correction touches keeps them to the bit.
func (s *System) ApplyFeedback(fb Feedback) (*FeedbackResult, error) {
	sess := feedback.NewSession(s.model)
	for _, mv := range fb.Moves {
		if err := sess.MoveSchema(mv.Schema, mv.Domain); err != nil {
			return nil, err
		}
	}
	for _, mg := range fb.Merges {
		if err := sess.MergeDomains(mg[0], mg[1]); err != nil {
			return nil, err
		}
	}
	for _, sp := range fb.Splits {
		if err := sess.SplitSchema(sp); err != nil {
			return nil, err
		}
	}
	res, err := sess.Apply(s.opts.pairFloor)
	if err != nil {
		return nil, err
	}
	sys, err := s.rebuildFromModel(res.Model)
	if err != nil {
		return nil, err
	}
	return &FeedbackResult{System: sys, DomainMap: res.DomainMap, NewDomainOf: res.NewDomainOf}, nil
}

// AddSchema integrates one new source incrementally: the schema joins its
// most similar existing domain (or a fresh singleton), existing domains are
// untouched — the serving feature space is extended copy-on-write rather
// than rebuilt — memberships are recomputed over the pair graph Build would
// choose for the extended space (pairFloor), and the classifier and
// mediation are rebuilt over the extended corpus. It returns the new system
// and the new schema's domain id.
func (s *System) AddSchema(sch Schema) (*System, int, error) {
	model, domain, err := feedback.AddSchema(s.model, sch, s.opts.pairFloor)
	if err != nil {
		return nil, 0, err
	}
	sys, err := s.rebuildFromModel(model)
	if err != nil {
		return nil, 0, err
	}
	return sys, domain, nil
}

// rebuildFromModel constructs a complete System around an updated model,
// reusing the original options.
func (s *System) rebuildFromModel(m *core.Model) (*System, error) {
	return assemble(context.Background(), s.opts, m, nil)
}
