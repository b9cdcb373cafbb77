// Package engine executes structured queries over a domain's mediated
// schema, implementing the probability arithmetic of Section 4.4:
//
//   - a query posed over mediated schema M_r is dispatched to every data
//     source in S(D_r);
//   - each raw tuple is mapped to M_r by each possible mapping φ_j with
//     probability Pr(φ_j); identical mapped tuples from the same raw tuple
//     consolidate by summing probabilities;
//   - every mapped tuple's probability is multiplied by Pr(S_i ∈ D_r);
//   - identical tuples from different sources consolidate by noisy-or:
//     1 − Π(1 − p).
//
// The result set is returned sorted by descending tuple probability, which
// is what the user of the typical use case (Section 3.3) sees.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"schemaflow/internal/core"
	"schemaflow/internal/mediate"
	"schemaflow/internal/resilience"
	"schemaflow/internal/schema"
)

// Tuple is a raw tuple of a data source: attribute-index-aligned values.
type Tuple []string

// Source is a queryable data source: a schema plus its extension. The
// system never requires data (it clusters from attribute names alone), but
// the end-to-end use case retrieves tuples.
type Source struct {
	Schema schema.Schema
	Tuples []Tuple
}

// Validate checks that every tuple has exactly one value per attribute.
func (s *Source) Validate() error {
	for i, t := range s.Tuples {
		if len(t) != len(s.Schema.Attributes) {
			return fmt.Errorf("source %q: tuple %d has %d values, schema has %d attributes",
				s.Schema.Name, i, len(t), len(s.Schema.Attributes))
		}
	}
	return nil
}

// Query is a structured query over a mediated schema: project the Select
// attributes of every tuple satisfying all Where equality predicates
// (case-insensitive value comparison). Attribute references are mediated
// attribute display names.
type Query struct {
	Select []string
	Where  map[string]string
	// Limit truncates the result set to the top-k tuples by probability
	// after consolidation (0 = no limit). Tuple probabilities are computed
	// over the full match set first, so Limit changes only what is
	// returned, never the probabilities.
	Limit int
}

// ResultTuple is one mediated tuple in the merged result set R_all.
type ResultTuple struct {
	// Values are aligned with the query's Select list; unmapped attributes
	// surface as empty strings.
	Values []string
	// Prob is the combined probability of the tuple per Section 4.4.
	Prob float64
	// Sources names the data sources that contributed the tuple.
	Sources []string
}

// DomainExecutor answers structured queries over one domain: the mediated
// schema, its probabilistic mappings, the domain membership probabilities,
// and the data sources. Sources are fetched through the TupleSource
// interface, optionally under a resilience policy (per-source timeout,
// retries, circuit breaker) installed with SetPolicy; per-source breaker
// state persists across queries on the same executor.
type DomainExecutor struct {
	med      *mediate.Mediated
	fetchers []TupleSource
	// memberProb[i] is Pr(S_i ∈ D_r) for fetchers[i].
	memberProb []float64

	policy   *resilience.Policy
	breakers []*resilience.Breaker
}

// NewDomainExecutor wires a mediated domain to in-memory data sources. The
// sources must be aligned 1:1 with med.Schemas; memberProb supplies
// Pr(S_i ∈ D_r) (nil means certainty for all sources).
func NewDomainExecutor(med *mediate.Mediated, sources []Source, memberProb []float64) (*DomainExecutor, error) {
	for i := range sources {
		if err := sources[i].Validate(); err != nil {
			return nil, err
		}
	}
	fetchers := make([]TupleSource, len(sources))
	for i := range sources {
		fetchers[i] = sources[i]
	}
	return NewFetchExecutor(med, fetchers, memberProb)
}

// NewFetchExecutor wires a mediated domain to arbitrary TupleSources
// (remote, slow, failing). The fetchers must be aligned 1:1 with
// med.Schemas; fetched tuples are width-validated against the mediated
// domain's member schemas at query time, so a misbehaving source degrades
// the result instead of corrupting it.
func NewFetchExecutor(med *mediate.Mediated, fetchers []TupleSource, memberProb []float64) (*DomainExecutor, error) {
	if len(fetchers) != len(med.Schemas) {
		return nil, fmt.Errorf("engine: %d sources for %d mediated schemas", len(fetchers), len(med.Schemas))
	}
	if memberProb == nil {
		memberProb = make([]float64, len(fetchers))
		for i := range memberProb {
			memberProb[i] = 1
		}
	}
	if len(memberProb) != len(fetchers) {
		return nil, fmt.Errorf("engine: %d membership probabilities for %d sources", len(memberProb), len(fetchers))
	}
	return &DomainExecutor{med: med, fetchers: fetchers, memberProb: memberProb}, nil
}

// SetPolicy installs a resilience policy on the per-source fetch path and
// allocates one circuit breaker per source. Call before serving queries;
// the breakers live as long as the executor.
func (ex *DomainExecutor) SetPolicy(p resilience.Policy) {
	ex.policy = &p
	ex.breakers = make([]*resilience.Breaker, len(ex.fetchers))
	for i := range ex.breakers {
		ex.breakers[i] = p.NewBreaker()
	}
}

// SetPolicyFunc installs a resilience policy like SetPolicy, but sources
// each circuit breaker from breakerFor (keyed by source name) instead of
// allocating fresh ones. It lets an owner share per-source breaker state
// across executors — in particular across a model rebuild and swap, where
// the sources themselves (and their failure history) are unchanged. A nil
// breakerFor result disables breaking for that source.
func (ex *DomainExecutor) SetPolicyFunc(p resilience.Policy, breakerFor func(source string) *resilience.Breaker) {
	ex.policy = &p
	ex.breakers = make([]*resilience.Breaker, len(ex.fetchers))
	for i, f := range ex.fetchers {
		ex.breakers[i] = breakerFor(f.Name())
	}
}

// BreakerState reports the circuit breaker state for source i, or Closed
// when no policy (or no breaker) is installed.
func (ex *DomainExecutor) BreakerState(i int) resilience.State {
	if i < 0 || i >= len(ex.breakers) || ex.breakers[i] == nil {
		return resilience.Closed
	}
	return ex.breakers[i].State()
}

// FromModel builds one executor per domain of a probabilistic model, given a
// data source per schema (aligned with model.Schemas).
func FromModel(m *core.Model, mediated []*mediate.Mediated, allSources []Source) ([]*DomainExecutor, error) {
	if len(mediated) != m.NumDomains() {
		return nil, fmt.Errorf("engine: %d mediated schemas for %d domains", len(mediated), m.NumDomains())
	}
	if len(allSources) != len(m.Schemas) {
		return nil, fmt.Errorf("engine: %d sources for %d schemas", len(allSources), len(m.Schemas))
	}
	out := make([]*DomainExecutor, m.NumDomains())
	for r := range m.Domains {
		d := &m.Domains[r]
		var srcs []Source
		var probs []float64
		for _, mem := range d.Members {
			srcs = append(srcs, allSources[mem.Schema])
			probs = append(probs, mem.Prob)
		}
		ex, err := NewDomainExecutor(mediated[r], srcs, probs)
		if err != nil {
			return nil, fmt.Errorf("domain %d: %w", r, err)
		}
		out[r] = ex
	}
	return out, nil
}

// SourceFailure describes one data source that contributed nothing to a
// query result: it failed after exhausting the resilience policy, or was
// skipped outright because its circuit breaker was open.
type SourceFailure struct {
	// Source is the failing source's name.
	Source string
	// Err is the final error (after retries), as text.
	Err string
	// Skipped is true when the circuit breaker rejected the source
	// without attempting a fetch.
	Skipped bool
}

// Result is a query answer that may be degraded: the consolidated tuples
// from every source that answered, plus a report of the sources that did
// not.
type Result struct {
	Tuples []ResultTuple
	// Failures lists sources that contributed nothing, in source order.
	// Empty means every source answered.
	Failures []SourceFailure
}

// Degraded reports whether any source failed to contribute.
func (r *Result) Degraded() bool { return len(r.Failures) > 0 }

// Execute runs the query and returns the merged result set R_all sorted by
// descending probability (ties broken by value for determinism). It is the
// context-free form of ExecuteContext; source failures surface only
// through the degraded report, which Execute discards, so in-memory
// callers see the historical all-or-nothing behavior.
func (ex *DomainExecutor) Execute(q Query) ([]ResultTuple, error) {
	res, err := ex.ExecuteContext(context.Background(), q)
	if err != nil {
		return nil, err
	}
	return res.Tuples, nil
}

// ExecuteContext runs the query with cancellation: every source fetch is
// dispatched concurrently under ctx (and the resilience policy, when one
// is installed). Sources that fail or are skipped by an open breaker are
// reported in Result.Failures while the healthy sources' tuples are
// consolidated and returned — a degraded answer, not an error. The only
// errors are malformed queries and a dead ctx.
func (ex *DomainExecutor) ExecuteContext(ctx context.Context, q Query) (*Result, error) {
	selIdx := make([]int, len(q.Select))
	for i, name := range q.Select {
		selIdx[i] = ex.med.AttrIndex(name)
		if selIdx[i] < 0 {
			return nil, fmt.Errorf("engine: no mediated attribute %q", name)
		}
	}
	whereIdx := make(map[int]string, len(q.Where))
	for name, val := range q.Where {
		mi := ex.med.AttrIndex(name)
		if mi < 0 {
			return nil, fmt.Errorf("engine: no mediated attribute %q", name)
		}
		whereIdx[mi] = strings.ToLower(val)
	}

	fetched, failures, err := ex.fetchAll(ctx)
	if err != nil {
		return nil, err
	}

	type agg struct {
		key      string // the values joined: the aggregation key and the sort key
		values   []string
		oneMinus float64 // Π(1−p) across sources
		sources  map[string]bool
	}
	results := make(map[string]*agg)

	for si := range ex.fetchers {
		memberP := ex.memberProb[si]
		if memberP == 0 || fetched[si] == nil {
			continue
		}
		name := ex.fetchers[si].Name()
		// mappedProb[key] accumulates the summed mapping probability of
		// each distinct mapped tuple derived from one raw tuple
		// (the same-raw-tuple consolidation rule).
		for _, raw := range fetched[si] {
			mappedProb := make(map[string]float64)
			mappedVals := make(map[string][]string)
			for _, mp := range ex.med.Mappings[si] {
				vals, ok := applyMapping(raw, mp, selIdx, whereIdx)
				if !ok {
					continue
				}
				key := strings.Join(vals, "\x1f")
				mappedProb[key] += mp.Prob
				mappedVals[key] = vals
			}
			for key, p := range mappedProb {
				tp := p * memberP
				a := results[key]
				if a == nil {
					a = &agg{key: key, values: mappedVals[key], oneMinus: 1, sources: map[string]bool{}}
					results[key] = a
				}
				a.oneMinus *= 1 - tp
				a.sources[name] = true
			}
		}
	}

	ranked := make([]*agg, 0, len(results))
	for _, a := range results {
		ranked = append(ranked, a)
	}
	slices.SortFunc(ranked, func(a, b *agg) int {
		if pa, pb := 1-a.oneMinus, 1-b.oneMinus; pa != pb {
			return cmp.Compare(pb, pa)
		}
		return cmp.Compare(a.key, b.key)
	})
	if q.Limit > 0 && q.Limit < len(ranked) {
		ranked = ranked[:q.Limit]
	}
	out := make([]ResultTuple, 0, len(ranked))
	for _, a := range ranked {
		var names []string
		for n := range a.sources {
			names = append(names, n)
		}
		sort.Strings(names)
		out = append(out, ResultTuple{Values: a.values, Prob: 1 - a.oneMinus, Sources: names})
	}
	return &Result{Tuples: out, Failures: failures}, nil
}

// fetchAll dispatches every member source's fetch concurrently under ctx
// and the installed policy. It returns the per-source tuple slices (nil
// for failed or zero-probability sources), the failure report in source
// order, and a hard error only when ctx itself died.
func (ex *DomainExecutor) fetchAll(ctx context.Context) ([][]Tuple, []SourceFailure, error) {
	fetched := make([][]Tuple, len(ex.fetchers))
	errs := make([]error, len(ex.fetchers))
	var wg sync.WaitGroup
	for si := range ex.fetchers {
		if ex.memberProb[si] == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			fetched[si], errs[si] = ex.fetchOne(ctx, si)
		}(si)
	}
	wg.Wait()
	// The request itself died (client gone, deadline passed): that is an
	// error, not a degraded answer.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var failures []SourceFailure
	for si, err := range errs {
		if err == nil {
			continue
		}
		fetched[si] = nil
		failures = append(failures, SourceFailure{
			Source:  ex.fetchers[si].Name(),
			Err:     err.Error(),
			Skipped: errors.Is(err, resilience.ErrBreakerOpen),
		})
	}
	return fetched, failures, nil
}

// fetchOne fetches source si under the policy (if any) and validates the
// tuple widths against the mediated domain's member schema, so a source
// returning malformed rows degrades the answer instead of panicking the
// mapping step.
func (ex *DomainExecutor) fetchOne(ctx context.Context, si int) ([]Tuple, error) {
	name := ex.fetchers[si].Name()
	attempts := 0
	var tuples []Tuple
	fetch := func(ctx context.Context) error {
		attempts++
		mFetchAttempts.With(name).Inc()
		if attempts > 1 {
			mFetchRetries.With(name).Inc()
		}
		ts, err := ex.fetchers[si].Fetch(ctx)
		if err != nil {
			return err
		}
		tuples = ts
		return nil
	}
	var err error
	if ex.policy != nil {
		err = resilience.Do(ctx, *ex.policy, ex.breakers[si], fetch)
	} else {
		err = fetch(ctx)
	}
	if err == nil {
		err = validateWidth(name, tuples, len(ex.med.Schemas[si].Attributes))
	}
	if err != nil {
		if errors.Is(err, resilience.ErrBreakerOpen) {
			mFetchSkipped.With(name).Inc()
		} else {
			mFetchFailures.With(name).Inc()
		}
		return nil, err
	}
	return tuples, nil
}

// applyMapping maps a raw tuple through one attribute mapping, evaluates the
// Where predicates, and projects the Select attributes. ok is false when a
// predicate fails or references a mediated attribute this mapping does not
// populate.
func applyMapping(raw Tuple, mp mediate.Mapping, selIdx []int, whereIdx map[int]string) ([]string, bool) {
	// Invert: mediated attribute → source attribute value.
	val := func(mi int) (string, bool) {
		for k, to := range mp.AttrTo {
			if to == mi {
				return raw[k], true
			}
		}
		return "", false
	}
	for mi, want := range whereIdx {
		got, ok := val(mi)
		if !ok || strings.ToLower(got) != want {
			return nil, false
		}
	}
	out := make([]string, len(selIdx))
	populated := false
	for i, mi := range selIdx {
		if v, ok := val(mi); ok {
			out[i] = v
			populated = true
		}
	}
	// A mapping that populates none of the selected attributes contributes
	// nothing for this tuple: an all-empty projection is not a result.
	if !populated && len(selIdx) > 0 {
		return nil, false
	}
	return out, true
}
