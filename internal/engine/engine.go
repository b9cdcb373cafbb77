// Package engine executes structured queries over a domain's mediated
// schema M_r with the probability arithmetic of Section 4.4. A query reads
// every data source S_i of the domain, in-memory ones in place and the rest
// at once; their tuples are then consolidated in source order, whichever
// fetch finished first:
//
//   - each mapping φ of S_i maps a raw tuple to M_r when, through φ, the
//     tuple meets every Where equality (case-insensitive) and populates a
//     Select attribute; the mapped tuple's key is its Select values joined
//     by \x1f, so values holding \x1f may merge;
//   - the mapped tuples of one raw tuple that share a key are one tuple with
//     probability ΣPr(φ), summed in mapping order, times Pr(S_i ∈ D_r);
//   - equal keys across raw tuples and sources combine by noisy-or,
//     1 − Π(1 − p), multiplied in source, then tuple, order.
//
// The answer is ordered by probability descending, then key ascending; a
// Limit keeps the k best without sorting the rest. A tuple shows the values
// of the first raw tuple that gave its key (of the last mapping there that
// did) and names its sources once each, sorted.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"schemaflow/internal/mediate"
	"schemaflow/internal/obs"
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
	return validateWidth(s.Schema.Name, s.Tuples, len(s.Schema.Attributes))
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
// and the data sources. In-memory Sources are read in place; every other
// TupleSource is fetched concurrently, optionally under a resilience policy
// (per-attempt timeout, retries, circuit breaker) installed with SetPolicy.
type DomainExecutor struct {
	med      *mediate.Mediated
	fetchers []TupleSource
	// memberProb[i] is Pr(S_i ∈ D_r) for fetchers[i].
	memberProb []float64
	// attempts[i] is fetchers[i]'s schemaflow_source_fetch_attempts_total
	// counter, resolved once here for every member a query fetches (nil for
	// a member of probability 0, which none does).
	attempts []*obs.Counter

	policy   *resilience.Policy
	breakers []*resilience.Breaker
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
	attempts := make([]*obs.Counter, len(fetchers))
	for i, f := range fetchers {
		if memberProb[i] != 0 {
			attempts[i] = mFetchAttempts.With(f.Name())
		}
	}
	return &DomainExecutor{med: med, fetchers: fetchers, memberProb: memberProb, attempts: attempts}, nil
}

// SetPolicy installs a resilience policy on the fetch path of every source
// but the in-memory Sources, with each one's circuit breaker from breakerFor
// (keyed by source name; nil disables breaking). An owner handing out one
// breaker per name keeps a source's failure history across executors, as
// across a model swap. Call before serving queries.
func (ex *DomainExecutor) SetPolicy(p resilience.Policy, breakerFor func(source string) *resilience.Breaker) {
	ex.policy = &p
	ex.breakers = make([]*resilience.Breaker, len(ex.fetchers))
	for i, f := range ex.fetchers {
		if _, inMemory := f.(Source); !inMemory {
			ex.breakers[i] = breakerFor(f.Name())
		}
	}
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

// ExecuteContext runs the query with cancellation: in-memory sources are
// read in place, the others fetched concurrently under ctx (and the policy,
// when one is installed). Sources that fail, hold a malformed tuple or are
// skipped by an open breaker are reported in Result.Failures while the
// healthy sources' tuples are consolidated and returned — a degraded
// answer, not an error. The only errors are malformed queries and a dead ctx.
func (ex *DomainExecutor) ExecuteContext(ctx context.Context, q Query) (*Result, error) {
	// attrs lists the Select attributes, then the Where ones; wants holds
	// the Where values, lower-cased.
	attrs := make([]int, len(q.Select), len(q.Select)+len(q.Where))
	for i, name := range q.Select {
		if attrs[i] = ex.med.AttrIndex(name); attrs[i] < 0 {
			return nil, fmt.Errorf("engine: no mediated attribute %q", name)
		}
	}
	var wants []string
	for name, val := range q.Where {
		mi := ex.med.AttrIndex(name)
		if mi < 0 {
			return nil, fmt.Errorf("engine: no mediated attribute %q", name)
		}
		attrs, wants = append(attrs, mi), append(wants, strings.ToLower(val))
	}

	fetched, failures, err := ex.fetchAll(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{Tuples: ex.consolidate(fetched, attrs, wants, q.Limit), Failures: failures}, nil
}

// aggregate is one distinct tuple of R_all.
type aggregate struct {
	key      string
	oneMinus float64 // Π(1 − p) over its contributions
	out      int     // 1 + its place in the answer; 0 when not returned
}

// consolidation is a consolidate call's working memory: contribs records
// every (aggregate, source) pair; cols[j*width+i] is the source column
// mapping j sends to attrs[i] (the first, or -1) and live lists the mappings
// that can contribute; key holds one raw tuple's keys back to back, which
// outs indexes with their summed Pr(φ) and the last mapping that gave each.
type consolidation struct {
	index      map[string]int
	aggs       []aggregate
	values     []string // aggregate a's are values[a*w:(a+1)*w]
	contribs   []contribution
	cols, live []int
	key        []byte
	outs       []output
	order      []int
}

// consolidations keeps finished queries' buffers for the next: one pool for
// all executors holds about one set per CPU, not one per domain executor.
var consolidations sync.Pool

type contribution struct{ agg, src int32 }

type output struct {
	start, end, mapping int
	prob                float64
}

// consolidate is Section 4.4's arithmetic over the fetched tuples, as the
// package documentation states it, and returns the limit best (all when
// limit is 0), best first.
func (ex *DomainExecutor) consolidate(fetched [][]Tuple, attrs []int, wants []string, limit int) []ResultTuple {
	width, w := len(attrs), len(attrs)-len(wants)
	n := 0 // the buffers' size: without a Where, about one key per raw tuple
	for i := 0; i < len(fetched) && len(wants) == 0; i++ {
		n += len(fetched[i])
	}
	sc, _ := consolidations.Get().(*consolidation)
	if sc == nil {
		sc = &consolidation{index: make(map[string]int, n)}
	}
	index, aggs, values := sc.index, slices.Grow(sc.aggs[:0], n), slices.Grow(sc.values[:0], n*w)
	contribs, cols, live, key, outs := slices.Grow(sc.contribs[:0], n), sc.cols, sc.live, sc.key, sc.outs

	for si, tuples := range fetched {
		mappings := ex.med.Mappings[si]
		cols = slices.Grow(cols[:0], len(mappings)*width)[:len(mappings)*width]
		live = live[:0]
		for j, mp := range mappings {
			pc := cols[j*width : (j+1)*width]
			for i, mi := range attrs {
				pc[i] = slices.Index(mp.AttrTo, mi)
			}
			// A mapping that populates none of the selected attributes, or
			// not a Where one, contributes nothing.
			if (w == 0 || slices.Max(pc[:w]) >= 0) && !slices.Contains(pc[w:], -1) {
				live = append(live, j)
			}
		}

		for _, raw := range tuples {
			key, outs = key[:0], outs[:0]
		project:
			for _, j := range live {
				pc := cols[j*width : (j+1)*width]
				for i, want := range wants {
					if strings.ToLower(raw[pc[w+i]]) != want {
						continue project
					}
				}
				start := len(key)
				for i, k := range pc[:w] {
					if i > 0 {
						key = append(key, '\x1f')
					}
					if k >= 0 {
						key = append(key, raw[k]...)
					}
				}
				for o := range outs {
					if string(key[outs[o].start:outs[o].end]) == string(key[start:]) {
						outs[o].prob += mappings[j].Prob
						outs[o].mapping = j
						key = key[:start]
						continue project
					}
				}
				outs = append(outs, output{start: start, end: len(key), mapping: j, prob: mappings[j].Prob})
			}

			for _, o := range outs {
				a, ok := index[string(key[o.start:o.end])]
				if !ok {
					a = len(aggs)
					k := string(key[o.start:o.end])
					index[k] = a
					aggs = append(aggs, aggregate{key: k, oneMinus: 1})
					for _, c := range cols[o.mapping*width:][:w] {
						values = append(values, "")
						if c >= 0 {
							values[len(values)-1] = raw[c]
						}
					}
				}
				aggs[a].oneMinus *= 1 - o.prob*ex.memberProb[si]
				contribs = append(contribs, contribution{agg: int32(a), src: int32(si)})
			}
		}
	}

	order := slices.Grow(sc.order[:0], len(aggs))[:len(aggs)]
	for i := range order {
		order[i] = i
	}
	order = best(order, limit, func(a, b int) int {
		if pa, pb := 1-aggs[a].oneMinus, 1-aggs[b].oneMinus; pa != pb {
			return cmp.Compare(pb, pa)
		}
		return cmp.Compare(aggs[a].key, aggs[b].key)
	})
	// The answer's values are copied out of the pooled buffer.
	out, vals := make([]ResultTuple, len(order)), make([]string, len(order)*w)
	for i, a := range order {
		aggs[a].out = i + 1
		v := vals[i*w : (i+1)*w : (i+1)*w]
		copy(v, values[a*w:])
		out[i] = ResultTuple{Values: v, Prob: 1 - aggs[a].oneMinus}
	}
	for _, c := range contribs {
		if i := aggs[c.agg].out - 1; i >= 0 {
			out[i].Sources = append(out[i].Sources, ex.fetchers[c.src].Name())
		}
	}
	for i := range out {
		slices.Sort(out[i].Sources)
		out[i].Sources = slices.Compact(out[i].Sources)
	}
	clear(index)
	*sc = consolidation{index, aggs, values, contribs, cols, live, key, outs, order}
	consolidations.Put(sc)
	return out
}

// best sorts the k best of ids under rank to the front and returns them,
// all of ids when k is 0 or covers them. Only those k are sorted: the k
// best seen so far are kept in a heap with the worst at the root.
func best(ids []int, k int, rank func(a, b int) int) []int {
	if k <= 0 || k >= len(ids) {
		slices.SortFunc(ids, rank)
		return ids
	}
	h := ids[:k]
	down := func(i int) {
		for c := 2*i + 1; c < k; i, c = c, 2*c+1 {
			if c+1 < k && rank(h[c+1], h[c]) > 0 {
				c++
			}
			if rank(h[c], h[i]) <= 0 {
				return
			}
			h[i], h[c] = h[c], h[i]
		}
	}
	slices.SortFunc(h, func(a, b int) int { return rank(b, a) }) // worst first: a heap
	for _, id := range ids[k:] {
		if rank(id, h[0]) < 0 {
			h[0] = id
			down(0)
		}
	}
	slices.SortFunc(h, rank)
	return h
}

// fetchAll reads the in-memory member sources in place and fetches the
// others concurrently under ctx and the policy. It returns the per-source
// tuple slices (nil for failed or zero-probability sources), the failure
// report in source order, and a hard error only when ctx itself died.
func (ex *DomainExecutor) fetchAll(ctx context.Context) ([][]Tuple, []SourceFailure, error) {
	fetched := make([][]Tuple, len(ex.fetchers))
	errs := make([]error, len(ex.fetchers))
	var wg sync.WaitGroup
	for si, f := range ex.fetchers {
		if ex.memberProb[si] == 0 {
			continue
		}
		if src, inMemory := f.(Source); inMemory {
			ex.attempts[si].Inc()
			fetched[si], errs[si] = ex.checked(si, src.Tuples, nil)
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
		failures = append(failures, SourceFailure{
			Source:  ex.fetchers[si].Name(),
			Err:     err.Error(),
			Skipped: errors.Is(err, resilience.ErrBreakerOpen),
		})
	}
	return fetched, failures, nil
}

// fetchOne fetches source si under the policy (if any) and checks what the
// last attempt returned.
func (ex *DomainExecutor) fetchOne(ctx context.Context, si int) ([]Tuple, error) {
	name := ex.fetchers[si].Name()
	attempts := 0
	var tuples []Tuple
	fetch := func(ctx context.Context) (err error) {
		attempts++
		ex.attempts[si].Inc()
		if attempts > 1 {
			mFetchRetries.With(name).Inc()
		}
		tuples, err = ex.fetchers[si].Fetch(ctx)
		return err
	}
	var err error
	if ex.policy != nil {
		err = resilience.Do(ctx, *ex.policy, ex.breakers[si], fetch)
	} else {
		err = fetch(ctx)
	}
	return ex.checked(si, tuples, err)
}

// checked rejects and counts source si when err is set or a tuple's width is
// not its schema's, so malformed rows degrade the answer, not panic.
func (ex *DomainExecutor) checked(si int, tuples []Tuple, err error) ([]Tuple, error) {
	name := ex.fetchers[si].Name()
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
