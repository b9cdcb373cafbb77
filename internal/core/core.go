// Package core implements the thesis' primary contribution: the
// probabilistic domain model built on top of schema clustering
// (Algorithm 3, Section 4.3).
//
// Clusters partition the schema set; domains are probabilistic: a schema
// whose similarity to several clusters is both above τ_c_sim and within a
// relative margin θ of its best cluster belongs to each such domain with a
// probability proportional to its schema-to-cluster similarity. Most schemas
// end up in exactly one domain with probability 1; the few boundary schemas
// carry the clustering uncertainty forward into mediation, query answering,
// and query classification.
package core

import (
	"fmt"
	"slices"
	"sort"

	"schemaflow/internal/cluster"
	"schemaflow/internal/feature"
	"schemaflow/internal/par"
	"schemaflow/internal/schema"
)

// Membership is one (schema, probability) entry of a domain: Pr(S_i ∈ D_r).
type Membership struct {
	Schema int
	Prob   float64
}

// Domain D_r corresponds to cluster C_r and holds every schema with non-zero
// membership probability.
type Domain struct {
	// ID is the domain's dense identifier, equal to the cluster id.
	ID int
	// Cluster lists the schema indices of the underlying hard cluster C_r.
	Cluster []int
	// Members lists S(D_r): schemas with Pr(S_i ∈ D_r) > 0, ascending by
	// schema index. Probabilities for a given schema across all domains
	// sum to 1.
	Members []Membership
}

// Certain returns the schemas that belong to the domain with probability
// exactly 1, and Uncertain the rest (the Ŝ(D_r) of Section 5.3).
func (d *Domain) Certain() []Membership   { return d.split(true) }
func (d *Domain) Uncertain() []Membership { return d.split(false) }

func (d *Domain) split(certain bool) []Membership {
	var out []Membership
	for _, m := range d.Members {
		if (m.Prob >= 1) == certain {
			out = append(out, m)
		}
	}
	return out
}

// Prob returns Pr(schema ∈ domain), zero when the schema is not a member.
func (d *Domain) Prob(schemaIdx int) float64 {
	for _, m := range d.Members {
		if m.Schema == schemaIdx {
			return m.Prob
		}
	}
	return 0
}

// Options configures domain construction.
type Options struct {
	// TauCSim is τ_c_sim: the minimum schema-to-cluster similarity for
	// membership, normally the same threshold used to stop clustering.
	TauCSim float64
	// Theta is θ: the relative uncertainty width. A schema joins every
	// cluster whose similarity is within a factor (1-θ) of its best
	// cluster's. The thesis uses 0.02.
	Theta float64
}

// DefaultOptions returns τ_c_sim = 0.25 and θ = 0.02 (Sections 6.2, 4.3).
func DefaultOptions() Options { return Options{TauCSim: 0.25, Theta: 0.02} }

// Model is the complete probabilistic domain model: the feature space, the
// hard clustering, the probabilistic domains, and the input schemas.
type Model struct {
	Schemas    schema.Set
	Space      *feature.Space
	Clustering *cluster.Result
	Domains    []Domain
	Opts       Options

	// bySchema[i] lists the (domain id, prob) assignments of schema i.
	bySchema [][]Membership
}

// AssignDomains runs Algorithm 3 over the complete pair graph of sp: every
// schema-to-cluster similarity exact. It is AssignDomainsRows at floor 0.
// payg never calls it: a build, a feedback apply and an AddSchema read the
// graph payg chooses for the space.
func AssignDomains(set schema.Set, sp *feature.Space, cl *cluster.Result, opts Options) (*Model, error) {
	return AssignDomainsRows(set, sp, cl, 0, opts)
}

// AssignDomainsRows runs Algorithm 3 over the pair graph of sp at floor (the
// positive pairs whose similarity is at least floor; floor ≤ 0 is every one)
// without storing it: each schema's row is read off the space
// (cluster.GraphRow) when its turn comes, so the working memory is
// O(n + clusters) whatever the number of pairs. The model is
// AssignDomainsSparse's over cluster.CompletePairSims(sp, floor) to the last
// bit. Feedback runs it, on a space of any size, with the floor the build
// chose.
func AssignDomainsRows(set schema.Set, sp *feature.Space, cl *cluster.Result, floor float64, opts Options) (*Model, error) {
	return assignDomains(set, sp, cl, opts, func(i int, buf *feature.RowBuf) ([]int32, []float64) {
		return cluster.GraphRow(sp, i, floor, buf)
	})
}

// AssignDomainsSparse runs Algorithm 3 from a pair-similarity adjacency. A
// schema's similarity to cluster C_r, s_c_sim(S_i, C_r), is the average of
// s_sim(S_i, S_j) over the members of C_r, computed from only its stored
// neighbors inside C_r (plus the self-similarity 1 toward its own cluster);
// pairs absent from ps contribute 0, exactly the AgglomerativeSparse
// convention.
//
// Over a complete pair set the result equals AssignDomains' to the last bit.
// Over the pairs at or above a floor, a schema-to-cluster similarity loses
// the pairs below it (counted as 0), each far under τ_c_sim.
func AssignDomainsSparse(set schema.Set, sp *feature.Space, cl *cluster.Result, ps *cluster.PairSims, opts Options) (*Model, error) {
	if ps.N() != len(set) {
		return nil, fmt.Errorf("core: pair sims cover %d schemas, set has %d", ps.N(), len(set))
	}
	return assignDomains(set, sp, cl, opts, func(i int, _ *feature.RowBuf) ([]int32, []float64) {
		return ps.Row(i)
	})
}

// assignDomains is Algorithm 3. row returns schema i's positive
// similarities s_sim(S_i, S_j), j ≠ i, ascending in j, in slices it may keep
// in the calling worker's buf; a schema it leaves out counts as similarity
// 0. Each similarity is added into sums[cluster of j] with the self term
// (cluster.SchemaClusterSim counts i's own membership as similarity 1) at
// position i, not after the rest: float addition does not commute with the
// reorder, and the sums must equal the definition's to the last bit from
// every source.
//
// Schemas are independent until their memberships are recorded, so they fan
// out over par.EachWith, each worker with its own sums, touched list and row
// buffer, and each writes what Gate admitted for schema i to its own slot;
// the memberships are then recorded in schema order on one goroutine, so the
// model is the same for every worker count.
//
// With τ_c_sim > 0 a schema costs O(d log d) in its row length d, whatever
// the number of clusters: only the clusters it touches — its own and its
// neighbors' — are divided, gated and cleared. A cluster it does not touch
// has similarity exactly 0, which fails the τ_c_sim gate and cannot be the
// maximum the θ band is measured from, so leaving it out of the gate changes
// nothing. With τ_c_sim ≤ 0 a zero similarity passes the absolute gate (and,
// at θ = 1, the relative one), so every cluster is gated.
//
// Deviation from the thesis text, for robustness: if a schema fails the
// τ_c_sim gate against every cluster (possible when its own cluster grew
// large and diffuse after the schema joined), D(S_i) would be empty and the
// probabilities undefined; such a schema is assigned to its own cluster's
// domain with probability 1.
func assignDomains(set schema.Set, sp *feature.Space, cl *cluster.Result, opts Options, row func(i int, buf *feature.RowBuf) ([]int32, []float64)) (*Model, error) {
	if sp.NumSchemas() != len(set) {
		return nil, fmt.Errorf("core: feature space has %d schemas, set has %d", sp.NumSchemas(), len(set))
	}
	if len(cl.Assign) != len(set) {
		return nil, fmt.Errorf("core: clustering covers %d schemas, set has %d", len(cl.Assign), len(set))
	}
	if opts.Theta < 0 || opts.Theta > 1 {
		return nil, fmt.Errorf("core: theta %v outside [0,1]", opts.Theta)
	}

	type worker struct {
		buf     feature.RowBuf
		sims    []float64
		stamp   []int // stamp[r] == i+1: r is in touched for schema i
		touched []int
	}
	gated := make([][]Membership, len(set))
	par.EachWith(len(set), func() *worker {
		return &worker{sims: make([]float64, cl.NumClusters()), stamp: make([]int, cl.NumClusters())}
	}, func(w *worker, i int) {
		// s_c_sim(S_i, C_r) = Σ_{j ∈ C_r} s_sim(S_i, S_j) / |C_r|. The self
		// term goes in at position i, before the first neighbor above i or
		// after the last one when there is none.
		sims := w.sims
		own, selfAdded := cl.Assign[i], false
		w.touched = append(w.touched[:0], own)
		w.stamp[own] = i + 1
		js, ss := row(i, &w.buf)
		for k, j := range js {
			if !selfAdded && int(j) > i {
				sims[own]++
				selfAdded = true
			}
			r := cl.Assign[j]
			if w.stamp[r] != i+1 {
				w.stamp[r] = i + 1
				w.touched = append(w.touched, r)
			}
			sims[r] += ss[k]
		}
		if !selfAdded {
			sims[own]++
		}
		if opts.TauCSim <= 0 {
			for r := range sims {
				sims[r] /= float64(len(cl.Members[r]))
			}
			gated[i] = Gate(sims, nil, opts)
			clear(sims)
			return
		}
		slices.Sort(w.touched)
		for _, r := range w.touched {
			sims[r] /= float64(len(cl.Members[r]))
		}
		gated[i] = Gate(sims, w.touched, opts)
		for _, r := range w.touched {
			sims[r] = 0
		}
	})

	m := newModel(set, sp, cl, opts)
	for i, ds := range gated {
		m.addMemberships(i, ds, cl.Assign[i])
	}
	m.sortDomainMembers()
	return m, nil
}

// newModel returns the model of a clustering with one empty domain per
// cluster, ready for addMembership.
func newModel(set schema.Set, sp *feature.Space, cl *cluster.Result, opts Options) *Model {
	m := &Model{
		Schemas:    set,
		Space:      sp,
		Clustering: cl,
		Opts:       opts,
		bySchema:   make([][]Membership, len(set)),
	}
	m.Domains = make([]Domain, cl.NumClusters())
	for r := range m.Domains {
		m.Domains[r] = Domain{ID: r, Cluster: cl.Members[r]}
	}
	return m
}

// Gate is Algorithm 3's membership rule for one schema, the only copy: given
// sims[r] = s_c_sim(S_i, C_r), it returns D(S_i) — the candidate domains
// passing the absolute τ_c_sim gate and lying within a factor 1−θ of the best
// candidate — as (domain id, probability) entries in candidate order, the
// probabilities proportional to similarity and summing to 1. cands lists the
// domains considered; nil means every r in range of sims. A domain left out
// of cands contributes nothing, not even as the best one — with a literal
// τ_c_sim of 0 its zero similarity would otherwise pass. An empty result
// means no domain claims the schema; what happens then is the caller's
// decision (its own cluster at build time, "fresh" online).
func Gate(sims []float64, cands []int, opts Options) []Membership {
	n := len(sims)
	if cands != nil {
		n = len(cands)
	}
	at := func(k int) int {
		if cands != nil {
			return cands[k]
		}
		return k
	}
	maxSim := 0.0
	for k := 0; k < n; k++ {
		if s := sims[at(k)]; s > maxSim {
			maxSim = s
		}
	}
	var ds []Membership
	total := 0.0
	for k := 0; k < n; k++ {
		r := at(k)
		if sims[r] >= opts.TauCSim && maxSim > 0 && sims[r]/maxSim >= 1-opts.Theta {
			ds = append(ds, Membership{Schema: r, Prob: sims[r]})
			total += sims[r]
		}
	}
	for k := range ds {
		ds[k].Prob /= total
	}
	return ds
}

// addMemberships records what Gate admitted for schema i, or — the
// empty-D(S_i) fallback described in the assignDomains comment — its own
// cluster with probability 1.
func (m *Model) addMemberships(i int, ds []Membership, own int) {
	if len(ds) == 0 {
		m.addMembership(i, own, 1)
		return
	}
	for _, d := range ds {
		m.addMembership(i, d.Schema, d.Prob)
	}
}

func (m *Model) sortDomainMembers() {
	for r := range m.Domains {
		sort.Slice(m.Domains[r].Members, func(a, b int) bool {
			return m.Domains[r].Members[a].Schema < m.Domains[r].Members[b].Schema
		})
	}
}

func (m *Model) addMembership(schemaIdx, domainID int, p float64) {
	m.Domains[domainID].Members = append(m.Domains[domainID].Members, Membership{Schema: schemaIdx, Prob: p})
	m.bySchema[schemaIdx] = append(m.bySchema[schemaIdx], Membership{Schema: domainID, Prob: p})
}

// RestoreModel rebuilds a Model from persisted per-schema membership lists
// (each inner slice holds {domain id, prob} entries, as returned by
// DomainsOf). It is the inverse of persisting a model's assignments: no
// similarities are recomputed.
func RestoreModel(set schema.Set, sp *feature.Space, cl *cluster.Result, memberships [][]Membership, opts Options) (*Model, error) {
	if len(memberships) != len(set) {
		return nil, fmt.Errorf("core: %d membership lists for %d schemas", len(memberships), len(set))
	}
	m := newModel(set, sp, cl, opts)
	for i, ms := range memberships {
		for _, mem := range ms {
			if mem.Schema < 0 || mem.Schema >= len(m.Domains) {
				return nil, fmt.Errorf("core: schema %d references domain %d of %d", i, mem.Schema, len(m.Domains))
			}
			m.addMembership(i, mem.Schema, mem.Prob)
		}
	}
	m.sortDomainMembers()
	return m, nil
}

// NumDomains returns |D|.
func (m *Model) NumDomains() int { return len(m.Domains) }

// DomainsOf returns the (domain id, probability) assignments of schema i —
// the non-zero triples of Algorithm 3's output. The Schema field of the
// returned memberships holds the domain id.
func (m *Model) DomainsOf(i int) []Membership { return m.bySchema[i] }

// Prob returns Pr(S_i ∈ D_r).
func (m *Model) Prob(schemaIdx, domainID int) float64 {
	for _, a := range m.bySchema[schemaIdx] {
		if a.Schema == domainID {
			return a.Prob
		}
	}
	return 0
}

// Pin overrides a schema's probabilistic assignment with certain membership
// in the given domain (probability 1 there, 0 everywhere else). It is the
// mutation primitive behind explicit user feedback: a human's correction
// outranks the similarity heuristics.
func (m *Model) Pin(schemaIdx, domainID int) error {
	if schemaIdx < 0 || schemaIdx >= len(m.Schemas) {
		return fmt.Errorf("core: no schema %d", schemaIdx)
	}
	if domainID < 0 || domainID >= len(m.Domains) {
		return fmt.Errorf("core: no domain %d", domainID)
	}
	// Remove the schema from every domain's member list.
	for _, a := range m.bySchema[schemaIdx] {
		d := &m.Domains[a.Schema]
		for k, mem := range d.Members {
			if mem.Schema == schemaIdx {
				d.Members = append(d.Members[:k], d.Members[k+1:]...)
				break
			}
		}
	}
	m.bySchema[schemaIdx] = nil
	m.addMembership(schemaIdx, domainID, 1)
	// Restore the target domain's member ordering.
	d := &m.Domains[domainID]
	sort.Slice(d.Members, func(a, b int) bool { return d.Members[a].Schema < d.Members[b].Schema })
	return nil
}

// UncertainCount returns the number of schemas with fractional membership in
// at least one domain — the drivers of classifier setup cost (Section 5.3).
func (m *Model) UncertainCount() int {
	n := 0
	for _, as := range m.bySchema {
		if len(as) > 1 {
			n++
		}
	}
	return n
}
