// Package mediate implements the schema mediation and mapping substrate the
// thesis plugs its clustering into (Section 4.4), following the approach of
// Das Sarma, Dong & Halevy, "Bootstrapping pay-as-you-go data integration
// systems" (SIGMOD 2008) at the level of detail the thesis depends on:
//
//   - a mediated schema per domain, built by filtering source attributes
//     below a frequency threshold and clustering the survivors into
//     mediated attributes by name similarity (using the same t_sim as
//     feature construction);
//   - for each source schema, a *probabilistic mapping*: a set of possible
//     attribute-level mappings into the mediated schema, each with a
//     probability.
//
// The package also exposes the un-clustered ("single mediated schema over
// everything") mode that Section 6.3 uses to demonstrate why clustering
// before mediation matters.
package mediate

import (
	"fmt"
	"slices"
	"strings"

	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// Options configures mediation.
type Options struct {
	// FreqThreshold is the attribute frequency threshold: source attributes
	// appearing (up to similarity) in a smaller fraction of the domain's
	// schemas are excluded from the mediated schema. SIGMOD 2008 and the
	// thesis use 0.1. Zero keeps the default; set Negative to disable
	// filtering entirely (the "threshold of 0" extreme of Section 6.3). A
	// NaN or a value outside [0, 1] is an error.
	FreqThreshold float64
	// Negative disables frequency filtering when true.
	Negative bool
	// TermSim is the term similarity used inside attribute similarity; nil
	// means LCS at τ 0.8, matching feature construction. BuildWith takes
	// it, and TermTau, from its lexicon instead.
	TermSim strsim.TermSim
	// TermTau is the τ_t_sim threshold for term matching. Zero means 0.8;
	// a negative value means a literal 0 (every pair of terms matches).
	TermTau float64
	// MongeElkan switches attribute-name similarity from fuzzy term-set
	// Jaccard to the symmetrized Monge-Elkan combinator over the same
	// t_sim. Monge-Elkan rewards containment ("email" scores 1.0 against
	// "email address"), so it fuses sub-phrase variants more aggressively.
	MongeElkan bool
}

const (
	// thetaAttr is θ_attr, the minimum attribute-name similarity for
	// two source attributes to share a mediated attribute, to count towards
	// each other's frequency, and for a mediated attribute to be a mapping
	// candidate. 0.5 fuses sub-phrase variants ("email" with "email
	// address", "year" with "publication year") while keeping sibling
	// attributes ("first name" vs "last name", fuzzy Jaccard 1/3) apart.
	thetaAttr = 0.5
	// maxMappings bounds the alternative mappings kept per source schema;
	// the beam that enumerates them keeps four times as many each step.
	maxMappings = 4
	beamWidth   = maxMappings * 4
	// maxCandidates bounds the mediated attributes one source attribute may
	// map to.
	maxCandidates = 3
	// beamLive bounds the partial mappings alive in one step of the beam:
	// each survivor of the last step, left unmapped or sent to a candidate.
	beamLive = beamWidth * (maxCandidates + 1)
	// unmappedWeight is the fixed small weight of leaving an attribute
	// unmapped, so alternative mappings with genuinely ambiguous attributes
	// survive.
	unmappedWeight = 0.1
)

// DefaultOptions mirrors the parameters of the thesis' mediation experiments.
func DefaultOptions() Options {
	return Options{FreqThreshold: 0.1, TermSim: strsim.LCSSim{}, TermTau: 0.8}
}

// normalized resolves the zero-value defaults and rejects a frequency
// threshold that is NaN or outside [0, 1].
func (o Options) normalized() (Options, error) {
	if o.FreqThreshold == 0 {
		o.FreqThreshold = 0.1
	}
	if o.Negative {
		o.FreqThreshold = 0
	}
	if o.TermSim == nil {
		o.TermSim = strsim.LCSSim{}
	}
	if o.TermTau == 0 {
		o.TermTau = 0.8
	}
	if !(o.FreqThreshold >= 0 && o.FreqThreshold <= 1) {
		return o, fmt.Errorf("mediate: frequency threshold %v is not in [0, 1]", o.FreqThreshold)
	}
	return o, nil
}

// SourceAttr identifies one attribute of one source schema.
type SourceAttr struct {
	// Schema is the index of the source schema within the mediated set.
	Schema int
	// Attr is the index of the attribute within that schema.
	Attr int
	// Name is the attribute name, for convenience.
	Name string
}

// MediatedAttr is one attribute of the mediated schema: a cluster of similar
// source attributes. Its display name is the most frequent member name.
type MediatedAttr struct {
	// Name is the representative name shown to users.
	Name string
	// Sources lists the member source attributes.
	Sources []SourceAttr
}

// Mapping is one possible attribute-level mapping φ from a source schema to
// the mediated schema: AttrTo[k] is the mediated-attribute index that source
// attribute k maps to, or -1 when unmapped. Prob is Pr(φ is correct).
type Mapping struct {
	AttrTo []int
	Prob   float64
}

// Mediated is the mediated schema of one domain plus the probabilistic
// mappings of each member schema (Φ^{S_i, M_r}).
type Mediated struct {
	// Schemas are the domain's member schemas, in the order mappings are
	// indexed.
	Schemas schema.Set
	// Attrs is the mediated schema M_r.
	Attrs []MediatedAttr
	// Mappings[i] is the probabilistic mapping of Schemas[i]; probabilities
	// within one schema's mapping set sum to 1.
	Mappings [][]Mapping
}

// AttrIndex returns the index of the mediated attribute with the given
// display name, or -1.
func (m *Mediated) AttrIndex(name string) int {
	for i, a := range m.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Build mediates the given schemas into one mediated schema with
// probabilistic mappings. The schemas are those of a single domain; calling
// it on an entire multi-domain corpus reproduces the pathologies of
// Section 6.3. It compares attribute names through a lexicon it builds over
// set alone (feature.NewLexicon, default tokenisation, opts.TermSim at
// opts.TermTau) and is BuildWith from there on, in a Scratch of its own; a
// caller that already holds the feature space's lexicon passes it to
// BuildWith instead.
func Build(set schema.Set, opts Options) (*Mediated, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return &Mediated{}, nil
	}
	return BuildWith(set, opts, lexiconOf(set, opts), new(Scratch))
}

// lexiconOf is the lexicon a standalone Build compares names through.
func lexiconOf(set schema.Set, opts Options) *feature.Lexicon {
	return feature.NewLexicon(set, feature.Config{TermOpts: terms.DefaultOptions(), Sim: opts.TermSim, Tau: opts.TermTau})
}

// Scratch is the working memory BuildWith mediates a domain in — the name
// table, the clustering's arrays, the candidate lists and the beam — each
// grown to the largest domain mediated so far and reused by the next. The
// zero value is ready to use. A Scratch serves one call at a time, so a
// fan-out gives each goroutine its own; nothing BuildWith returns points
// into it.
type Scratch struct {
	t nameTable
	// local maps a lexicon canonical id to the domain's name id + 1, 0 when
	// the domain has no name of that form; every entry is 0 between calls.
	local []int32
	// distinct and first are the domain's canonical ids in the order first
	// seen and the terms of the spelling each was first seen in.
	distinct []int32
	first    [][]int32
	parent   []int
	rep      []int
	medOf    []int
	members  [][]int
	// cands[a] lists name a's candidates, in slots of maxCandidates carved
	// out of candBuf; ranked holds one name's candidates before the cut.
	cands   [][]candidate
	candBuf []candidate
	ranked  []candidate
	bm      beam
}

// resize returns s with length n, keeping every element up to its old
// capacity (a slice of slices keeps the buffers of earlier calls); elements
// it appends are zero.
func resize[T any](s []T, n int) []T {
	s = s[:cap(s)]
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s[:n]
}

// BuildWith is Build comparing attribute names through lx, which must hold
// every attribute spelling of set, and working in sc: tokenisation, t_sim
// and τ_t_sim are the lexicon's, and opts.TermSim and opts.TermTau are not
// read. Handed the feature space's lexicon, mediation's t_sim is the
// features' by construction, and no name is split into terms or
// canonicalised again: from the first lookup on, mediation works in ids.
func BuildWith(set schema.Set, opts Options, lx *feature.Lexicon, sc *Scratch) (*Mediated, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return &Mediated{}, nil
	}
	t, err := sc.nameTable(set, opts, lx)
	if err != nil {
		return nil, err
	}
	n := len(t.names)

	// Names below the frequency threshold are excluded; the survivors
	// cluster into mediated attributes by single-link connected components
	// of the similarity relation (union-find with path halving).
	freq := t.frequencies(len(set))
	kept := func(a int) bool { return freq[a] >= opts.FreqThreshold }
	parent := resize(sc.parent, n)
	sc.parent = parent
	for a := range parent {
		parent[a] = a
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for b := range t.names {
		for a := 0; a < b; a++ {
			if kept(a) && kept(b) && t.sim(a, b) >= thetaAttr {
				parent[find(b)] = find(a)
			}
		}
	}

	// A mediated attribute is named after its most frequent member name,
	// the smaller on ties. Ids ascend with names, so taking the components
	// in order of that member's id yields Attrs sorted by Name.
	rep := resize(sc.rep, n) // component root → id of the naming member
	sc.rep = rep
	for a := range rep {
		rep[a] = -1
	}
	for a := range t.names {
		if r := find(a); kept(a) && (rep[r] < 0 || t.names[a].count > t.names[rep[r]].count) {
			rep[r] = a
		}
	}
	naming := func(a int) bool { return kept(a) && rep[find(a)] == a }
	nAttrs := 0
	for a := range t.names {
		if naming(a) {
			nAttrs++
		}
	}
	med := &Mediated{Schemas: set}
	if nAttrs > 0 {
		med.Attrs = make([]MediatedAttr, 0, nAttrs)
	}
	medOf := resize(sc.medOf, n) // name id → index into med.Attrs, -1 when filtered
	sc.medOf = medOf
	for a := range t.names {
		medOf[a] = -1
		if naming(a) {
			medOf[a] = len(med.Attrs)
			med.Attrs = append(med.Attrs, MediatedAttr{Name: lx.Canonical(t.names[a].canon)})
		}
	}
	members := resize(sc.members, nAttrs) // the distinct names of each mediated attribute
	sc.members = members
	for mi := range members {
		members[mi] = members[mi][:0]
	}
	nSources := 0
	for a := range t.names {
		if kept(a) {
			medOf[a] = medOf[rep[find(a)]]
			members[medOf[a]] = append(members[medOf[a]], a)
			nSources += t.names[a].count
		}
	}
	// Every mediated attribute's Sources, carved out of one slice presized
	// from the counts, each capped at its own end.
	sources, off := make([]SourceAttr, nSources), 0
	for mi, names := range members {
		size := 0
		for _, a := range names {
			size += t.names[a].count
		}
		med.Attrs[mi].Sources = sources[off : off : off+size]
		off += size
	}
	at := 0
	for i, s := range set {
		for k, name := range s.Attributes {
			if mi := medOf[t.attrs[at]]; mi >= 0 {
				med.Attrs[mi].Sources = append(med.Attrs[mi].Sources, SourceAttr{Schema: i, Attr: k, Name: name})
			}
			at++
		}
	}

	// Probabilistic mappings per schema. Where a source attribute may map
	// depends only on its name, so candidates are ranked once per name.
	sc.cands = resize(sc.cands, n)
	sc.candBuf = resize(sc.candBuf, n*maxCandidates)
	for a := range sc.cands {
		sc.cands[a] = sc.candidates(a, medOf[a], members, sc.candBuf[a*maxCandidates:(a+1)*maxCandidates])
	}
	med.Mappings = make([][]Mapping, len(set))
	at = 0
	for i, s := range set {
		k := len(s.Attributes)
		med.Mappings[i] = sc.bm.buildMappings(t.attrs[at:at+k], sc.cands)
		at += k
	}
	return med, nil
}

// attrName is one distinct canonical attribute name of a domain.
type attrName struct {
	// canon is the name's canonical id in the lexicon.
	canon int32
	// terms are the lexicon's term ids of the name's first spelling in
	// source order, not of its canonical form: "firstName" splits into two
	// terms where "firstname" is one, so which spelling a domain saw first
	// decides its similarities.
	terms []int32
	// schemas lists, ascending, the schemas with an attribute of this name;
	// count is the number of such attributes.
	schemas []int
	count   int
}

// nameTable is what mediation knows about a domain: its distinct attribute
// names and one similarity per pair of them — attribute similarity "based
// on the same similarity function t_sim" (Section 4.4). A mediated schema
// is a function of this table alone, so Build computes it once and works in
// name ids from there on.
type nameTable struct {
	// names holds the distinct canonical names in ascending order of their
	// canonical ids, which is ascending order of the names; a name's id is
	// its index.
	names []attrName
	// attrs holds the name id of every attribute of the domain, schema by
	// schema in source order.
	attrs []int32
	// sims is the upper triangle of the similarity matrix, column by
	// column: sim(a, b) for a < b is sims[b(b-1)/2 + a].
	sims []float64
	// used, freq and counted are buffers of fuzzyJaccard and frequencies.
	used    []bool
	freq    []float64
	counted []int
}

// nameTable fills sc's name table for set: one lexicon lookup per
// attribute, canonical ids mapped to name ids through the dense local array.
func (sc *Scratch) nameTable(set schema.Set, opts Options, lx *feature.Lexicon) (*nameTable, error) {
	t := &sc.t
	local := resize(sc.local, lx.NumCanonical())
	sc.local = local
	distinct, first := sc.distinct[:0], sc.first[:0]
	t.attrs = t.attrs[:0]
	for _, s := range set {
		for _, spelling := range s.Attributes {
			ts, c, ok := lx.Lookup(spelling)
			if !ok {
				for _, c := range distinct {
					local[c] = 0
				}
				return nil, fmt.Errorf("mediate: attribute %q is not in the lexicon", spelling)
			}
			if local[c] == 0 {
				distinct = append(distinct, c)
				first = append(first, ts)
				local[c] = int32(len(distinct))
			}
			t.attrs = append(t.attrs, c)
		}
	}
	sc.distinct, sc.first = distinct, first

	// Canonical ids ascend with the canonical forms, so ascending ids are
	// ascending names; local turns from canonical id → first-seen index + 1
	// into canonical id → name id + 1. Sorting ids rather than names keeps
	// each name's buffers where the last domain left them.
	slices.Sort(distinct)
	n := len(distinct)
	t.names = resize(t.names, n)
	mostTerms := 0 // of any one name: sizes fuzzyJaccard's scratch
	for a, c := range distinct {
		nm := &t.names[a]
		nm.canon, nm.terms, nm.schemas, nm.count = c, first[local[c]-1], nm.schemas[:0], 0
		local[c] = int32(a) + 1
		mostTerms = max(mostTerms, len(nm.terms))
	}
	at := 0
	for i, s := range set {
		for range s.Attributes {
			a := local[t.attrs[at]] - 1
			t.attrs[at] = a
			nm := &t.names[a]
			nm.count++
			if len(nm.schemas) == 0 || nm.schemas[len(nm.schemas)-1] != i {
				nm.schemas = append(nm.schemas, i)
			}
			at++
		}
	}
	for _, c := range distinct {
		local[c] = 0
	}

	// The only place two names are compared. The smaller name goes first:
	// under a one-sided t_sim fuzzyJaccard(x, y) and fuzzyJaccard(y, x)
	// differ, so the direction is part of the result.
	t.sims = slices.Grow(t.sims[:0], n*(n-1)/2)
	var words [][]string
	if opts.MongeElkan {
		// Monge-Elkan weighs t_sim itself, not a match: it reads the terms
		// back as strings.
		words = make([][]string, n)
		for a, nm := range t.names {
			for _, j := range nm.terms {
				words[a] = append(words[a], lx.Term(j))
			}
		}
	}
	t.used = resize(t.used, mostTerms)
	for b := 1; b < n; b++ {
		for a := 0; a < b; a++ {
			if opts.MongeElkan {
				t.sims = append(t.sims, strsim.MongeElkanSym(words[a], words[b], lx.TermSim()))
			} else {
				t.sims = append(t.sims, fuzzyJaccard(t.names[a].terms, t.names[b].terms, lx, t.used))
			}
		}
	}
	return t, nil
}

// sim returns the similarity of two names in [0,1].
func (t *nameTable) sim(a, b int) float64 {
	if a == b {
		return 1
	}
	if a > b {
		a, b = b, a
	}
	return t.sims[b*(b-1)/2+a]
}

// frequencies returns, for every name, the fraction of the domain's
// nSchemas schemas containing an attribute similar to it at θ_attr. The
// slice is the table's and valid until its next call.
func (t *nameTable) frequencies(nSchemas int) []float64 {
	freq := resize(t.freq, len(t.names))
	counted := resize(t.counted, nSchemas) // counted[s] == a+1: schema s already counts for name a
	clear(counted)
	t.freq, t.counted = freq, counted
	for a := range t.names {
		in := 0
		for b := range t.names {
			if t.sim(a, b) >= thetaAttr {
				for _, s := range t.names[b].schemas {
					if counted[s] != a+1 {
						counted[s] = a + 1
						in++
					}
				}
			}
		}
		freq[a] = float64(in) / float64(nSchemas)
	}
	return freq
}

// candidate is a mediated attribute a source attribute may map to.
type candidate struct {
	med    int
	weight float64
}

// candidates ranks the mediated attributes an attribute named a may map to:
// its own (own, -1 when the name was filtered out) at weight 1, then every
// other whose most similar member name reaches θ_attr, at that similarity.
// The best maxCandidates are copied into out, which it returns resliced.
// The sort is unstable and the lists are full of ties, so the order the
// candidates are appended in and pdqsort's comparison sequence — which
// slices.SortFunc under less ⇔ cmp < 0 shares with sort.Slice — are part of
// the output.
func (sc *Scratch) candidates(a, own int, members [][]int, out []candidate) []candidate {
	cs := sc.ranked[:0]
	if own >= 0 {
		cs = append(cs, candidate{med: own, weight: 1})
	}
	for mi, names := range members {
		if mi == own {
			continue
		}
		best := 0.0
		for _, b := range names {
			if v := sc.t.sim(a, b); v > best {
				best = v
			}
		}
		if best >= thetaAttr {
			cs = append(cs, candidate{med: mi, weight: best})
		}
	}
	slices.SortFunc(cs, byWeight)
	sc.ranked = cs
	return out[:copy(out, cs)]
}

// byWeight orders candidates by descending weight: cmp < 0 exactly when
// a.weight > b.weight (weights are similarities, never NaN).
func byWeight(a, b candidate) int { return descending(a.weight, b.weight) }

// descending compares two non-NaN floats, larger first.
func descending(x, y float64) int {
	switch {
	case x > y:
		return -1
	case x < y:
		return 1
	}
	return 0
}

// fuzzyJaccard computes |matched pairs| / |union| where a term of one set
// matches at most one term of the other at τ (greedy matching, in the order
// the lists hold the terms), the terms given as lexicon ids and a match read
// off the lexicon's match lists. used is scratch for at least len(tb) marks.
func fuzzyJaccard(ta, tb []int32, lx *feature.Lexicon, used []bool) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 0
	}
	used = used[:len(tb)]
	clear(used)
	matched := 0
	for _, x := range ta {
		for j, y := range tb {
			if !used[j] && lx.Match(x, y) {
				used[j] = true
				matched++
				break
			}
		}
	}
	union := len(ta) + len(tb) - matched
	if union == 0 {
		return 0
	}
	return float64(matched) / float64(union)
}

// key is a partial mapping as the beam sorts it: its score and the slot of
// its side that holds its prefix. The sort moves these 16 bytes, never a
// prefix. pdqsort's swaps depend only on the length and on the outcomes of
// its comparisons, so sorting keys leaves the permutation sorting whole
// partials would, ties included (TestPropertySortIsSortSlice).
type key struct {
	score float64
	slot  int
}

// byScore orders keys by descending score.
func byScore(a, b key) int { return descending(a.score, b.score) }

// side is one half of the beam: slot m's prefix at ints[m·stride:], stride
// being the attribute count of the schema enumerated, and its key somewhere
// in keys.
type side struct {
	ints []int
	keys [beamLive]key
}

// put writes prefix extended by med, scored score, to slot m.
func (sd *side) put(m, stride int, prefix []int, med int, score float64) {
	attrTo := sd.ints[m*stride : m*stride+len(prefix)+1]
	copy(attrTo, prefix)
	attrTo[len(prefix)] = med
	sd.keys[m] = key{score: score, slot: m}
}

// beam is the scratch the mappings of a domain's schemas are enumerated in:
// two sides that swap roles each step. A step reads the surviving partials
// of one side and writes their extensions to the other.
type beam struct {
	sides [2]side
}

// buildMappings enumerates up to maxMappings injective attribute mappings
// from a schema — given as its attributes' name ids — into the mediated
// schema by beam search over the names' candidates (cands, by name id),
// scored by the product of the candidate weights and normalized into
// probabilities. Like candidates, it sorts unstably over ties (scores are
// products of 1, 0.5 and 0.1), so the order extensions are appended in is
// part of the output. Only the survivors are copied out of the scratch.
func (bm *beam) buildMappings(names []int32, cands [][]candidate) []Mapping {
	stride := len(names)
	for i := range bm.sides {
		bm.sides[i].ints = resize(bm.sides[i].ints, beamLive*stride)
	}
	cur, next := &bm.sides[0], &bm.sides[1]
	cur.keys[0] = key{score: 1}
	n := 1
	for k, a := range names {
		m := 0
		for _, p := range cur.keys[:n] {
			prefix := cur.ints[p.slot*stride : p.slot*stride+k]
			next.put(m, stride, prefix, -1, p.score*unmappedWeight)
			m++
			for _, c := range cands[a] {
				if !slices.Contains(prefix, c.med) {
					next.put(m, stride, prefix, c.med, p.score*c.weight)
					m++
				}
			}
		}
		slices.SortFunc(next.keys[:m], byScore)
		cur, next, n = next, cur, min(m, beamWidth)
	}
	best := cur.keys[:n]
	slices.SortFunc(best, byScore)
	best = best[:min(n, maxMappings)]
	total := 0.0
	for _, p := range best {
		total += p.score
	}
	// One backing array per schema, each AttrTo capped at its own end so an
	// append by a caller cannot reach its neighbour; nil stays nil for a
	// schema without attributes.
	k := len(names)
	var backing []int
	if k > 0 {
		backing = make([]int, len(best)*k)
	}
	out := make([]Mapping, len(best))
	for i, p := range best {
		out[i] = Mapping{AttrTo: backing[i*k : (i+1)*k : (i+1)*k], Prob: p.score / total}
		copy(out[i].AttrTo, cur.ints[p.slot*k:])
	}
	return out
}

// Describe renders the mediated schema for logs and the CLI.
func (m *Mediated) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mediated schema: %d attributes over %d schemas\n", len(m.Attrs), len(m.Schemas))
	for _, a := range m.Attrs {
		fmt.Fprintf(&sb, "  %-24s (%d source attrs)\n", a.Name, len(a.Sources))
	}
	return sb.String()
}
