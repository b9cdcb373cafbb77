package mediate

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// TestPropertyBuildInvariants fuzzes corpora and checks structural
// invariants of mediation:
//
//   - every mediated attribute has ≥1 source, and no kept source attribute
//     appears in two mediated attributes;
//   - per schema, mapping probabilities sum to 1 and each mapping is
//     injective and complete (one entry per source attribute);
//   - with filtering disabled, every source attribute occurrence is covered
//     by some mediated attribute.
func TestPropertyBuildInvariants(t *testing.T) {
	pool := []string{
		"title", "paper title", "authors", "author names", "year",
		"publication year", "venue", "pages", "publisher", "abstract",
		"make", "model", "price", "mileage", "first name", "email",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		set := make(schema.Set, n)
		for i := range set {
			k := 2 + rng.Intn(4)
			perm := rng.Perm(len(pool))[:k]
			attrs := make([]string, k)
			for j, p := range perm {
				attrs[j] = pool[p]
			}
			set[i] = schema.Schema{Name: "s", Attributes: attrs}
		}
		opts := DefaultOptions()
		if rng.Intn(2) == 0 {
			opts.Negative = true
		}
		med, err := Build(set, opts)
		if err != nil {
			return false
		}

		// Disjoint coverage of kept occurrences.
		seen := make(map[[2]int]bool)
		for _, ma := range med.Attrs {
			if len(ma.Sources) == 0 || ma.Name == "" {
				return false
			}
			for _, sa := range ma.Sources {
				key := [2]int{sa.Schema, sa.Attr}
				if seen[key] {
					return false // one occurrence in two mediated attrs
				}
				seen[key] = true
			}
		}
		if opts.Negative {
			for i, s := range set {
				for k := range s.Attributes {
					if !seen[[2]int{i, k}] {
						return false // unfiltered attribute dropped
					}
				}
			}
		}

		// Mapping laws.
		for i, mappings := range med.Mappings {
			if len(mappings) == 0 {
				return false
			}
			total := 0.0
			for _, mp := range mappings {
				if len(mp.AttrTo) != len(set[i].Attributes) {
					return false
				}
				used := make(map[int]bool)
				for _, to := range mp.AttrTo {
					if to < 0 {
						continue
					}
					if to >= len(med.Attrs) || used[to] {
						return false
					}
					used[to] = true
				}
				if mp.Prob <= 0 || mp.Prob > 1+1e-12 {
					return false
				}
				total += mp.Prob
			}
			if math.Abs(total-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFrequencyMonotone: lowering the threshold never shrinks the
// mediated schema.
func TestPropertyFrequencyMonotone(t *testing.T) {
	pool := []string{
		"title", "authors", "year", "venue", "pages",
		"make", "model", "price", "mileage", "color",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		set := make(schema.Set, n)
		for i := range set {
			k := 2 + rng.Intn(4)
			perm := rng.Perm(len(pool))[:k]
			attrs := make([]string, k)
			for j, p := range perm {
				attrs[j] = pool[p]
			}
			set[i] = schema.Schema{Name: "s", Attributes: attrs}
		}
		sizes := make([]int, 0, 3)
		for _, th := range []float64{0.6, 0.3, 0.05} {
			opts := DefaultOptions()
			opts.FreqThreshold = th
			med, err := Build(set, opts)
			if err != nil {
				return false
			}
			sizes = append(sizes, len(med.Attrs))
		}
		return sizes[0] <= sizes[1] && sizes[1] <= sizes[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNameTableIsTheDefinition checks the name table against the
// definitions it tabulates, on small random domains that spell one canonical
// name several ways. sim(i, j) must be the configured attribute similarity
// of the terms of the two names' first spellings in source order, smaller
// name first — "firstName" yields two terms and "firstname" one, so the
// spelling seen first decides — and a name's frequency must be the fraction
// of schemas holding an attribute at least θ_attr similar to it, counted
// here schema by schema. A third of the runs use a one-sided t_sim, the one
// thing under which the direction of a comparison shows.
func TestPropertyNameTableIsTheDefinition(t *testing.T) {
	pool := []string{
		"First  Name", "first name", "firstName", "firstname", "FIRSTNAME",
		"last name", "Last Name", "family name", "name",
		"email", "email address", "Email  Address", "emails", "phone", "office phone",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := make(schema.Set, 2+rng.Intn(6))
		for i := range set {
			k := 1 + rng.Intn(5)
			attrs := make([]string, k)
			for j, p := range rng.Perm(len(pool))[:k] {
				attrs[j] = pool[p]
			}
			set[i] = schema.Schema{Name: "s", Attributes: attrs}
		}
		opts := DefaultOptions()
		opts.MongeElkan = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			opts.TermSim = prefixSim{}
		}
		tab := newNameTable(set, opts)

		// The definition's view: each canonical name's first spelling.
		first := make(map[string]string)
		for _, s := range set {
			for _, a := range s.Attributes {
				if _, ok := first[canonicalName(a)]; !ok {
					first[canonicalName(a)] = a
				}
			}
		}
		termsOf := func(canon string) []string {
			return terms.ExtractList([]string{first[canon]}, terms.DefaultOptions())
		}
		sim := func(a, b string) float64 {
			if a == b {
				return 1
			}
			if b < a {
				a, b = b, a
			}
			if opts.MongeElkan {
				return strsim.MongeElkanSym(termsOf(a), termsOf(b), opts.TermSim)
			}
			return fuzzyJaccard(termsOf(a), termsOf(b), opts.TermSim, opts.TermTau)
		}

		if len(tab.names) != len(first) {
			return false
		}
		freq := tab.frequencies(len(set))
		for i, ni := range tab.names {
			if i > 0 && tab.names[i-1].canon >= ni.canon {
				return false // not ascending
			}
			for j, nj := range tab.names {
				if tab.sim(i, j) != sim(ni.canon, nj.canon) {
					return false
				}
			}
			in := 0
			for _, s := range set {
				for _, a := range s.Attributes {
					if tab.ids[a] != tab.ids[canonicalName(a)] {
						return false // a spelling filed under another name
					}
					if sim(ni.canon, canonicalName(a)) >= thetaAttr {
						in++
						break
					}
				}
			}
			if freq[i] != float64(in)/float64(len(set)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// prefixSim is a deliberately asymmetric t_sim: a matches b when a is a
// prefix of b ("email" matches "emails", not the reverse).
type prefixSim struct{}

func (prefixSim) Name() string { return "prefix" }

func (prefixSim) Sim(a, b string) float64 {
	if strings.HasPrefix(b, a) {
		return 1
	}
	return 0
}
