package mediate_test

import (
	"testing"

	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
)

// TestWarmScratchAllocatesOnlyTheOutput is an allocation ratchet: mediating
// the largest domain of Large{6000,120,1} in a warmed Scratch allocates what
// it returns and nothing else — the Mediated, its Attrs, one slab of
// Sources, the Mappings, and per schema its mappings and one AttrTo backing.
// That is 100 allocations for the domain's 48 schemas, the count the first
// run recorded. Scaffolding that creeps back (a map, a per-domain buffer, a
// per-name slice) fails it.
func TestWarmScratchAllocatesOnlyTheOutput(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
	lx := feature.NewLexicon(set, feature.DefaultConfig())
	var members schema.Set
	for _, d := range domainsOf(t, set) {
		if len(d) > len(members) {
			members = d
		}
	}
	sc := new(mediate.Scratch)
	// AllocsPerRun's own warm-up call grows the scratch.
	got := testing.AllocsPerRun(10, func() {
		if _, err := mediate.BuildWith(members, mediate.DefaultOptions(), lx, sc); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(4 + 2*len(members)); got > limit {
		t.Fatalf("%d schemas: %v allocations per domain, want ≤ %v", len(members), got, limit)
	}
}
