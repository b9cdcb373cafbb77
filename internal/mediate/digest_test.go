package mediate_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"schemaflow/internal/dataset"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
	"schemaflow/payg"
)

// domainsOf clusters set with the default pipeline (mediation skipped) and
// returns each domain's member schemas, taken by index as payg.buildMediation
// takes them.
func domainsOf(t testing.TB, set schema.Set) []schema.Set {
	t.Helper()
	sys, err := payg.Build(set, payg.Options{SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	model := sys.Model()
	out := make([]schema.Set, len(model.Domains))
	for r, d := range model.Domains {
		for _, mem := range d.Members {
			out[r] = append(out[r], set[mem.Schema])
		}
	}
	return out
}

// digest is the SHA-256 of the JSON of Attrs and Mappings of every set's
// mediated schema, in order. encoding/json prints a float64 as the shortest
// string that parses back to the same bits, so equal digests mean equal
// names, Sources order, AttrTo and Prob bits.
func digest(t testing.TB, sets []schema.Set, opts mediate.Options) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, set := range sets {
		med, err := mediate.Build(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(med.Attrs); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(med.Mappings); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildDigests pins Build's output on the repo's corpora to values
// recorded from the commit before mediation moved onto one name table
// (DESIGN §5c): per-domain and whole-corpus, under every option a caller
// sets. A changed digest means a mediated attribute's name, its Sources
// order, or a mapping's AttrTo or Prob bits moved.
func TestBuildDigests(t *testing.T) {
	def := mediate.DefaultOptions()
	monge, negative, hundredth := def, def, def
	monge.MongeElkan = true
	negative.Negative = true
	hundredth.FreqThreshold = 0.01

	corpora := []struct {
		name string
		set  func() schema.Set
		slow bool
		// perDomain and whole map a configuration name to the recorded
		// digest over the corpus's domains / over the corpus as one domain.
		perDomain, whole map[string]string
	}{
		{
			name: "large-6000",
			set: func() schema.Set {
				return dataset.Large(dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1})
			},
			perDomain: map[string]string{
				"default":     "ffc21cbe63857edb28d24cf6c128c8683b25f3c0bdbbe082e53f84c635bedbf9",
				"monge-elkan": "c1d717983cb197cf1dff4ca663d90f2a088f64c1db3180643c9de25aed7953ac",
			},
		},
		{
			name: "dw+ss",
			set:  func() schema.Set { return dataset.Union(dataset.DW(1), dataset.SS(2)) },
			slow: true,
			perDomain: map[string]string{
				"default":     "ce01999b2b7464edb1c4f8b5f42edbc48e6756d1fe0b8724b0194e2b837fd8e6",
				"monge-elkan": "86384c3a8d150b95d04c3cfe483e647adac4b78a63739953c6f4e797bb7949da",
				"negative":    "9bdc98221a19a383f6892fd99af085b98df38e293bbb26ba52ee59a4808442e7",
			},
			whole: map[string]string{
				"default": "c5e8dac6f41eba5b1aaec42cf45633ebfb72157943818473571db6bf797e825d",
			},
		},
		{
			name: "ddh",
			set:  func() schema.Set { return dataset.DDH(3) },
			slow: true,
			perDomain: map[string]string{
				"default":     "fdc4be4ba0858a8ae510558d1d564350b93fac6333c846fcdd49b8069fef17c3",
				"monge-elkan": "bd0846f32dfce2fbc1e28cd702fc637560df8532a51608e471ab76a5c88ab2f7",
			},
			whole: map[string]string{
				"default":     "e161cdb6b489158f0d436378bb7335024d0d0966c66fbba34d17c5434f97de7e",
				"0.01":        "17373f92fc965783446d269d2daaa103ae941031178bcfe8fc756fdf58d7d43f",
				"negative":    "5eb7b82250f3515ade7a74787b0301e8fb5f31bc12c60cc046d64c984c126b5f",
				"monge-elkan": "05e44614368294cc3f49551867e819ab7d5c3156974544b06234064a1e23e29d",
			},
		},
	}
	options := map[string]mediate.Options{"default": def, "monge-elkan": monge, "negative": negative, "0.01": hundredth}

	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("whole-corpus mediation is slow")
			}
			set := c.set()
			domains := domainsOf(t, set)
			for cfg, want := range c.perDomain {
				if got := digest(t, domains, options[cfg]); got != want {
					t.Errorf("per-domain %s: digest %s, want %s", cfg, got, want)
				}
			}
			for cfg, want := range c.whole {
				if got := digest(t, []schema.Set{set}, options[cfg]); got != want {
					t.Errorf("whole corpus %s: digest %s, want %s", cfg, got, want)
				}
			}
		})
	}
}
