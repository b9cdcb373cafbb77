package payg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"schemaflow/internal/dataset"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// camelCased respells every attribute of s in camelCase ("check in date" →
// "checkInDate": the same canonical name's terms, a different spelling) and
// adds one attribute whose first term is new to any corpus here, so a space
// extended by it appends a vocabulary term that sorts before the terms it
// already holds.
func camelCased(s Schema) Schema {
	out := Schema{Name: s.Name + "-camel"}
	for _, a := range append(slices.Clone(s.Attributes), "aardvark fare class") {
		words := strings.Fields(a)
		for i := 1; i < len(words); i++ {
			words[i] = strings.ToUpper(words[i][:1]) + words[i][1:]
		}
		out.Attributes = append(out.Attributes, strings.Join(words, ""))
	}
	return out
}

// TestMediationIsWorkerCountInvariant: buildMediation's workers claim domains
// in whatever order the scheduler allows, so what they produce must not
// depend on how many there are — and must be what one loop over standalone
// mediate.Build produces, written here from the model. Each standalone Build
// splits its domain's names into terms and matches them on its own, so the
// loop is also the oracle for mediation through the space's lexicon: under
// every t_sim, in term-frequency mode, and on a space AddSchema extended by
// new spellings.
func TestMediationIsWorkerCountInvariant(t *testing.T) {
	dwss := dataset.Union(dataset.DW(1), dataset.SS(2))
	built := func(set []Schema, opts Options) func() (*System, error) {
		return func() (*System, error) { return Build(set, opts) }
	}
	withTermSim := func(ts strsim.TermSim) mediate.Options {
		mopts := mediate.DefaultOptions()
		mopts.TermSim = ts
		return mopts
	}
	corpora := []struct {
		name  string
		build func() (*System, error)
		// mopts is what the serial loop hands mediate.Build: the options
		// buildMediation resolves the system's to.
		mopts mediate.Options
	}{
		{"dw+ss exact", built(dwss, Options{}), mediate.DefaultOptions()},
		{"large lsh", built(dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1}), Options{CandidateGen: "lsh"}), mediate.DefaultOptions()},
		{"ddh", built(dataset.DDH(3), Options{}), mediate.DefaultOptions()},
		{"dw+ss stem", built(dwss, Options{TermSimilarity: "stem"}), withTermSim(strsim.StemSim{})},
		{"dw+ss exact t_sim", built(dwss, Options{TermSimilarity: "exact"}), withTermSim(strsim.ExactSim{})},
		{"dw lcsubsequence", built(dataset.DW(1), Options{TermSimilarity: "lcsubsequence"}), withTermSim(strsim.LCSeqSim{})},
		{"dw+ss after AddSchema", func() (*System, error) {
			sys, err := Build(dwss, Options{})
			if err != nil {
				return nil, err
			}
			sys, d, err := sys.AddSchema(camelCased(dwss[0]))
			if err == nil && len(sys.Model().Domains[d].Members) < 2 {
				err = errors.New("the respelled schema got a domain of its own: nothing to mediate it with")
			}
			return sys, err
		}, mediate.DefaultOptions()},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			var sys *System
			var wantMediated, wantDomains []byte
			for _, procs := range []int{1, 2, 7} {
				runtime.GOMAXPROCS(procs)
				var err error
				if sys, err = c.build(); err != nil {
					t.Fatal(err)
				}
				if wantMediated == nil {
					serial := make([]*mediate.Mediated, sys.NumDomains())
					for r, d := range sys.Model().Domains {
						var members schema.Set
						for _, mem := range d.Members {
							members = append(members, sys.schemas[mem.Schema])
						}
						if serial[r], err = mediate.Build(members, c.mopts); err != nil {
							t.Fatal(err)
						}
					}
					wantMediated, wantDomains = mustJSON(t, serial), mustJSON(t, sys.Domains())
				}
				if got := mustJSON(t, sys.mediated); !bytes.Equal(got, wantMediated) {
					t.Errorf("GOMAXPROCS %d: mediated schemas differ from the serial loop's", procs)
				}
				if got := mustJSON(t, sys.Domains()); !bytes.Equal(got, wantDomains) {
					t.Errorf("GOMAXPROCS %d: Domains() differs from GOMAXPROCS 1's", procs)
				}
			}

			// A shard, reloaded, mediates its local domains and no other.
			var local []int
			for r := 0; r < sys.NumDomains(); r += 2 {
				local = append(local, r)
			}
			sh, err := sys.Shard(local)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sh.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for r, med := range loaded.mediated {
				if r%2 != 0 {
					if med != nil {
						t.Fatalf("loaded shard mediated remote domain %d", r)
					}
				} else if !bytes.Equal(mustJSON(t, med), mustJSON(t, sys.mediated[r])) {
					t.Fatalf("loaded shard's domain %d differs from the full system's", r)
				}
			}
		})
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err call
// on: a cancellation that lands, deterministically, while mediation has
// domains left.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestMediationCancels: cancelled mid-mediation, assemble returns ctx.Err()
// and no System, and every worker has exited by the time it returns.
func TestMediationCancels(t *testing.T) {
	sys, err := Build(dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1}), Options{CandidateGen: "lsh", SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := sys.opts
	opts.SkipMediation = false
	if sys.NumDomains() < 8 {
		t.Fatalf("%d domains: too few to cancel among", sys.NumDomains())
	}
	before := runtime.NumGoroutine()
	ctx := &cancelAfter{Context: context.Background(), n: 5} // assemble's own check is the first call: the fourth domain claimed
	got, err := assemble(ctx, opts, sys.model, nil)
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("assemble under a cancelled context: System published = %v, err = %v; want none, context.Canceled", got != nil, err)
	}
	// wg.Wait returns on the workers' last statement; give their exits a moment.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after: a worker outlived the call", before, runtime.NumGoroutine())
		}
	}
}
