package payg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"schemaflow/internal/dataset"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMediationIsWorkerCountInvariant: buildMediation's workers claim domains
// in whatever order the scheduler allows, so what they produce must not
// depend on how many there are — and must be what one loop over
// mediate.Build produces, written here from the model.
func TestMediationIsWorkerCountInvariant(t *testing.T) {
	corpora := []struct {
		name string
		set  []Schema
		opts Options
	}{
		{"dw+ss exact", dataset.Union(dataset.DW(1), dataset.SS(2)), Options{}},
		{"large lsh", dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1}), Options{CandidateGen: "lsh"}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			var sys *System
			var wantMediated, wantDomains []byte
			for _, procs := range []int{1, 2, 7} {
				runtime.GOMAXPROCS(procs)
				var err error
				if sys, err = Build(c.set, c.opts); err != nil {
					t.Fatal(err)
				}
				if wantMediated == nil {
					// Options{} resolves to mediate.DefaultOptions' values.
					serial := make([]*mediate.Mediated, sys.NumDomains())
					for r, d := range sys.Model().Domains {
						var members schema.Set
						for _, mem := range d.Members {
							members = append(members, c.set[mem.Schema])
						}
						if serial[r], err = mediate.Build(members, mediate.DefaultOptions()); err != nil {
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
