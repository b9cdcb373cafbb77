package payg

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/schema"
)

// persistQueries are the attribute lists of every k-th schema plus queries
// that straddle domains or match nothing.
func persistQueries(set []Schema) [][]string {
	qs := [][]string{{"title", "author"}, {"departure", "title"}, {"zebra", "xylophone"}}
	for i := 0; i < len(set); i += 1 + len(set)/40 {
		qs = append(qs, set[i].Attributes)
	}
	return qs
}

// TestSaveLoadRoundTrip: Load(Save(s)) serves what s served, bit for bit,
// however s came to be. Load rebuilds the feature space from the schemas, and
// every space is Algorithm 1 over its schema set — AddSchema's too, whose
// arrivals' novel terms take their places in the sorted vocabulary — so the
// reloaded classifier sums over the same terms in the same order.
func TestSaveLoadRoundTrip(t *testing.T) {
	large := dataset.Large(dataset.LargeConfig{N: 300, Domains: 6, Seed: 4})
	mustBuild := func(set []Schema, opts Options) *System {
		t.Helper()
		sys, err := Build(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cases := []struct {
		name string
		// make returns the system to persist, what writes it, and the
		// pending schemas the snapshot should carry.
		make func(t *testing.T) (*System, func(io.Writer) error, []Schema)
	}{
		{name: "built", make: func(t *testing.T) (*System, func(io.Writer) error, []Schema) {
			sys := mustBuild(demoSchemas(), Options{})
			return sys, sys.Save, nil
		}},
		{name: "fed back", make: func(t *testing.T) (*System, func(io.Writer) error, []Schema) {
			sys := mustBuild(large, Options{})
			assign := sys.Model().Clustering.Assign
			res, err := sys.ApplyFeedback(Feedback{
				Moves:  []Move{{Schema: 0, Domain: assign[len(large)-1]}},
				Merges: [][2]int{{assign[1], assign[2]}},
				Splits: []int{3},
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.System, res.System.Save, nil
		}},
		{name: "AddSchema-grown", make: func(t *testing.T) (*System, func(io.Writer) error, []Schema) {
			// Twenty arrivals, each with one novel attribute that sorts
			// into the middle of the vocabulary ("aquark", "bquark", …).
			sys := mustBuild(large[:280], Options{})
			for k, s := range large[280:] {
				s.Attributes = append(slices.Clone(s.Attributes), string(rune('a'+k))+"quark")
				var err error
				if sys, _, err = sys.AddSchema(s); err != nil {
					t.Fatal(err)
				}
			}
			return sys, sys.Save, nil
		}},
		{name: "sharded", make: func(t *testing.T) (*System, func(io.Writer) error, []Schema) {
			full := mustBuild(large, Options{})
			sh, err := full.Shard(splitDomains(full.NumDomains(), 3)[1])
			if err != nil {
				t.Fatal(err)
			}
			return sh, sh.Save, nil
		}},
		{name: "manager with pending", make: func(t *testing.T) (*System, func(io.Writer) error, []Schema) {
			mgr := newManager(t, nil, ManagerOptions{DriftThreshold: -1})
			for _, sch := range newcomerSchemas() {
				if _, err := mgr.Ingest(sch); err != nil {
					t.Fatal(err)
				}
			}
			return mgr.System(), mgr.Save, newcomerSchemas()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, save, pending := tc.make(t)
			var buf bytes.Buffer
			if err := save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, gotPending, err := LoadWithPending(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotPending) != len(pending) {
				t.Fatalf("pending %+v, want %+v", gotPending, pending)
			}
			for i := range pending {
				if !reflect.DeepEqual(gotPending[i], pending[i]) {
					t.Fatalf("pending %+v, want %+v", gotPending, pending)
				}
			}
			if !reflect.DeepEqual(loaded.LocalDomains(), sys.LocalDomains()) {
				t.Fatalf("local domains %v, want %v", loaded.LocalDomains(), sys.LocalDomains())
			}
			// Members, probabilities and mediated schemas, domain by domain.
			if got, want := loaded.Domains(), sys.Domains(); !reflect.DeepEqual(got, want) {
				t.Fatalf("domains differ after reload:\n got %+v\nwant %+v", got, want)
			}
			for _, q := range persistQueries(sys.Schemas()) {
				sameScores(t, loaded.ClassifyKeywords(q), sys.ClassifyKeywords(q))
			}
		})
	}
}

// TestLoadsSnapshotWithRemovedOptions: snapshots written before a field left
// Options still carry it (gob matches fields by name and skips the ones the
// receiver lacks). Such a snapshot must load and classify and ingest exactly
// like a freshly built system — whatever Vectorizer or ApproximateClassifier
// said, since there is one online path and one serving classifier now.
func TestLoadsSnapshotWithRemovedOptions(t *testing.T) {
	sameAsFresh := func(t *testing.T, loaded, fresh *System) {
		t.Helper()
		for _, q := range persistQueries(fresh.Schemas()) {
			sameScores(t, loaded.ClassifyKeywords(q), fresh.ClassifyKeywords(q))
		}
		for _, sch := range newcomerSchemas() {
			got, err := loaded.Ingest(sch)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Ingest(sch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ingest %s: loaded system answers %+v, fresh build %+v", sch.Name, got, want)
			}
		}
	}

	// testdata/snapshot-v4-ngram.gob is Save's output at the last commit that
	// had Options.Vectorizer, for Build(demoSchemas(), Options{Vectorizer:
	// "ngram"}): the current version, one option too many.
	t.Run("v4-ngram", func(t *testing.T) {
		raw, err := os.ReadFile("testdata/snapshot-v4-ngram.gob")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte("Vectorizer")) || !bytes.Contains(raw, []byte("ngram")) {
			t.Fatal("testdata/snapshot-v4-ngram.gob does not carry Vectorizer: ngram — the test would prove nothing")
		}
		loaded, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		demo := build(t, Options{})
		if got, want := loaded.Domains(), demo.Domains(); !reflect.DeepEqual(got, want) {
			t.Fatalf("domains differ:\n got %+v\nwant %+v", got, want)
		}
		sameAsFresh(t, loaded, demo)
	})

	// testdata/snapshot-v4-approximate.gob is Save's output at the last
	// commit that had Options.ApproximateClassifier, for
	// Build(demoSchemas(), Options{ApproximateClassifier: true}). There that
	// system's scores differed from the exact one's on every persistQueries
	// query; loaded now, it is the exact system.
	t.Run("v4-approximate", func(t *testing.T) {
		raw, err := os.ReadFile("testdata/snapshot-v4-approximate.gob")
		if err != nil {
			t.Fatal(err)
		}
		var carried struct {
			Opts struct{ ApproximateClassifier bool }
		}
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&carried); err != nil || !carried.Opts.ApproximateClassifier {
			t.Fatalf("testdata/snapshot-v4-approximate.gob does not carry ApproximateClassifier: true (%v) — the test would prove nothing", err)
		}
		loaded, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, loaded, build(t, Options{}))
	})
}

// TestSnapshotHoldsNoDerivedTable: a snapshot is about as big as the schemas
// it describes (plus assignment and memberships). A persisted classifier
// table — domains × vocabulary floats — is tens of times that.
func TestSnapshotHoldsNoDerivedTable(t *testing.T) {
	set := dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1})
	sys, err := Build(set, Options{SkipMediation: true})
	if err != nil {
		t.Fatal(err)
	}
	var snap, lines bytes.Buffer
	if err := sys.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := schema.WriteLines(&lines, set); err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot %d bytes, schemas as lines %d bytes (%.2fx)", snap.Len(), lines.Len(), float64(snap.Len())/float64(lines.Len()))
	if snap.Len() >= 2*lines.Len() {
		t.Fatalf("snapshot is %d bytes, over twice the %d bytes of its schemas: derived state is being persisted", snap.Len(), lines.Len())
	}
}

// decodeSnapshot returns what Save wrote, as the struct Load decodes.
func decodeSnapshot(t testing.TB, save func(io.Writer) error) snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func encodeSnapshot(t testing.TB, snap snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsGarbage: snapshot bytes come from disk and, on a follower,
// from a peer. Bytes that are no snapshot, and well-formed snapshots whose
// parts disagree with each other, are errors at Load — never a system that
// panics on first use (an Assign longer than Schemas used to load cleanly
// and index out of range in the first Ingest).
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob")); err == nil {
		t.Fatal("garbage accepted")
	}
	sys := build(t, Options{})
	sh, err := sys.Shard([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		from   *System
		mutate func(*snapshot)
		want   string
	}{
		{"long assign", sys, func(s *snapshot) { s.Assign = append(s.Assign, 0) }, "assigns 7 schemas"},
		{"short assign", sys, func(s *snapshot) { s.Assign = s.Assign[:5] }, "assigns 5 schemas"},
		{"long memberships", sys, func(s *snapshot) { s.Memberships = append(s.Memberships, nil) }, "memberships for 7 schemas"},
		{"negative cluster", sys, func(s *snapshot) { s.Assign[2] = -1 }, "negative cluster id"},
		{"membership in no domain", sys, func(s *snapshot) { s.Memberships[0] = []core.Membership{{Schema: 3, Prob: 1}} }, "references domain 3"},
		{"attribute-less schema", sys, func(s *snapshot) { s.Schemas[1].Attributes = nil }, "has no attributes"},
		{"blank pending attribute", sys, func(s *snapshot) { s.Pending = []Schema{{Name: "p", Attributes: []string{" "}}} }, "is blank"},
		{"future version", sys, func(s *snapshot) { s.Version = snapshotVersion + 1 }, "snapshot version"},
		{"version 3", sys, func(s *snapshot) { s.Version = 3 }, "snapshot version 3"},
		{"local domain out of range", sh, func(s *snapshot) { s.LocalDomains = []int{0, 3} }, "local domain 3 out of range"},
		{"local domain negative", sh, func(s *snapshot) { s.LocalDomains = []int{-1, 2} }, "local domain -1 out of range"},
		{"local domains unsorted", sh, func(s *snapshot) { s.LocalDomains = []int{2, 0} }, "not strictly ascending"},
		{"local domains repeated", sh, func(s *snapshot) { s.LocalDomains = []int{1, 1} }, "not strictly ascending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := decodeSnapshot(t, tc.from.Save)
			tc.mutate(&snap)
			loaded, err := Load(bytes.NewReader(encodeSnapshot(t, snap)))
			if err == nil {
				// Show what the accepted snapshot does to its first arrival.
				_, err = loaded.Ingest(newcomerSchemas()[0])
				t.Fatalf("accepted (first Ingest: %v)", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want it to name %q", err, tc.want)
			}
		})
	}
}

// FuzzLoadSnapshot: Load either rejects its input or returns a system that
// can be used. Inputs are raw bytes (seeded with real snapshots: full,
// sharded, with pending schemas) and, derived from the same bytes, a real
// snapshot with its slices cut, grown and overwritten and re-encoded — the
// structurally valid but inconsistent inputs byte flips rarely reach.
func FuzzLoadSnapshot(f *testing.F) {
	sys, err := Build(demoSchemas(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	sh, err := sys.Shard([]int{0, 2})
	if err != nil {
		f.Fatal(err)
	}
	base := decodeSnapshot(f, func(w io.Writer) error { return sh.SaveWithPending(w, newcomerSchemas()) })
	for _, save := range []func(io.Writer) error{sys.Save, sh.Save,
		func(w io.Writer) error { return sys.SaveWithPending(w, newcomerSchemas()) }} {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0xff, 9, 2, 7, 1, 0, 200, 5})

	use := func(t *testing.T, data []byte) {
		loaded, pending, err := LoadWithPending(bytes.NewReader(data))
		if err != nil {
			return
		}
		loaded.Classify("departure title abstract")
		loaded.Domains()
		for _, sch := range append(pending, newcomerSchemas()[0]) {
			if _, err := loaded.Ingest(sch); err != nil {
				t.Fatalf("loaded system rejects a valid arrival: %v", err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		use(t, data)

		// The same bytes as a mutation script over a real snapshot: each
		// (op, arg) pair edits one slice.
		snap := base
		snap.Assign = append([]int(nil), base.Assign...)
		snap.Schemas = append(schema.Set(nil), base.Schemas...)
		snap.Memberships = append([][]core.Membership(nil), base.Memberships...)
		snap.LocalDomains = append([]int(nil), base.LocalDomains...)
		for i := 0; i+1 < len(data) && i < 16; i += 2 {
			arg := int(int8(data[i+1]))
			at := func(n int) int { return int(data[i+1]) % n }
			switch data[i] % 9 {
			case 0:
				snap.Assign = append(snap.Assign, arg)
			case 1:
				snap.Assign = snap.Assign[:at(len(snap.Assign)+1)]
			case 2:
				if len(snap.Assign) > 0 {
					snap.Assign[at(len(snap.Assign))] = arg
				}
			case 3:
				snap.Schemas = snap.Schemas[:at(len(snap.Schemas)+1)]
			case 4:
				snap.Memberships = append(snap.Memberships, []core.Membership{{Schema: arg, Prob: float64(arg) / 4}})
			case 5:
				if len(snap.Memberships) > 0 {
					snap.Memberships[at(len(snap.Memberships))] = []core.Membership{{Schema: arg, Prob: math.NaN()}, {Schema: 0, Prob: -1}}
				}
			case 6:
				snap.LocalDomains = append(snap.LocalDomains, arg)
			case 7:
				snap.Sharded, snap.Version = arg%2 == 0, arg
			case 8:
				snap.Opts.TauCSim, snap.Opts.Theta, snap.Opts.TauTSim = float64(arg), float64(arg)/8, float64(arg)/100
			}
		}
		use(t, encodeSnapshot(t, snap))
	})
}

// BenchmarkSaveLoad times the one persistence path and reports the snapshot
// size: Save is what a checkpoint holds the swap lock for, Load is recovery
// minus the WAL replay.
func BenchmarkSaveLoad(b *testing.B) {
	sys, err := Build(dataset.Large(dataset.LargeConfig{N: 1500, Seed: 1}), Options{})
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sys.Save(&snap); err != nil {
		b.Fatal(err)
	}
	b.Run("Save", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := sys.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
	})
	b.Run("Load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Load(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
