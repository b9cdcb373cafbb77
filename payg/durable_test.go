package payg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// durableQueries are the probes used to compare a recovered manager's
// classifications against a never-crashed one.
var durableQueries = []string{
	"departure airline price",
	"title author year",
	"telescope seismograph",
	"publication conference",
}

// assertSameClassifications fails unless both managers rank every probe
// query bit-identically.
func assertSameClassifications(t *testing.T, want, got *Manager) {
	t.Helper()
	for _, q := range durableQueries {
		w, g := want.Classify(q), got.Classify(q)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("classification of %q diverged after recovery:\nwant %+v\ngot  %+v", q, w, g)
		}
	}
}

func newDurableManager(t *testing.T, dir string, opts ManagerOptions) *Manager {
	t.Helper()
	opts.DataDir = dir
	sys := build(t, Options{})
	mgr, err := NewManager(sys, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func TestSaveFileWritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.snap")
	if err := SaveFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back %q, %v", got, err)
	}

	// A failing writer must leave neither the target nor temp litter.
	bad := filepath.Join(dir, "bad.snap")
	wantErr := errors.New("boom")
	if err := SaveFile(bad, func(w io.Writer) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("SaveFile error = %v, want %v", err, wantErr)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("failed SaveFile left target file (stat err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestSystemSaveFileRoundTrip(t *testing.T) {
	sys := build(t, Options{})
	path := filepath.Join(t.TempDir(), "sys.snap")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumSchemas() != sys.NumSchemas() || loaded.NumDomains() != sys.NumDomains() {
		t.Fatalf("loaded %d schemas / %d domains, want %d / %d",
			loaded.NumSchemas(), loaded.NumDomains(), sys.NumSchemas(), sys.NumDomains())
	}
}

// TestDurableCrashRecovery is the crash-sim guarantee: arrivals and
// feedback acked after the last checkpoint survive a crash (the manager
// is abandoned without Close, so nothing is flushed beyond what the ack
// path promised) and the recovered manager classifies bit-identically to
// one that never crashed.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	crashed := newDurableManager(t, dir, ManagerOptions{DriftThreshold: -1})
	control := newManager(t, nil, ManagerOptions{DriftThreshold: -1})

	fb := Feedback{Moves: []Move{{Schema: 5, Domain: 0}}}
	for _, m := range []*Manager{crashed, control} {
		for _, sch := range newcomerSchemas() {
			if _, err := m.Ingest(sch); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.ApplyFeedback(fb); err != nil {
			t.Fatal(err)
		}
	}
	wantStatus := crashed.Status()
	// Crash: no Close, no checkpoint since bootstrap — the WAL is the
	// only thing carrying the three arrivals and the feedback batch.

	recovered, err := LoadManagerDir(dir, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	got := recovered.Status()
	if got.Schemas != wantStatus.Schemas || got.Pending != wantStatus.Pending || got.Domains != wantStatus.Domains {
		t.Fatalf("recovered status %+v, want schemas/domains/pending of %+v", got, wantStatus)
	}
	if got.Generation != wantStatus.Generation {
		t.Fatalf("recovered generation %d, want %d", got.Generation, wantStatus.Generation)
	}
	assertSameClassifications(t, control, recovered)

	// The recovered manager keeps accruing: a rebuild folds the replayed
	// journal into the model exactly as it would have pre-crash.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := recovered.Recluster(ctx); err != nil {
		t.Fatal(err)
	}
	if err := control.Recluster(ctx); err != nil {
		t.Fatal(err)
	}
	if recovered.Status().Pending != 0 {
		t.Fatalf("pending %d after recovered rebuild", recovered.Status().Pending)
	}
	if rs, cs := recovered.System().NumSchemas(), control.System().NumSchemas(); rs != cs {
		t.Fatalf("recovered rebuild has %d schemas, control %d", rs, cs)
	}
	assertSameClassifications(t, control, recovered)
}

// TestDurableTornWALRecovery crashes mid-append: garbage (a torn record)
// is stapled to the WAL tail, and recovery must keep every acked arrival
// while dropping only the torn tail.
func TestDurableTornWALRecovery(t *testing.T) {
	dir := t.TempDir()
	mgr := newDurableManager(t, dir, ManagerOptions{DriftThreshold: -1})
	for _, sch := range newcomerSchemas() {
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the partially flushed append a SIGKILL leaves behind.
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, err := LoadManagerDir(dir, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Status().Pending; got != len(newcomerSchemas()) {
		t.Fatalf("recovered %d pending arrivals, want %d", got, len(newcomerSchemas()))
	}
}

func TestDurableCheckpointOnRecluster(t *testing.T) {
	dir := t.TempDir()
	mgr := newDurableManager(t, dir, ManagerOptions{DriftThreshold: -1})
	defer mgr.Close()
	for _, sch := range newcomerSchemas()[:2] {
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Recluster(ctx); err != nil {
		t.Fatal(err)
	}

	// The swap checkpointed at the new generation and truncated the WAL.
	if _, err := os.Stat(filepath.Join(dir, checkpointName(mgr.Generation()))); err != nil {
		t.Fatalf("no checkpoint at generation %d: %v", mgr.Generation(), err)
	}
	if info, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || info.Size() != 0 {
		t.Fatalf("WAL not truncated after checkpoint: size %d, err %v", info.Size(), err)
	}

	recovered, err := LoadManagerDir(dir, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got, want := recovered.System().NumSchemas(), mgr.System().NumSchemas(); got != want {
		t.Fatalf("recovered %d schemas, want %d", got, want)
	}
	if recovered.Status().Pending != 0 {
		t.Fatalf("recovered %d pending, want 0", recovered.Status().Pending)
	}
	if recovered.Generation() != mgr.Generation() {
		t.Fatalf("recovered generation %d, want %d", recovered.Generation(), mgr.Generation())
	}
}

func TestCheckpointRotationKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	mgr := newDurableManager(t, dir, ManagerOptions{DriftThreshold: -1})
	defer mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	schs := newcomerSchemas()
	for i := 0; i < 3; i++ {
		if _, err := mgr.Ingest(schs[i]); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Recluster(ctx); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != checkpointRetain {
		t.Fatalf("rotation kept %d checkpoints (%v), want %d", len(gens), gens, checkpointRetain)
	}
	if gens[len(gens)-1] != mgr.Generation() {
		t.Fatalf("newest checkpoint generation %d, serving generation %d", gens[len(gens)-1], mgr.Generation())
	}
}

func TestNewManagerRefusesInitializedDataDir(t *testing.T) {
	dir := t.TempDir()
	mgr := newDurableManager(t, dir, ManagerOptions{DriftThreshold: -1})
	mgr.Close()
	sys := build(t, Options{})
	if _, err := NewManager(sys, nil, ManagerOptions{DataDir: dir}); err == nil {
		t.Fatal("NewManager accepted a data dir that already holds a checkpoint")
	} else if !strings.Contains(err.Error(), "LoadManagerDir") {
		t.Fatalf("error %q does not point at LoadManagerDir", err)
	}
}

func TestLoadManagerDirServeData(t *testing.T) {
	dir := t.TempDir()
	mgr := newDurableManager(t, dir, ManagerOptions{DriftThreshold: -1})
	mgr.Close()
	recovered, err := LoadManagerDir(dir, ManagerOptions{
		DriftThreshold: -1,
		ServeData:      true,
		MakeSource: func(sch Schema) TupleSource {
			row := make(Tuple, len(sch.Attributes))
			for i := range row {
				row[i] = fmt.Sprintf("%s-%d", sch.Name, i)
			}
			return Source{Schema: sch, Tuples: []Tuple{row}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Executor() == nil {
		t.Fatal("ServeData recovery left the manager without an executor")
	}
	res, err := recovered.Executor().Execute(context.Background(), 0, Query{Select: recovered.System().Domains()[0].MediatedAttributes[:1]})
	if err != nil {
		t.Fatalf("query after ServeData recovery: %v", err)
	}
	if len(res.Tuples) == 0 {
		t.Fatal("query after ServeData recovery returned no tuples")
	}
}

// TestMakeSourceFanOut: a recluster makes one source per arrival and a
// ServeData recovery one per schema, each MakeSource's and aligned with the
// system's schemas whatever the worker count (CI runs it under -race at -cpu
// 1,4), and never while the manager's lock is held.
func TestMakeSourceFanOut(t *testing.T) {
	dir := t.TempDir()
	sourceOf := func(sch Schema) TupleSource { return demoSources([]Schema{sch})[0] }
	var (
		calls     atomic.Int64
		serving   atomic.Pointer[Manager]
		probe     sync.Mutex // one TryLock at a time, so workers cannot fail each other's
		underLock atomic.Bool
	)
	opts := ManagerOptions{
		DriftThreshold: -1,
		DataDir:        dir,
		ServeData:      true,
		MakeSource: func(sch Schema) TupleSource {
			calls.Add(1)
			if m := serving.Load(); m != nil {
				probe.Lock()
				if m.mu.TryLock() {
					m.mu.Unlock()
				} else {
					underLock.Store(true)
				}
				probe.Unlock()
			}
			return sourceOf(sch)
		},
	}
	aligned := func(m *Manager, stage string) {
		t.Helper()
		st := m.cur.Load()
		if len(st.sources) != st.sys.NumSchemas() {
			t.Fatalf("%s: %d sources for %d schemas", stage, len(st.sources), st.sys.NumSchemas())
		}
		for i, sch := range st.sys.Schemas() {
			if !reflect.DeepEqual(st.sources[i], sourceOf(sch)) {
				t.Fatalf("%s: source %d is %+v, want %s's", stage, i, st.sources[i], sch.Name)
			}
		}
	}

	sys := build(t, Options{})
	mgr, err := NewManager(sys, demoSources(sys.Schemas()), opts)
	if err != nil {
		t.Fatal(err)
	}
	serving.Store(mgr)
	var arrivals []Schema
	for i := 0; i < 12; i++ {
		sch := newcomerSchemas()[i%3]
		sch.Name = fmt.Sprintf("%s-%d", sch.Name, i)
		arrivals = append(arrivals, sch)
		if _, err := mgr.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(arrivals)) {
		t.Errorf("recluster made %d sources for %d arrivals", got, len(arrivals))
	}
	aligned(mgr, "after recluster")
	serving.Store(nil)
	mgr.Close()

	calls.Store(0)
	recovered, err := LoadManagerDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got, want := calls.Load(), int64(recovered.System().NumSchemas()); got != want {
		t.Errorf("recovery made %d sources for %d schemas", got, want)
	}
	aligned(recovered, "after recovery")
	if underLock.Load() {
		t.Error("MakeSource ran while the manager's lock was held")
	}
}

func TestSnapshotBytesRestoreRoundTrip(t *testing.T) {
	leader := newManager(t, nil, ManagerOptions{DriftThreshold: -1})
	for _, sch := range newcomerSchemas()[:2] {
		if _, err := leader.Ingest(sch); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := leader.Recluster(ctx); err != nil {
		t.Fatal(err)
	}

	// Follower bootstrap: load the leader snapshot pinned at its
	// generation.
	snap, gen, err := leader.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if gen != leader.Generation() {
		t.Fatalf("SnapshotBytes generation %d, serving %d", gen, leader.Generation())
	}
	follower, err := LoadManagerAt(bytes.NewReader(snap), gen, nil, ManagerOptions{DriftThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if follower.Generation() != gen {
		t.Fatalf("follower generation %d, want %d", follower.Generation(), gen)
	}
	assertSameClassifications(t, leader, follower)

	// Leader state advances (feedback swap); the follower adopts the new
	// snapshot and converges.
	if _, err := leader.ApplyFeedback(Feedback{Moves: []Move{{Schema: 5, Domain: 0}}}); err != nil {
		t.Fatal(err)
	}
	snap2, gen2, err := leader.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen {
		t.Fatalf("generation did not advance: %d -> %d", gen, gen2)
	}
	if err := follower.Restore(bytes.NewReader(snap2), gen2); err != nil {
		t.Fatal(err)
	}
	if follower.Generation() != gen2 {
		t.Fatalf("follower generation %d after restore, want %d", follower.Generation(), gen2)
	}
	assertSameClassifications(t, leader, follower)
}

func TestRestoreRejectsManagerWithSources(t *testing.T) {
	set := demoSchemas()
	mgr := newManager(t, demoSources(set), ManagerOptions{DriftThreshold: -1})
	snap, gen, err := mgr.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Restore(bytes.NewReader(snap), gen+1); err == nil {
		t.Fatal("Restore into a data-serving manager succeeded")
	}
}

// FuzzReplayRecord: recovery replays each WAL payload through replayRecord,
// which must reject it with an error or apply it cleanly — never panic —
// whatever the bytes. Each input replays into a fresh manager over one small
// built system. An applied ingest adds one pending schema; applied feedback
// publishes the next generation, which still classifies over every domain.
func FuzzReplayRecord(f *testing.F) {
	sys, err := Build(demoSchemas(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	n, d := sys.NumSchemas(), sys.NumDomains()
	for _, rec := range []walRecord{
		{Kind: walKindIngest, Schema: &newcomerSchemas()[0]},
		{Kind: walKindFeedback, Feedback: &Feedback{Moves: []Move{{Schema: 0, Domain: d - 1}}, Splits: []int{n - 1}}},
		// Feedback a live manager would have refused: an out-of-range
		// domain, a missing schema, negative indices.
		{Kind: walKindFeedback, Feedback: &Feedback{Merges: [][2]int{{0, d}}}},
		{Kind: walKindFeedback, Feedback: &Feedback{Moves: []Move{{Schema: n, Domain: 0}}}},
		{Kind: walKindFeedback, Feedback: &Feedback{Splits: []int{-1}}},
		{Kind: walKindFeedback, Feedback: &Feedback{Moves: []Move{{Schema: 0, Domain: -1}}, Merges: [][2]int{{-1, 0}}}},
	} {
		p, err := encodeWALRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte(`{"kind":"ingest","schema":{"name":"x","attributes":[]}}`))
	f.Add([]byte(`{"kind":"feedback"}`))
	f.Add([]byte(`{"kind":"checkpoint"}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := NewManager(sys, nil, ManagerOptions{DriftThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.replayRecord(p); err != nil {
			return
		}
		st := m.Status()
		switch {
		case st.Pending == 1 && st.Generation == 0:
		case st.Pending == 0 && st.Generation == 1:
			if got := len(m.Classify("departure airline title")); got > st.Domains {
				t.Fatalf("%d scores over %d domains", got, st.Domains)
			}
		default:
			t.Fatalf("applied %q: %d pending at generation %d, want one pending schema or one new generation", p, st.Pending, st.Generation)
		}
	})
}
