package payg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"schemaflow/internal/wal"
)

// This file is the durability layer of the Manager: a write-ahead log for
// accepted arrivals, generation-stamped checkpoint snapshots written
// atomically after every recluster swap, and recovery that restores the
// latest checkpoint and replays the WAL on top.
//
// Data-dir layout (ManagerOptions.DataDir):
//
//	wal.log                    append-only arrival log (internal/wal format)
//	checkpoint-000000012.snap  snapshot at generation 12 (Manager.Save format)
//	checkpoint-000000017.snap  newest checkpoint; older ones are rotation spares
//
// Invariant: every record in wal.log was accepted strictly after the
// newest checkpoint was written, so
//
//	state == newest checkpoint + WAL replayed in order
//
// holds at every instant. The WAL is appended *before* an arrival is
// acked, and truncated only after a newer checkpoint has been fsynced and
// renamed into place — a crash at any point past an ack therefore loses
// nothing that was acked.

const (
	walFileName      = "wal.log"
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".snap"
	// checkpointRetain is how many checkpoints rotation keeps in the data
	// dir. Recovery always uses the newest; older ones are manual-disaster
	// spares.
	checkpointRetain = 3
)

// WAL record kinds. Records are individually JSON-encoded (self-framing
// is the WAL's job), so the log survives schema evolution: unknown fields
// are ignored on replay and the kind tag gates dispatch.
const (
	walKindIngest   = "ingest"
	walKindFeedback = "feedback"
)

// walRecord is one durable arrival: an accepted schema or an applied
// feedback batch.
type walRecord struct {
	Kind     string    `json:"kind"`
	Schema   *Schema   `json:"schema,omitempty"`
	Feedback *Feedback `json:"feedback,omitempty"`
}

func encodeWALRecord(rec walRecord) ([]byte, error) {
	p, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("payg: encoding WAL record: %w", err)
	}
	return p, nil
}

// SaveFile writes a snapshot atomically: the bytes land in a temp file in
// the target's directory, are fsynced, and only then renamed over path
// (followed by a directory fsync). A crash mid-save can leave a stray
// temp file but never a torn snapshot under the final name.
func SaveFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return fmt.Errorf("payg: creating temp snapshot in %s: %w", dir, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("payg: syncing snapshot %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("payg: closing snapshot %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("payg: publishing snapshot %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best effort on filesystems that reject directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// SaveFile atomically writes the system snapshot to path (see the
// package-level SaveFile for the temp-file+fsync+rename contract).
func (s *System) SaveFile(path string) error {
	return SaveFile(path, s.Save)
}

// SaveFile atomically writes the manager snapshot (serving system plus
// pending journal) to path.
func (m *Manager) SaveFile(path string) error {
	return SaveFile(path, m.Save)
}

// checkpointName renders the generation-stamped checkpoint filename.
// Zero-padding keeps lexical order equal to numeric order, which makes
// the layout legible to an operator running plain ls.
func checkpointName(gen int) string {
	return fmt.Sprintf("%s%09d%s", checkpointPrefix, gen, checkpointSuffix)
}

// parseCheckpointName inverts checkpointName; ok is false for filenames
// that are not checkpoints.
func parseCheckpointName(name string) (gen int, ok bool) {
	if len(name) <= len(checkpointPrefix)+len(checkpointSuffix) {
		return 0, false
	}
	if name[:len(checkpointPrefix)] != checkpointPrefix || name[len(name)-len(checkpointSuffix):] != checkpointSuffix {
		return 0, false
	}
	digits := name[len(checkpointPrefix) : len(name)-len(checkpointSuffix)]
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	if _, err := fmt.Sscanf(digits, "%d", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// listCheckpoints returns the checkpoint generations present in dir,
// ascending.
func listCheckpoints(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := parseCheckpointName(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Ints(gens)
	return gens, nil
}

// CheckpointFileName renders the canonical generation-stamped checkpoint
// filename ("checkpoint-000000012.snap" for generation 12), for tools that
// write checkpoints a durable manager will later recover.
func CheckpointFileName(gen int) string { return checkpointName(gen) }

// HasCheckpoint reports whether dir holds at least one checkpoint
// snapshot — the switch a serving binary uses to choose between
// bootstrapping a fresh durable manager (NewManager with DataDir) and
// recovering an existing one (LoadManagerDir).
func HasCheckpoint(dir string) (bool, error) {
	gens, err := listCheckpoints(dir)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return len(gens) > 0, nil
}

// pruneCheckpoints removes all but the newest checkpointRetain checkpoints.
func pruneCheckpoints(dir string) error {
	gens, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	if len(gens) <= checkpointRetain {
		return nil
	}
	for _, gen := range gens[:len(gens)-checkpointRetain] {
		if err := os.Remove(filepath.Join(dir, checkpointName(gen))); err != nil {
			return err
		}
	}
	return nil
}

// LoadManagerDir recovers a durable manager from its data directory: the
// newest checkpoint snapshot is restored and the write-ahead log replayed
// on top, in arrival order, so every arrival acked before the crash is
// present — journaled if it had not reached a checkpoint, clustered if it
// had. Recovery finishes by writing a fresh checkpoint (compacting the
// replayed WAL) and re-attaching the log for new arrivals.
//
// opts.DataDir is implied by dir and may be left empty. A static source
// list is not supported (the recovered schema set no longer aligns with
// one); set opts.ServeData to rebind opts.MakeSource-built sources
// instead.
func LoadManagerDir(dir string, opts ManagerOptions) (*Manager, error) {
	gens, err := listCheckpoints(dir)
	if err != nil {
		return nil, fmt.Errorf("payg: scanning data dir %s: %w", dir, err)
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("payg: data dir %s holds no checkpoint; bootstrap with NewManager and ManagerOptions.DataDir", dir)
	}
	gen := gens[len(gens)-1]
	f, err := os.Open(filepath.Join(dir, checkpointName(gen)))
	if err != nil {
		return nil, fmt.Errorf("payg: opening checkpoint: %w", err)
	}
	defer f.Close()
	var sources func(*System) []TupleSource
	if opts.ServeData {
		sources = func(sys *System) []TupleSource {
			return opts.withDefaults().makeSources(sys.Schemas())
		}
	}
	opts.DataDir = dir
	m, err := loadManager(f, gen, sources, opts)
	if err != nil {
		return nil, fmt.Errorf("payg: recovering checkpoint generation %d: %w", gen, err)
	}
	return m, nil
}

// LoadManagerAt is LoadManager pinned to a known serving generation: the
// restored state publishes at gen instead of 0. It is the entry point for
// follower bootstrap, where the generation must track the leader's so
// snapshot polling can tell "new" from "seen".
func LoadManagerAt(r io.Reader, gen int, sources []TupleSource, opts ManagerOptions) (*Manager, error) {
	if opts.DataDir != "" {
		return nil, fmt.Errorf("payg: LoadManagerAt does not attach durability; use LoadManagerDir")
	}
	return loadManager(r, gen, func(*System) []TupleSource { return sources }, opts)
}

// Generation returns the serving generation (lock-free): 0 at build,
// bumped by every atomic swap (rebuild publication, feedback, restore).
// Durable checkpoints and shipped snapshots are stamped with it.
func (m *Manager) Generation() int { return m.cur.Load().gen }

// initDurable opens the WAL in the data dir, replays any records a
// previous process acked but never checkpointed, and attaches the log so
// subsequent arrivals are persisted before their ack. It finishes with a
// checkpoint, which compacts the replayed records away.
func (m *Manager) initDurable() error {
	if err := os.MkdirAll(m.opts.DataDir, 0o755); err != nil {
		return fmt.Errorf("payg: creating data dir: %w", err)
	}
	mode, err := wal.ParseSyncMode(m.opts.FsyncMode)
	if err != nil {
		return err
	}
	l, err := wal.Open(filepath.Join(m.opts.DataDir, walFileName), wal.Options{Mode: mode})
	if err != nil {
		return err
	}
	if torn := l.TornBytes(); torn > 0 {
		m.opts.Logf("payg: WAL recovery dropped a torn tail of %d bytes (the record being written at crash time; it was never acked)", torn)
	}
	recovered := l.Recovered()
	for i, rec := range recovered {
		if err := m.replayRecord(rec); err != nil {
			l.Close()
			return fmt.Errorf("payg: replaying WAL record %d/%d: %w", i+1, len(recovered), err)
		}
	}
	if len(recovered) > 0 {
		m.opts.Logf("payg: replayed %d WAL record(s) on top of the checkpoint", len(recovered))
	}
	m.mu.Lock()
	m.wal = l
	mIngestPending.Set(float64(len(m.pending)))
	// Compact immediately: the replayed records are re-persisted inside
	// this checkpoint, so the log restarts empty.
	m.checkpointLocked()
	m.mu.Unlock()
	return nil
}

// replayRecord applies one WAL record to the recovering manager. Ingest
// records are validated and made pending again (without re-logging — they
// are already in the WAL being replayed — and without assigning them: which
// domains they join is the next rebuild's decision); feedback records are
// re-applied, bumping the generation exactly as the original apply did.
func (m *Manager) replayRecord(p []byte) error {
	var rec walRecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return fmt.Errorf("decoding: %w", err)
	}
	switch rec.Kind {
	case walKindIngest:
		if rec.Schema == nil {
			return fmt.Errorf("ingest record without schema")
		}
		if err := rec.Schema.Validate(); err != nil {
			return err
		}
		m.mu.Lock()
		m.pending = append(m.pending, *rec.Schema)
		m.mu.Unlock()
		return nil
	case walKindFeedback:
		if rec.Feedback == nil {
			return fmt.Errorf("feedback record without payload")
		}
		if _, err := m.applyFeedback(*rec.Feedback, false); err != nil {
			return fmt.Errorf("re-applying feedback: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
}

// appendWALLocked persists one record before its arrival is acked.
// Callers hold m.mu. A nil WAL (non-durable manager) accepts everything.
func (m *Manager) appendWALLocked(rec walRecord) error {
	if m.wal == nil {
		return nil
	}
	p, err := encodeWALRecord(rec)
	if err != nil {
		return err
	}
	if err := m.wal.Append(p); err != nil {
		return fmt.Errorf("payg: persisting arrival: %w", err)
	}
	return nil
}

// checkpointLocked writes a generation-stamped snapshot of the serving
// state (system + pending journal) via atomic temp-file+rename, truncates
// the now-redundant WAL, and prunes old checkpoints down to the retention
// budget. Callers hold m.mu, so the (system, journal) pair is consistent.
//
// Failure keeps everything: if the snapshot cannot be written the WAL is
// NOT truncated, so the previous checkpoint plus the intact WAL still
// reconstruct the full state — durability degrades to a longer replay,
// never to data loss.
func (m *Manager) checkpointLocked() {
	if m.wal == nil {
		return
	}
	start := time.Now()
	st := m.cur.Load()
	path := filepath.Join(m.opts.DataDir, checkpointName(m.gen))
	err := SaveFile(path, func(w io.Writer) error {
		return st.sys.SaveWithPending(w, m.pending)
	})
	if err != nil {
		mCheckpointErrors.Inc()
		m.opts.Logf("payg: checkpoint generation %d failed: %v (WAL kept; recovery will replay it)", m.gen, err)
		return
	}
	if err := m.wal.Reset(); err != nil {
		// The checkpoint landed but the WAL keeps its records: recovery
		// would replay arrivals that are already in the checkpoint's
		// journal, duplicating them. Surface loudly; the next successful
		// checkpoint retries the truncation.
		mCheckpointErrors.Inc()
		m.opts.Logf("payg: truncating WAL after checkpoint: %v", err)
	}
	if err := pruneCheckpoints(m.opts.DataDir); err != nil {
		m.opts.Logf("payg: pruning old checkpoints: %v", err)
	}
	mCheckpointsWritten.Inc()
	mCheckpointGeneration.Set(float64(m.gen))
	mCheckpointDuration.Observe(time.Since(start).Seconds())
	m.opts.Logf("payg: checkpoint written: generation %d (%d pending in snapshot)", m.gen, len(m.pending))
}

// SnapshotBytes serializes the serving state (system + pending journal)
// to memory and returns it with the generation it captures — the payload
// GET /admin/snapshot streams to followers. Buffering under the swap lock
// keeps a slow download from pinning the lock.
func (m *Manager) SnapshotBytes() ([]byte, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.cur.Load()
	var buf bytes.Buffer
	if err := st.sys.SaveWithPending(&buf, m.pending); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), m.gen, nil
}

// Restore replaces the serving state with a snapshot shipped from a
// leader, publishing it at the leader's generation via the usual atomic
// swap — the follower half of snapshot shipping. The restoring manager
// must serve without data sources (followers are read-only). Pending
// schemas in the snapshot become this manager's pending list, exactly as
// LoadManager does.
func (m *Manager) Restore(r io.Reader, gen int) error {
	if m.pool != nil {
		return fmt.Errorf("payg: cannot restore into a manager serving data sources")
	}
	return m.restore(r, gen, nil)
}
