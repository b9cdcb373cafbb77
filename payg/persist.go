package payg

import (
	"encoding/gob"
	"fmt"
	"io"

	"schemaflow/internal/classify"
	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// snapshot is the on-disk form of a System (gob-encoded). It stores the
// schemas, options, cluster assignment, probabilistic memberships, and the
// classifier's precomputed tables — everything whose recomputation is
// expensive. The feature space and mediated schemas are rebuilt
// deterministically on load (cheap relative to clustering and exact
// classifier setup).
//
// Version 2 adds Pending: schemas accepted by the online ingestion
// pipeline but not yet folded into the model by a recluster, so a restart
// keeps the journal. Version-1 snapshots decode with an empty journal.
//
// Version 3 adds the sharding fields: Sharded marks a snapshot of a
// sharded (domain-pruned) system and LocalDomains lists the domains it
// holds. Both are needed — gob encodes an empty slice as nil, so a bare
// LocalDomains could not distinguish "full system" from "shard owning
// zero domains" (possible when shards outnumber domains). Version-1/2
// snapshots decode as full systems.
type snapshot struct {
	Version      int
	Opts         Options
	Schemas      schema.Set
	Assign       []int
	Memberships  [][]core.Membership
	Classifier   *classify.Snapshot
	Pending      schema.Set
	Sharded      bool
	LocalDomains []int
}

const snapshotVersion = 3

// Save serializes the system so that Load can reconstruct it without
// re-running clustering or classifier setup. The snapshot carries no
// pending ingestion journal; to persist a live ingestion pipeline use
// Manager.Save.
func (s *System) Save(w io.Writer) error {
	return s.saveWithPending(w, nil)
}

// Save serializes the manager's serving system together with its pending
// ingestion journal. LoadManager restores both.
func (m *Manager) Save(w io.Writer) error {
	// Hold the swap lock so the (system, journal) pair is consistent: a
	// rebuild publishing mid-save could otherwise drain schemas into the
	// system while we snapshot the old journal (duplicating them) or vice
	// versa.
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.cur.Load()
	return st.sys.saveWithPending(w, m.journal.Schemas())
}

// SaveWithPending serializes the system together with an explicit pending
// journal — the primitive tools like the checkpoint splitter use to write
// a (possibly sharded) system plus its routed share of the journal.
func (s *System) SaveWithPending(w io.Writer, pending []Schema) error {
	return s.saveWithPending(w, pending)
}

func (s *System) saveWithPending(w io.Writer, pending schema.Set) error {
	snap := snapshot{
		Version:      snapshotVersion,
		Opts:         s.opts,
		Schemas:      s.schemas,
		Assign:       s.model.Clustering.Assign,
		Memberships:  make([][]core.Membership, len(s.schemas)),
		Classifier:   s.classifier.Snapshot(),
		Pending:      pending,
		Sharded:      s.localSet != nil,
		LocalDomains: s.local,
	}
	for i := range s.schemas {
		snap.Memberships[i] = s.model.DomainsOf(i)
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("payg: encoding snapshot: %w", err)
	}
	return nil
}

// Load reconstructs a System previously written by Save. The feature space
// is rebuilt (vocabulary and vectors are deterministic given the schemas and
// options); clustering and classifier tables come from the snapshot. Any
// pending ingestion journal in the snapshot is dropped — use LoadWithPending
// or LoadManager to recover it.
func Load(r io.Reader) (*System, error) {
	sys, _, err := LoadWithPending(r)
	return sys, err
}

// LoadWithPending is Load plus the snapshot's pending ingestion journal:
// schemas accepted online but not yet reclustered into the model when the
// snapshot was taken. LoadManager re-journals them automatically.
func LoadWithPending(r io.Reader) (*System, []Schema, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("payg: decoding snapshot: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, nil, fmt.Errorf("payg: snapshot version %d, want 1–%d", snap.Version, snapshotVersion)
	}
	// A snapshot holds a built system's options, so its float thresholds
	// are already resolved (gob drops the unexported marker): a stored 0 is
	// a requested literal. withDefaults still fills the string fields that
	// postdate the snapshot's version.
	snap.Opts.resolved = true
	opts := snap.Opts.withDefaults()
	// featureConfig applies the same sentinel translation Build used —
	// notably TauTSim 0 (a requested literal threshold) must become
	// feature.Config's negative escape, not silently revert to 0.8 on load.
	fcfg, err := opts.featureConfig()
	if err != nil {
		return nil, nil, err
	}
	sp := feature.BuildLite(snap.Schemas, fcfg)
	cl := cluster.FromAssignment(snap.Assign)
	model, err := core.RestoreModel(snap.Schemas, sp, cl, snap.Memberships, core.Options{TauCSim: opts.TauCSim, Theta: opts.Theta})
	if err != nil {
		return nil, nil, err
	}
	cls, err := classify.Restore(model, snap.Classifier)
	if err != nil {
		return nil, nil, err
	}
	// Fitted shortlist state (embeddings, ANN graph) is derived, never
	// persisted: re-fit deterministically against the rebuilt space.
	vec, err := opts.fitShortlist(sp)
	if err != nil {
		return nil, nil, err
	}
	sys := &System{opts: opts, schemas: snap.Schemas, space: sp, model: model, classifier: cls, vectorizer: vec}
	if snap.Sharded {
		// Restore the local-domain view before mediation so only local
		// domains are re-mediated — the whole point of the pruned form.
		nD := model.NumDomains()
		sys.local = snap.LocalDomains
		if sys.local == nil {
			sys.local = []int{} // gob nil/empty collapse; Sharded says pruned
		}
		sys.localSet = make([]bool, nD)
		for _, r := range sys.local {
			if r < 0 || r >= nD {
				return nil, nil, fmt.Errorf("payg: snapshot local domain %d out of range [0,%d)", r, nD)
			}
			sys.localSet[r] = true
		}
	}
	if !opts.SkipMediation {
		if err := sys.buildMediation(); err != nil {
			return nil, nil, err
		}
	}
	return sys, snap.Pending, nil
}
