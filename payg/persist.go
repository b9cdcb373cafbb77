package payg

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

// snapshot is the on-disk form of a System (gob-encoded): exactly the
// decisions that cannot be recomputed. The schemas and options are the
// input; the cluster assignment is what Algorithm 2 decided; the memberships
// are what Algorithm 3 decided and what user feedback may since have pinned;
// the pending schemas were acked but not yet reclustered; the local-domain
// slice is the splitter's partitioning. Everything else a System holds — the
// feature space, the classifier's tables, the mediated schemas — is a
// function of these and is derived on load by the same assemble step Build
// ends in, so Load is Build minus clustering and a loaded system cannot
// disagree with its own model. See docs/DESIGN.md §8 (Persistence).
//
// Both sharding fields are needed — gob encodes an empty slice as nil, so a
// bare LocalDomains could not distinguish "full system" from "shard owning
// zero domains" (possible when shards outnumber domains).
type snapshot struct {
	Version      int
	Opts         Options
	Schemas      schema.Set
	Assign       []int
	Memberships  [][]core.Membership
	Pending      schema.Set
	Sharded      bool
	LocalDomains []int
}

const snapshotVersion = 4

// Save serializes the system so that Load can reconstruct it without
// re-running clustering. The snapshot carries no pending schemas; to persist
// a live ingestion pipeline use Manager.Save.
func (s *System) Save(w io.Writer) error {
	return s.SaveWithPending(w, nil)
}

// Save serializes the manager's serving system together with its pending
// schemas. LoadManager restores both.
func (m *Manager) Save(w io.Writer) error {
	// Hold the swap lock so the (system, pending) pair is consistent: a
	// rebuild publishing mid-save could otherwise drain schemas into the
	// system while we snapshot the old list (duplicating them) or vice
	// versa.
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.Load().sys.SaveWithPending(w, m.pending)
}

// SaveWithPending serializes the system together with an explicit pending
// list — the primitive tools like the checkpoint splitter use to write a
// (possibly sharded) system plus its routed share of the arrivals.
func (s *System) SaveWithPending(w io.Writer, pending []Schema) error {
	snap := snapshot{
		Version:      snapshotVersion,
		Opts:         s.opts,
		Schemas:      s.schemas,
		Assign:       s.model.Clustering.Assign,
		Memberships:  make([][]core.Membership, len(s.schemas)),
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

// Load reconstructs a System previously written by Save. Clustering and
// memberships come from the snapshot; the feature space, classifier and
// mediation are rebuilt from them. Any pending schemas in the snapshot are
// dropped — use LoadWithPending or LoadManager to recover them.
func Load(r io.Reader) (*System, error) {
	sys, _, err := LoadWithPending(r)
	return sys, err
}

// LoadWithPending is Load plus the snapshot's pending schemas: accepted
// online but not yet reclustered into the model when the snapshot was taken.
// The bytes may come from disk or from a peer, so the snapshot's shape is
// checked before anything is built from it.
func LoadWithPending(r io.Reader) (*System, []Schema, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("payg: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, nil, fmt.Errorf("payg: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	n := len(snap.Schemas)
	if len(snap.Assign) != n {
		return nil, nil, fmt.Errorf("payg: snapshot assigns %d schemas to clusters, holds %d", len(snap.Assign), n)
	}
	if len(snap.Memberships) != n {
		return nil, nil, fmt.Errorf("payg: snapshot holds memberships for %d schemas, schemas for %d", len(snap.Memberships), n)
	}
	for i, c := range snap.Assign {
		if c < 0 {
			return nil, nil, fmt.Errorf("payg: snapshot schema %d has negative cluster id %d", i, c)
		}
	}
	for _, set := range []schema.Set{snap.Schemas, snap.Pending} {
		for i := range set {
			if err := set[i].Validate(); err != nil {
				return nil, nil, fmt.Errorf("payg: snapshot: %w", err)
			}
		}
	}
	cl := cluster.FromAssignment(snap.Assign)
	var local []int // nil: a full system
	if snap.Sharded {
		local = snap.LocalDomains
		if local == nil {
			local = []int{} // gob nil/empty collapse; Sharded says pruned
		}
		for k, r := range local {
			if r < 0 || r >= cl.NumClusters() {
				return nil, nil, fmt.Errorf("payg: snapshot local domain %d out of range [0,%d)", r, cl.NumClusters())
			}
			if k > 0 && local[k-1] >= r {
				return nil, nil, fmt.Errorf("payg: snapshot local domains not strictly ascending at %d", r)
			}
		}
	}
	// A snapshot holds a built system's options, so its float thresholds
	// are already resolved (gob drops the unexported marker): a stored 0 is
	// a requested literal. withDefaults still fills empty string fields.
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
	model, err := core.RestoreModel(snap.Schemas, sp, cl, snap.Memberships, core.Options{TauCSim: opts.TauCSim, Theta: opts.Theta})
	if err != nil {
		return nil, nil, err
	}
	sys, err := assemble(context.Background(), opts, model, local)
	if err != nil {
		return nil, nil, err
	}
	return sys, snap.Pending, nil
}
