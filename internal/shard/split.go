package shard

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"schemaflow/payg"
)

// ShardDirName renders the conventional per-shard subdirectory name the
// splitter creates under its output dir.
func ShardDirName(index int) string { return fmt.Sprintf("shard-%d", index) }

// SplitSummary reports what SplitCheckpoint produced.
type SplitSummary struct {
	// Generation is the source checkpoint's generation, preserved in every
	// shard checkpoint so per-shard recovery resumes the same clock.
	Generation int
	// Domains is the total domain count that was partitioned.
	Domains int
	// Dirs are the created shard data dirs, indexed by shard.
	Dirs []string
	// LocalDomains and Pending count each shard's share.
	LocalDomains []int
	Pending      []int
}

// SplitCheckpoint cuts the single-node state in srcDir into n per-shard
// data dirs under outDir (outDir/shard-0 … outDir/shard-<n-1>), each
// holding a domain-pruned checkpoint at the same generation plus a
// shard.json manifest — ready for n payg-server processes to recover from
// with -data-dir. The source dir is recovered exactly as a server restart
// would — newest checkpoint plus WAL replay, which also compacts the
// source's WAL into a fresh checkpoint — so run the splitter only while
// the source server is stopped. Pending journaled schemas are routed by a
// full assignment probe: each goes to the shard owning its best domain,
// fresh ones to shard 0 (any shard works — a fresh schema only matters at
// the next topology-wide recluster). Already-sharded checkpoints and
// target dirs that already hold a checkpoint are refused.
func SplitCheckpoint(srcDir, outDir string, n int) (*SplitSummary, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: cannot split into %d shards", n)
	}
	if _, ok, err := ReadManifest(srcDir); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("shard: %s is already a shard data dir; split the original single-node dir", srcDir)
	}
	mgr, err := payg.LoadManagerDir(srcDir, payg.ManagerOptions{DriftThreshold: -1})
	if err != nil {
		return nil, fmt.Errorf("shard: recovering %s: %w", srcDir, err)
	}
	defer mgr.Close()
	sys, gen, pending := mgr.System(), mgr.Generation(), mgr.Pending()
	if sys.LocalDomains() != nil {
		return nil, fmt.Errorf("shard: checkpoint in %s is already sharded; split the original single-node checkpoint", srcDir)
	}
	nD := sys.NumDomains()

	// Route the pending journal: a full-model probe decides each schema's
	// best domain exactly as single-node ingest did when it was acked.
	pendingOf := make([][]payg.Schema, n)
	for _, sch := range pending {
		a, err := sys.Ingest(sch)
		if err != nil {
			return nil, fmt.Errorf("shard: probing journaled schema %q: %w", sch.Name, err)
		}
		target := 0
		if !a.Fresh && a.BestDomain >= 0 {
			target = Owner(a.BestDomain, n)
		}
		pendingOf[target] = append(pendingOf[target], sch)
	}

	sum := &SplitSummary{
		Generation:   gen,
		Domains:      nD,
		Dirs:         make([]string, n),
		LocalDomains: make([]int, n),
		Pending:      make([]int, n),
	}
	for i := 0; i < n; i++ {
		dir := filepath.Join(outDir, ShardDirName(i))
		if ok, err := payg.HasCheckpoint(dir); err != nil {
			return nil, fmt.Errorf("shard: scanning %s: %w", dir, err)
		} else if ok {
			return nil, fmt.Errorf("shard: %s already holds a checkpoint; refusing to clobber it", dir)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: creating %s: %w", dir, err)
		}
		local := LocalDomains(nD, i, n)
		sh, err := sys.Shard(local)
		if err != nil {
			return nil, err
		}
		cp := filepath.Join(dir, payg.CheckpointFileName(gen))
		if err := payg.SaveFile(cp, func(w io.Writer) error {
			return sh.SaveWithPending(w, pendingOf[i])
		}); err != nil {
			return nil, err
		}
		if err := WriteManifest(dir, Manifest{Index: i, Shards: n, Generation: gen, Domains: nD}); err != nil {
			return nil, err
		}
		sum.Dirs[i] = dir
		sum.LocalDomains[i] = len(local)
		sum.Pending[i] = len(pendingOf[i])
	}
	return sum, nil
}
