// Package shard partitions a built schemaflow system's domains across N
// shard replicas and reassembles global answers at a router — the
// scale-out tier on top of the durable serving layer.
//
// The partitioning is rendezvous (highest-random-weight) hashing over
// domain ids: every (domain, shard) pair hashes to a weight and each
// domain lives on the shard with the maximal weight. Rendezvous hashing
// needs no coordination state beyond (index, shards) — any party that
// knows the shard count recomputes the same ownership — and changing the
// shard count moves only ~1/N of the domains.
//
// Each shard runs a full payg.Manager over a domain-pruned System
// (payg.System.Shard): it keeps the whole schema corpus, feature space,
// and model — so per-domain classification math is bit-identical to a
// single node — but holds classifier table rows and mediated schemas
// only for its local domains. The Router fans a query out to every shard,
// concatenates the partial log posteriors, and re-runs the exact
// normalization + top-k selection of the single-node classifier
// (classify.MergeTop), so a healthy router's ranking is bit-identical
// to the unsharded system's. SplitCheckpoint cuts a single-node durable
// checkpoint into the N per-shard data dirs this topology serves from.
package shard

import (
	"encoding/binary"
	"hash/fnv"
)

// weight is the rendezvous weight of placing domain r on shard i. FNV-1a
// is used deliberately: it is stable across processes and Go releases
// (hash/maphash would reseed per process and shards must agree).
func weight(domain, shardIdx int) uint64 {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(domain))
	binary.BigEndian.PutUint64(buf[8:], uint64(shardIdx))
	h := fnv.New64a()
	h.Write(buf[:]) //nolint:errcheck // hash.Hash.Write never fails
	return h.Sum64()
}

// Owner returns which of shards replicas owns the given domain id —
// the argmax of the rendezvous weight, ties broken toward the lower
// shard index. shards must be ≥ 1.
func Owner(domain, shards int) int {
	best, bestW := 0, weight(domain, 0)
	for i := 1; i < shards; i++ {
		if w := weight(domain, i); w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// LocalDomains returns the sorted domain ids (out of numDomains) owned by
// shard index out of shards replicas. Every domain id in [0, numDomains)
// appears in exactly one shard's list.
func LocalDomains(numDomains, index, shards int) []int {
	var out []int
	for r := 0; r < numDomains; r++ {
		if Owner(r, shards) == index {
			out = append(out, r)
		}
	}
	return out
}
