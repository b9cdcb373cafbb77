// Package candgen generates candidate schema pairs for sub-quadratic
// clustering: MinHash signatures over the binary feature vectors and
// locality-sensitive-hash banding to surface pairs likely to clear a Jaccard
// threshold.
//
// The offline pipeline's only O(n²) obligation is knowing which schema
// pairs are similar enough to influence clustering. The thesis computes
// every pairwise similarity (fine at n≈2,323); at 100k–1M sources that is
// neither computable nor necessary — domains are cohesive, so the similar
// pairs are a vanishing fraction of all pairs. MinHash-LSH finds (almost)
// all of them in O(n · k) signature work plus near-linear banding:
//
//   - a MinHash signature of k = Bands·Rows components estimates Jaccard:
//     Pr[sig_t(A) = sig_t(B)] = J(A,B) for each component t;
//   - banding hashes r consecutive components per band; two schemas
//     collide in a band iff all r components agree, so a pair of true
//     similarity s becomes a candidate with probability 1−(1−s^r)^b
//     (CollisionProb) — an S-curve tuned to pass pairs above the
//     clustering threshold and drop the rest.
//
// Every collision is a candidate: a filter on the signatures' agreement
// fraction costs clustering quality (DESIGN.md, "Candidate generation").
// The build asks per pair (SignatureSet.Collide) while it reads the positive
// pairs off the feature space (cluster.CompletePairSims), so a candidate is
// kept exactly when its similarity is positive; Pairs lists every candidate
// for callers that want the list. Absent pairs are treated as
// zero-similarity downstream. Everything is deterministic for a fixed
// Config: hashing is seeded, and neither the keys nor the pair list depend
// on the worker count.
package candgen

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"schemaflow/internal/bitvec"
)

// Pair is one candidate schema pair, A < B.
type Pair struct {
	A, B int32
}

// Config controls signature and candidate generation. The zero value is not
// useful; start from DefaultConfig.
type Config struct {
	// Bands is b, the number of LSH bands (default 128).
	Bands int
	// Rows is r, the signature components per band (default 2). The
	// signature length is Bands·Rows. The banding threshold — the
	// similarity at which a pair has ~63% collision probability — is
	// (1/b)^(1/r); the defaults put it at ≈0.088, far below the thesis'
	// τ_c_sim = 0.25 (CollisionProb(128, 2, 0.25) ≈ 0.9997) because
	// downstream average linkage needs low-similarity pairs too, not just
	// the ones that can trigger a merge by themselves.
	Rows int
	// Seed perturbs the MinHash hash functions. Builds with equal seeds
	// are bit-identical; the default 0 is a fixed, valid seed.
	Seed int64
	// Workers bounds the goroutines used for signature computation and
	// banding. 0 means GOMAXPROCS.
	Workers int
	// IDs, when set, is what each bit position hashes as: set bit x enters
	// MinHash as IDs[x]. A caller whose bit positions are one permutation of
	// a canonical numbering passes the map to it, and the signatures do not
	// depend on the permutation. nil hashes x itself.
	IDs []int32
}

// DefaultConfig returns the tuning used by the blocked build path:
// 128 bands × 2 rows (k = 256).
func DefaultConfig() Config {
	return Config{Bands: 128, Rows: 2}
}

func (c Config) normalized() (Config, error) {
	if c.Bands == 0 {
		c.Bands = 128
	}
	if c.Rows == 0 {
		c.Rows = 2
	}
	if c.Bands < 1 || c.Rows < 1 || c.Bands*c.Rows > 4096 {
		return c, fmt.Errorf("candgen: bands %d × rows %d outside [1,1] .. k≤4096", c.Bands, c.Rows)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// CollisionProb returns the probability that a pair of true Jaccard
// similarity s collides in at least one of b bands of r rows:
// 1 − (1−s^r)^b. Use it to tune Bands/Rows against a target threshold.
func CollisionProb(bands, rows int, s float64) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(rows)), float64(bands))
}

// SignatureSet holds the LSH band keys of one schema corpus. The MinHash
// signatures they are folded from are not kept: banding reads nothing else.
type SignatureSet struct {
	cfg Config
	n   int
	// keys is schema-major, four 16-bit keys to a word: schema i's key in
	// band b is lane b%4 (bits 16·(b%4) up) of keys[i*words+b/4], so Collide
	// compares two schemas' rows a word at a time.
	keys  []uint64
	words int
	// pad has 0x0001 in every lane of a row's last word that holds no band
	// (Bands%4 ≠ 0), so the lanes both rows leave zero never test equal.
	pad uint64
}

// N returns the number of schemas signed.
func (s *SignatureSet) N() int { return s.n }

// key returns schema i's bucket key in band.
func (s *SignatureSet) key(band, i int) uint16 {
	return uint16(s.keys[i*s.words+band>>2] >> (16 * (band & 3)))
}

// Lane masks of the zero-lane test: (x − lo) &^ x & hi is non-zero exactly
// when one of x's four 16-bit lanes is zero.
const (
	laneLo = 0x0001_0001_0001_0001
	laneHi = 0x8000_8000_8000_8000
)

// Collide reports whether schemas a and b agree on their key in at least
// one band — whether banding makes (a, b) a candidate pair. It XORs the two
// rows word by word and tests each for a zero lane, so it reads 2·⌈Bands/4⌉
// words and nothing else. Collide is safe for concurrent use.
func (s *SignatureSet) Collide(a, b int) bool {
	ra := s.keys[a*s.words : (a+1)*s.words]
	rb := s.keys[b*s.words : (b+1)*s.words]
	last := len(ra) - 1
	for k := 0; k < last; k++ {
		if x := ra[k] ^ rb[k]; (x-laneLo)&^x&laneHi != 0 {
			return true
		}
	}
	x := ra[last] ^ rb[last] | s.pad
	return (x-laneLo)&^x&laneHi != 0
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed 64-bit
// permutation used to derive per-component hash parameters and to fold band
// rows into bucket keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Signatures computes every schema's MinHash signature and folds it into its
// band keys. Component t of the signature (k = Bands·Rows of them) uses the
// multiply-shift hash h_t(x) = (a_t·(2x+1)) >> 32 with the odd multiplier
// a_t = splitmix64(base+t) | 1, base = splitmix64(Seed ^ 0x5eedc0ffee); the
// component is the minimum of h_t over the vector's set bits. The key of band
// j is the top 16 bits of a splitmix64 chain over that band's r components,
// h ← splitmix64(h ^ c) from h = splitmix64(j + 0xb1ade5). The narrow width is
// deliberate — a band's whole key space is one 65,536-entry table — and part
// of the output: accidental key collisions (~n²/2¹⁷ pairs per band) only ADD
// candidate pairs, so recall cannot drop, and the extras are priced by the
// exact similarity pass like every other candidate.
//
// An empty vector gets the all-max signature, which collides with nothing
// except other empty vectors (two empty schemas have Jaccard 0 by the
// bitvec convention, but identical signatures — callers clustering with a
// positive threshold are unaffected because the exact similarity pass
// assigns such pairs similarity 0).
//
// A schema's signature is built component-major — each set bit, two at a
// time, sweeps all k minima, which are independent of one another — in one
// worker-local row, and folded into its keys while the row is in L1; only the
// keys are stored. Schemas are partitioned across cfg.Workers goroutines, and
// ctx is polled between schemas so a shutdown aborts promptly.
func Signatures(ctx context.Context, vecs []*bitvec.Vector, cfg Config) (*SignatureSet, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	n, bands, rows := len(vecs), cfg.Bands, cfg.Rows
	words := (bands + 3) / 4
	ss := &SignatureSet{cfg: cfg, n: n, keys: make([]uint64, n*words), words: words}
	for band := bands; band < 4*words; band++ {
		ss.pad |= 1 << (16 * (band & 3))
	}

	mults := make([]uint64, bands*rows)
	base := splitmix64(uint64(cfg.Seed) ^ 0x5eedc0ffee)
	for t := range mults {
		mults[t] = splitmix64(base+uint64(t)) | 1 // odd multiplier
	}
	seeds := make([]uint64, bands)
	for band := range seeds {
		seeds[band] = splitmix64(uint64(band) + 0xb1ade5)
	}

	var firstErr error
	var errOnce sync.Once
	fail := func(e error) { errOnce.Do(func() { firstErr = e }) }

	chunk := (n + cfg.Workers - 1) / cfg.Workers
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var idx []int32
			sig := make([]uint32, len(mults))
			for i := lo; i < hi; i++ {
				if i%256 == 0 && ctx.Err() != nil {
					fail(ctx.Err())
					return
				}
				idx = vecs[i].IndicesAppend32(idx[:0])
				if cfg.IDs != nil {
					for k, x := range idx {
						idx[k] = cfg.IDs[x]
					}
				}
				minHash(sig, mults, idx)
				row := ss.keys[i*words : (i+1)*words]
				for band, h := range seeds {
					for _, c := range sig[band*rows : (band+1)*rows] {
						h = splitmix64(h ^ uint64(c))
					}
					row[band>>2] |= h >> 48 << (16 * (band & 3))
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return ss, nil
}

// minHash writes into sig the MinHash signature of the set bits idx under the
// multipliers mults: sig[t] = min over x in idx of (mults[t]·(2x+1)) >> 32,
// MaxUint32 for an empty set. Each sweep lowers all k components by two set
// bits (an odd last bit is swept as a pair with itself), so the k minima are
// k independent chains rather than one serial chain per component.
func minHash(sig []uint32, mults []uint64, idx []int32) {
	sig = sig[:len(mults)]
	for t := range sig {
		sig[t] = math.MaxUint32
	}
	for j := 0; j < len(idx); j += 2 {
		x0, x1 := uint64(2*uint32(idx[j])+1), uint64(2*uint32(idx[min(j+1, len(idx)-1)])+1)
		for t, a := range mults {
			sig[t] = min(sig[t], uint32((a*x0)>>32), uint32((a*x1)>>32))
		}
	}
}

// gatherBlock is how many consecutive schemas a Pairs worker claims at a
// time: small enough that the skew (low schemas have the longest chains)
// spreads over the workers, large enough that the shared counter and the
// per-block result slice are noise.
const gatherBlock = 64

// Pairs runs LSH banding over the signatures and returns the candidate
// pairs: every a < b whose band keys agree in at least one band, each once,
// sorted by (A, B).
//
// Pass 1, per band: link each schema to the next-higher schema holding the
// same key. Order inside a bucket carries no meaning for the output, so no
// band is ever sorted — one descending scan over a key → lowest-schema-so-far
// table threads the chains, and they ascend because the scan descends.
// Pass 2, per schema a: walk a's chain in every band. Everything on a chain
// is a partner b > a; it is marked in a worker-local n-bit set, which keeps a
// partner met in several bands once, and the words between the lowest and the
// highest partner are scanned — and cleared — in order, so a's pairs come out
// ascending without a sort. Schemas are claimed in blocks and the blocks
// concatenated in index order, so the output is sorted by construction and
// the same for every worker count. ctx is polled per band and per block.
func (s *SignatureSet) Pairs(ctx context.Context) ([]Pair, error) {
	n, bands, workers := s.n, s.cfg.Bands, s.cfg.Workers

	// next[i*bands+band] is the next-higher schema sharing i's key in that
	// band, 0 for none (schema 0 is nobody's next-higher). Schema-major, so
	// pass 2 finds a schema's chains in one contiguous row.
	next := make([]int32, n*bands)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Contiguous band ranges: no two workers write the same cache line
		// of a row.
		lo, hi := w*bands/workers, (w+1)*bands/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			head := make([]int32, 1<<16) // key → lowest schema seen so far, 0 for none
			for band := lo; band < hi && ctx.Err() == nil; band++ {
				for i := n - 1; i >= 0; i-- {
					k := s.key(band, i)
					next[i*bands+band] = head[k]
					head[k] = int32(i)
				}
				// Reset by the n keys just seen, not by 65,536 slots.
				for i := range n {
					head[s.key(band, i)] = 0
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	blocks := make([][]Pair, (n+gatherBlock-1)/gatherBlock)
	var claimed atomic.Int64
	for w := 0; w < min(workers, len(blocks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make([]uint64, (n+63)/64) // partners of the current schema; all zero between schemas
			var out []Pair
			for ctx.Err() == nil {
				bi := int(claimed.Add(1)) - 1
				if bi >= len(blocks) {
					return
				}
				out = out[:0]
				for a := bi * gatherBlock; a < min((bi+1)*gatherBlock, n); a++ {
					lo, hi := int32(n), int32(-1) // span of a's partners, empty until one is met
					for band, b := range next[a*bands:][:bands] {
						for ; b != 0; b = next[int(b)*bands+band] {
							seen[b>>6] |= 1 << (b & 63)
							lo, hi = min(lo, b), max(hi, b)
						}
					}
					for wi := lo >> 6; wi <= hi>>6; wi++ {
						for word := seen[wi]; word != 0; word &= word - 1 {
							out = append(out, Pair{A: int32(a), B: wi<<6 | int32(bits.TrailingZeros64(word))})
						}
						seen[wi] = 0
					}
				}
				blocks[bi] = slices.Clone(out)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return slices.Concat(blocks...), nil
}

// Pairs is the one-call path: signatures plus banding.
func Pairs(ctx context.Context, vecs []*bitvec.Vector, cfg Config) ([]Pair, error) {
	ss, err := Signatures(ctx, vecs, cfg)
	if err != nil {
		return nil, err
	}
	return ss.Pairs(ctx)
}

// AllPairs returns every pair over n schemas — the full-scan fallback for
// corpora too small for LSH to pay off, and the reference set for recall
// tests. The output is sorted like Pairs'.
func AllPairs(n int) []Pair {
	if n < 2 {
		return nil
	}
	out := make([]Pair, 0, n*(n-1)/2)
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Pair{A: int32(i), B: int32(j)})
		}
	}
	return out
}
