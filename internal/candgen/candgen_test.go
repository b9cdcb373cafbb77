package candgen_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"schemaflow/internal/bitvec"
	. "schemaflow/internal/candgen"
	"schemaflow/internal/dataset"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
)

func TestCollisionProb(t *testing.T) {
	// The S-curve must be monotone in s and hit the documented operating
	// point: at the default 64×2 geometry, a pair at the thesis threshold
	// τ_c_sim = 0.25 is nearly certain to become a candidate.
	if p := CollisionProb(64, 2, 0.25); p < 0.98 {
		t.Errorf("CollisionProb(64,2,0.25) = %v, want ≥ 0.98", p)
	}
	if p := CollisionProb(64, 2, 0.02); p > 0.05 {
		t.Errorf("CollisionProb(64,2,0.02) = %v, want ≤ 0.05", p)
	}
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.05 {
		p := CollisionProb(64, 2, s)
		if p < prev {
			t.Fatalf("CollisionProb not monotone at s=%v", s)
		}
		prev = p
	}
}

func testVectors(t *testing.T, n, domains int) []*bitvec.Vector {
	t.Helper()
	set := dataset.Large(dataset.LargeConfig{N: n, Domains: domains, Seed: 7})
	sp := feature.BuildLite(set, feature.DefaultConfig())
	return sp.Vectors
}

// splitmix64, minHash and bandKey write down Signatures' doc comment: the
// signature of v under cfg, and the key of one band of a signature.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func minHash(v *bitvec.Vector, cfg Config) []uint32 {
	base := splitmix64(uint64(cfg.Seed) ^ 0x5eedc0ffee)
	sig := make([]uint32, cfg.Bands*cfg.Rows)
	for t := range sig {
		a := splitmix64(base+uint64(t)) | 1
		sig[t] = math.MaxUint32
		for _, x := range v.Indices() {
			sig[t] = min(sig[t], uint32((a*(2*uint64(x)+1))>>32))
		}
	}
	return sig
}

func bandKey(sig []uint32, band, rows int) uint16 {
	h := splitmix64(uint64(band) + 0xb1ade5)
	for _, c := range sig[band*rows : (band+1)*rows] {
		h = splitmix64(h ^ uint64(c))
	}
	return uint16(h >> 48)
}

// keysOf lists every stored key, schema by schema.
func keysOf(ss *SignatureSet, bands int) []uint16 {
	var keys []uint16
	for i := 0; i < ss.N(); i++ {
		for band := 0; band < bands; band++ {
			keys = append(keys, BandKey(ss, band, i))
		}
	}
	return keys
}

// TestSignaturesDeterministicAndSeeded: the stored keys are the definition's
// (on schemas with odd and even set-bit counts, and empty ones), at one worker
// and at seven, and a different seed moves them.
func TestSignaturesDeterministicAndSeeded(t *testing.T) {
	vecs := testVectors(t, 200, 4)
	vecs = append(vecs, bitvec.New(vecs[0].Len()))
	ctx := context.Background()
	cfg := Config{Bands: 128, Rows: 2, Seed: 1}
	var want []uint16
	odd := 0
	for _, v := range vecs {
		odd += v.Count() % 2
		sig := minHash(v, cfg)
		for band := 0; band < cfg.Bands; band++ {
			want = append(want, bandKey(sig, band, cfg.Rows))
		}
	}
	if odd == 0 || odd == len(vecs) {
		t.Fatalf("%d of %d vectors have an odd set-bit count; the corpus should have both", odd, len(vecs))
	}
	for _, workers := range []int{1, 7} {
		cfg.Workers = workers
		ss, err := Signatures(ctx, vecs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := keysOf(ss, cfg.Bands); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: stored keys differ from the definition's", workers)
		}
	}
	cfg.Seed = 2
	c, err := Signatures(ctx, vecs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(keysOf(c, cfg.Bands), want) {
		t.Fatal("different seeds produced identical keys")
	}
}

// TestSignaturesFollowIDs: the signatures of a space Extend grew, with its
// terms renumbered by SortedIDs, are those of the space built afresh over the
// same schemas, key for key; without the renumbering they are not.
func TestSignaturesFollowIDs(t *testing.T) {
	ctx := context.Background()
	set := dataset.Large(dataset.LargeConfig{N: 300, Domains: 6, Seed: 7})
	arrivals := []schema.Schema{
		{Name: "new1", Attributes: []string{"aardvark count", "hangar"}},
		{Name: "new2", Attributes: []string{"mango yield", "zeppelin"}},
	}
	grown := feature.BuildLite(set, feature.DefaultConfig())
	for _, s := range arrivals {
		grown, _ = grown.Extend(s)
	}
	fresh := feature.BuildLite(append(slices.Clip(set), arrivals...), feature.DefaultConfig())
	cfg := DefaultConfig()
	want, err := Signatures(ctx, fresh.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Signatures(ctx, grown.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(keysOf(plain, cfg.Bands), keysOf(want, cfg.Bands)) {
		t.Fatal("premise broken: the grown space's bit order does not move its keys")
	}
	cfg.IDs = grown.SortedIDs()
	got, err := Signatures(ctx, grown.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keysOf(got, cfg.Bands), keysOf(want, cfg.Bands)) {
		t.Fatal("renumbered signatures of the grown space differ from the fresh space's")
	}
}

func TestEstimateTracksJaccard(t *testing.T) {
	// The agreement fraction of the signatures the keys are folded from is an
	// unbiased Jaccard estimator with σ ≤ 1/(2√k); at k = 512 a single pair
	// should land within ~5σ.
	dim := 256
	a := bitvec.New(dim)
	b := bitvec.New(dim)
	for i := 0; i < 40; i++ {
		a.Set(i)
	}
	for i := 20; i < 60; i++ {
		b.Set(i)
	}
	truth := a.Jaccard(b) // 20/60
	cfg := Config{Bands: 256, Rows: 2}
	sa, sb, agree := minHash(a, cfg), minHash(b, cfg), 0
	for c := range sa {
		if sa[c] == sb[c] {
			agree++
		}
	}
	if est := float64(agree) / float64(len(sa)); math.Abs(est-truth) > 0.12 {
		t.Errorf("agreement fraction = %v, true Jaccard = %v", est, truth)
	}
}

func TestPairsSortedDedupedAndWorkerInvariant(t *testing.T) {
	vecs := testVectors(t, 300, 6)
	ctx := context.Background()
	ref, err := Pairs(ctx, vecs, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("no candidate pairs on a clustered corpus")
	}
	for i, p := range ref {
		if p.A >= p.B {
			t.Fatalf("pair %d: A=%d ≥ B=%d", i, p.A, p.B)
		}
		if i > 0 {
			q := ref[i-1]
			if p.A < q.A || (p.A == q.A && p.B <= q.B) {
				t.Fatalf("pairs not strictly sorted at %d: %v after %v", i, p, q)
			}
		}
	}
	for _, workers := range []int{2, 5, 16} {
		got, err := Pairs(ctx, vecs, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: pair %d = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestRecallAboveThreshold is the satellite property test: on seeded
// corpora, LSH candidates must cover ≥95% of the pairs whose true Jaccard
// clears the clustering threshold τ_c_sim = 0.25, using the production
// defaults (128×2 banding, every collision kept).
func TestRecallAboveThreshold(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		doms int
		seed int64
	}{
		{"large-n1200", 1200, 8, 7},
		{"large-n800-d20", 800, 20, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := dataset.Large(dataset.LargeConfig{N: tc.n, Domains: tc.doms, Seed: tc.seed})
			sp := feature.BuildLite(set, feature.DefaultConfig())
			vecs := sp.Vectors

			cand, err := Pairs(context.Background(), vecs, Config{Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			inCand := make(map[Pair]bool, len(cand))
			for _, p := range cand {
				inCand[p] = true
			}

			const tau = 0.25
			truePairs, recalled := 0, 0
			for i := 0; i < len(vecs); i++ {
				for j := i + 1; j < len(vecs); j++ {
					if vecs[i].Jaccard(vecs[j]) >= tau {
						truePairs++
						if inCand[Pair{A: int32(i), B: int32(j)}] {
							recalled++
						}
					}
				}
			}
			if truePairs == 0 {
				t.Fatal("corpus has no pairs above tau; test is vacuous")
			}
			recall := float64(recalled) / float64(truePairs)
			t.Logf("recall %.4f (%d/%d true pairs, %d candidates)", recall, recalled, truePairs, len(cand))
			if recall < 0.95 {
				t.Errorf("recall %.4f < 0.95", recall)
			}
		})
	}
}

// pollCtx reports context.Canceled from its (left+1)-th Err call on, so a
// sweep over left cancels Pairs at each of its poll sites in turn.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestPairsCancellation(t *testing.T) {
	vecs := testVectors(t, 300, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Signatures(ctx, vecs, Config{}); err == nil {
		t.Error("Signatures ignored a canceled context")
	}
	if _, err := Pairs(ctx, vecs, Config{}); err == nil {
		t.Error("Pairs ignored a canceled context")
	}

	// Cancel at every poll of the banding, first to last: each run returns
	// context.Canceled with its workers gone, and the first run to finish is
	// late enough that the polls before it reach into the gather (one per
	// band and one between the passes come first).
	for _, workers := range []int{1, 3} {
		cfg := Config{Workers: workers}
		ss, err := Signatures(context.Background(), vecs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ss.Pairs(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		start := runtime.NumGoroutine()
		blocks := (len(vecs) + GatherBlock - 1) / GatherBlock
		for polls := 0; ; polls++ {
			pc := &pollCtx{Context: context.Background()}
			pc.left.Store(int64(polls))
			got, err := ss.Pairs(pc)
			for i := 0; runtime.NumGoroutine() > start && i < 1000; i++ {
				time.Sleep(time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > start {
				t.Fatalf("workers=%d, canceled at poll %d: %d goroutines, started with %d", workers, polls, g, start)
			}
			if err == nil {
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d: uncanceled run after %d polls differs from the reference", workers, polls)
				}
				if floor := DefaultConfig().Bands + 1 + blocks; polls < floor {
					t.Errorf("workers=%d: Pairs finished after %d polls, want ≥ %d (per band, between passes, per block)", workers, polls, floor)
				}
				break
			}
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("workers=%d, canceled at poll %d: got %d pairs, err %v", workers, polls, len(got), err)
			}
		}
	}
}

// TestPropertyPairsIsTheDefinition holds Pairs to what it is documented to
// return — every a < b whose band keys agree in at least one band, once,
// sorted — on corpora that stress the gather: duplicate vectors (one bucket
// holding everything, in every band), all-empty vectors, sizes around the
// block boundary, one band and many, one worker and more workers than blocks.
func TestPropertyPairsIsTheDefinition(t *testing.T) {
	corpus := func(kind string, n int, rng *rand.Rand) []*bitvec.Vector {
		const dim = 96
		vecs := make([]*bitvec.Vector, n)
		for i := range vecs {
			switch kind {
			case "empty":
				vecs[i] = bitvec.New(dim)
			case "duplicates":
				vecs[i] = bitvec.FromIndices(dim, 3, 17, 40, 41)
			default: // a few loose groups plus noise, some exact repeats
				v := bitvec.New(dim)
				base := rng.Intn(4) * 20
				for j := 0; j < 8; j++ {
					if rng.Intn(3) > 0 {
						v.Set(base + j)
					}
				}
				v.Set(rng.Intn(dim))
				vecs[i] = v
			}
		}
		return vecs
	}
	rng := rand.New(rand.NewSource(24))
	for _, kind := range []string{"random", "duplicates", "empty"} {
		for _, n := range []int{0, 1, 2, 65, 200} {
			vecs := corpus(kind, n, rng)
			for _, geo := range [][2]int{{1, 1}, {16, 4}, {128, 2}} {
				for _, workers := range []int{1, 2, 7} {
					cfg := Config{Bands: geo[0], Rows: geo[1], Seed: int64(n), Workers: workers}
					ss, err := Signatures(context.Background(), vecs, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ss.Pairs(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					var want []Pair
					for a := 0; a < n; a++ {
						for b := a + 1; b < n; b++ {
							for band := 0; band < geo[0]; band++ {
								if BandKey(ss, band, a) == BandKey(ss, band, b) {
									want = append(want, Pair{A: int32(a), B: int32(b)})
									break
								}
							}
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s n=%d %d×%d workers=%d: %d pairs, the definition gives %d", kind, n, geo[0], geo[1], workers, len(got), len(want))
					}
					if kind != "random" && len(want) != n*(n-1)/2 {
						t.Fatalf("%s n=%d: identical vectors should collide everywhere, got %d pairs", kind, n, len(want))
					}
				}
			}
		}
	}
}

// TestPropertyCollideIsTheDefinition holds Collide to what it is documented
// to answer — whether some band's keys are equal — over every pair of a
// corpus with near-duplicates, strangers and empty vectors, at 128 bands (a
// row of whole words) and at 7 (the last word's fourth lane holds no band).
func TestPropertyCollideIsTheDefinition(t *testing.T) {
	vecs := testVectors(t, 160, 8)
	vecs = append(vecs, bitvec.New(vecs[0].Len()), bitvec.New(vecs[0].Len()))
	for _, bands := range []int{128, 7} {
		ss, err := Signatures(context.Background(), vecs, Config{Bands: bands, Rows: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		seen := [2]int{}
		for a := range vecs {
			for b := range vecs {
				want := false
				for band := 0; band < bands && !want; band++ {
					want = BandKey(ss, band, a) == BandKey(ss, band, b)
				}
				if got := ss.Collide(a, b); got != want {
					t.Fatalf("bands=%d: Collide(%d, %d) = %v, the definition gives %v", bands, a, b, got, want)
				}
				if want {
					seen[1]++
				} else {
					seen[0]++
				}
			}
		}
		if seen[0] == 0 || seen[1] == len(vecs) {
			t.Fatalf("bands=%d: %d pairs collide, %d do not; the corpus should have both beyond the diagonal", bands, seen[1], seen[0])
		}
	}
}

// TestPairsDigests pins the candidate list of two build-sized corpora —
// the first is the gated build-blocked workload's — to sha256 digests
// recorded from the counting-sort implementation this one replaced
// (little-endian A, B per pair).
func TestPairsDigests(t *testing.T) {
	for _, tc := range []struct {
		corpus dataset.LargeConfig
		pairs  int
		sha    string
	}{
		{dataset.LargeConfig{N: 6000, Domains: 120, Seed: 1}, 311447, "0a55a09aabac2bd014dcdd233f7bef2525b150682d3f7ac138edb22a0d31d939"},
		{dataset.LargeConfig{N: 1500, Seed: 3}, 159042, "bda3524b4977f149c583a97d4c06ae7d3e040f585240e88a75cc3d6c66605535"},
	} {
		sp := feature.BuildLite(dataset.Large(tc.corpus), feature.DefaultConfig())
		pairs, err := Pairs(context.Background(), sp.Vectors, Config{})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, p := range pairs {
			binary.LittleEndian.PutUint32(buf[:4], uint32(p.A))
			binary.LittleEndian.PutUint32(buf[4:], uint32(p.B))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(pairs) != tc.pairs || got != tc.sha {
			t.Errorf("%+v: %d pairs, sha256 %s; recorded %d pairs, %s", tc.corpus, len(pairs), got, tc.pairs, tc.sha)
		}
	}
}

func TestAllPairs(t *testing.T) {
	if got := AllPairs(1); got != nil {
		t.Errorf("AllPairs(1) = %v, want nil", got)
	}
	got := AllPairs(4)
	want := []Pair{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("AllPairs(4) has %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AllPairs(4)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	vecs := testVectors(t, 10, 2)
	ctx := context.Background()
	for _, cfg := range []Config{
		{Bands: 64, Rows: 65}, // k > 4096
		{Bands: -1, Rows: 2},  // negative bands
	} {
		if _, err := Pairs(ctx, vecs, cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

func TestEmptyVectorsDoNotPanic(t *testing.T) {
	vecs := []*bitvec.Vector{bitvec.New(64), bitvec.New(64), bitvec.FromIndices(64, 1, 2, 3)}
	pairs, err := Pairs(context.Background(), vecs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The two empty vectors share the all-max signature and may surface as
	// a candidate; the exact similarity pass downstream assigns them 0.
	for _, p := range pairs {
		if p.B == 2 {
			t.Errorf("empty vector paired with non-empty: %v", p)
		}
	}
}
