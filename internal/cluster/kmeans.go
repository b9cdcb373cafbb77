package cluster

import (
	"math"
	"math/rand"

	"schemaflow/internal/feature"
)

// KMeansOptions configures the k-means baseline (Section 2.1.1 discusses why
// k-means is a poor fit for this problem: it needs k in advance and a
// meaningful centroid for binary vectors; it is implemented here exactly to
// demonstrate that).
type KMeansOptions struct {
	// K is the number of clusters; it must be positive.
	K int
	// MaxIter bounds the number of reassignment rounds. Zero means 100; to
	// request literally zero rounds (return the k-means++ seeding
	// assignment untouched), pass any negative value — the same
	// zero-vs-default escape hatch as feature.Config.Tau and
	// terms.Options.MinLength.
	MaxIter int
	// Seed seeds centroid initialization (k-means++-style seeding on the
	// cosine distance).
	Seed int64
}

// KMeans clusters the schemas of sp into opts.K clusters using fractional
// centroids and cosine distance over the binary feature vectors.
func KMeans(sp *feature.Space, opts KMeansOptions) *Result {
	n := sp.NumSchemas()
	if opts.K <= 0 || n == 0 {
		return FromAssignment(make([]int, n))
	}
	k := opts.K
	if k > n {
		k = n
	}
	maxIter := opts.MaxIter
	switch {
	case maxIter == 0:
		maxIter = 100
	case maxIter < 0:
		maxIter = 0
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	dim := sp.Dim()

	points := make([][]float64, n)
	for i := 0; i < n; i++ {
		p := make([]float64, dim)
		for _, j := range sp.Bits(i) {
			p[j] = 1
		}
		points[i] = p
	}

	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	// One reassignment pass; reports whether any point moved.
	assignPass := func() bool {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				d := cosineDistance(p, centroids[c])
				if d < bestD {
					bestD = d
					best = c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		return changed
	}

	// The seeding assignment always runs — MaxIter bounds only the
	// centroid-update rounds, so a literal 0 (negative MaxIter) returns
	// each schema attached to its nearest k-means++ seed.
	assignPass()
	for iter := 0; iter < maxIter; iter++ {
		// Recompute centroids as coordinate means.
		counts := make([]int, k)
		for c := range centroids {
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				centroids[c][j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Empty cluster: reseed from a random point.
				copy(centroids[c], points[rng.Intn(n)])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] *= inv
			}
		}
		if !assignPass() {
			break
		}
	}
	return FromAssignment(assign)
}

// seedPlusPlus picks k initial centroids with k-means++ seeding: the first
// uniformly, subsequent ones with probability proportional to squared
// distance from the nearest chosen centroid.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centroids := make([][]float64, 0, k)
	first := points[rng.Intn(n)]
	centroids = append(centroids, append([]float64(nil), first...))
	dist := make([]float64, n)
	for len(centroids) < k {
		total := 0.0
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := cosineDistance(p, last)
			d *= d
			if len(centroids) == 1 || d < dist[i] {
				dist[i] = d
			}
			total += dist[i]
		}
		pick := 0
		if total > 0 {
			r := rng.Float64() * total
			acc := 0.0
			for i, d := range dist {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(n)
		}
		centroids = append(centroids, append([]float64(nil), points[pick]...))
	}
	return centroids
}

// cosineDistance returns 1 - cosine similarity; two zero vectors are at
// distance 1.
func cosineDistance(a, b []float64) float64 {
	dot, na, nb := 0.0, 0.0, 0.0
	for j := range a {
		dot += a[j] * b[j]
		na += a[j] * a[j]
		nb += b[j] * b[j]
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/(math.Sqrt(na)*math.Sqrt(nb))
}
