package cluster

import (
	"math"
	"slices"

	"schemaflow/internal/feature"
)

// ModelBased implements a He–Tao–Chang-style (CIKM 2004) model-based
// agglomerative clusterer, the closest prior work the thesis compares its
// design against (Section 2.2). Each cluster is modeled as a multinomial
// distribution over terms; the similarity of two clusters is the p-value of
// a chi-square homogeneity test between their term-count vectors (how
// plausible it is that the attributes of both clusters were drawn from the
// same multinomial). Clustering merges the most similar pair while the best
// p-value is at least alpha.
//
// Unlike the CIKM 2004 system this implementation does not assume anchor
// attributes or a pre-specified cluster count, so it can run on the same
// inputs as Agglomerative for head-to-head comparisons.
func ModelBased(sp *feature.Space, alpha float64) *Result {
	n := sp.NumSchemas()
	if n == 0 {
		return &Result{}
	}
	// Per-cluster term counts over vocabulary indices. Each schema
	// contributes 1 to every term it contains.
	counts := make([]map[int32]int, n)
	totals := make([]int, n)
	for i := 0; i < n; i++ {
		m := make(map[int32]int)
		for t := range sp.TermSets[i] {
			m[int32(sp.VocabIndex[t])]++
		}
		counts[i] = m
		totals[i] = len(m)
	}

	active := make([]bool, n)
	parent := make([]int, n)
	for i := range active {
		active[i] = true
		parent[i] = i
	}
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
	}
	pair := func(i, j int) float64 {
		return chiSquareSimilarity(counts[i], counts[j], totals[i], totals[j])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := pair(i, j)
			sim[i][j] = s
			sim[j][i] = s
		}
	}

	numActive := n
	var merges []Merge
	for numActive > 1 {
		ba, bb, bs := -1, -1, -1.0
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if active[j] && sim[i][j] > bs {
					bs = sim[i][j]
					ba, bb = i, j
				}
			}
		}
		if ba < 0 || bs < alpha {
			break
		}
		merges = append(merges, Merge{A: ba, B: bb, Sim: bs})
		for t, c := range counts[bb] {
			counts[ba][t] += c
		}
		totals[ba] += totals[bb]
		counts[bb] = nil
		active[bb] = false
		parent[bb] = ba
		numActive--
		for c := 0; c < n; c++ {
			if active[c] && c != ba {
				s := pair(c, ba)
				sim[c][ba] = s
				sim[ba][c] = s
			}
		}
	}

	root := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = root(i)
	}
	res := FromAssignment(assign)
	res.Merges = merges
	return res
}

// chiSquareSimilarity returns the p-value of the chi-square homogeneity test
// over the 2×T contingency table of term counts of the two clusters, where T
// is the number of distinct terms appearing in either. Identical
// distributions give p near 1; disjoint vocabularies give p near 0.
func chiSquareSimilarity(a, b map[int32]int, totalA, totalB int) float64 {
	if totalA == 0 || totalB == 0 {
		return 0
	}
	terms := make([]int32, 0, len(a)+len(b))
	for t := range a {
		terms = append(terms, t)
	}
	for t := range b {
		if _, shared := a[t]; !shared {
			terms = append(terms, t)
		}
	}
	if len(terms) < 2 {
		return 1
	}
	// Float addition is not associative: summed in map order, the statistic's
	// last bits — and with them near-tied merges — changed from run to run.
	slices.Sort(terms)
	grand := float64(totalA + totalB)
	fa := float64(totalA) / grand
	fb := float64(totalB) / grand
	x2 := 0.0
	for _, t := range terms {
		col := float64(a[t] + b[t])
		ea := col * fa
		eb := col * fb
		da := float64(a[t]) - ea
		db := float64(b[t]) - eb
		if ea > 0 {
			x2 += da * da / ea
		}
		if eb > 0 {
			x2 += db * db / eb
		}
	}
	df := float64(len(terms) - 1)
	return chiSquareSurvival(x2, df)
}

// chiSquareSurvival returns P(X > x) for X ~ chi-square with df degrees of
// freedom, i.e. the upper regularized incomplete gamma Q(df/2, x/2).
func chiSquareSurvival(x, df float64) float64 {
	if x <= 0 {
		return 1
	}
	return gammaQ(df/2, x/2)
}

// gammaQ is the upper regularized incomplete gamma function Q(a, x) =
// Γ(a,x)/Γ(a), computed by series expansion for x < a+1 and by continued
// fraction otherwise (the classic gser/gcf split).
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinued(a, x)
}

func gammaPSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-14
	)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinued(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-14
		tiny    = 1e-300
	)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
