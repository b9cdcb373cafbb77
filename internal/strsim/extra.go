package strsim

// Additional metrics from the name-matching literature the thesis cites
// (Cohen, Ravikumar & Fienberg 2003): longest common *subsequence*
// similarity and the Monge-Elkan combinator for multi-token attribute names.

// LCSeqSim is similarity by longest common subsequence (non-contiguous, in
// contrast to the thesis' contiguous-substring t_sim):
// 2·lcs(a,b) / (len(a)+len(b)).
type LCSeqSim struct{}

// Sim implements TermSim.
func (LCSeqSim) Sim(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return 2 * float64(LongestCommonSubsequence(a, b)) / float64(len(a)+len(b))
}

// Name implements TermSim.
func (LCSeqSim) Name() string { return "lcsubsequence" }

// LongestCommonSubsequence returns the length of the longest (possibly
// non-contiguous) subsequence common to a and b, in O(len(a)·len(b)) time
// and O(min) space.
func LongestCommonSubsequence(a, b string) int {
	if len(b) > len(a) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return prev[len(b)]
}

// MongeElkan scores two token lists with the Monge-Elkan combinator: for
// each token of a, the best inner similarity against any token of b,
// averaged. It is asymmetric by definition; MongeElkanSym averages both
// directions. Widely used for multi-word attribute names ("year of publish"
// vs "publication year").
func MongeElkan(a, b []string, inner TermSim) float64 {
	if len(a) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range a {
		best := 0.0
		for _, y := range b {
			if s := inner.Sim(x, y); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(a))
}

// MongeElkanSym is the symmetrized Monge-Elkan score.
func MongeElkanSym(a, b []string, inner TermSim) float64 {
	return (MongeElkan(a, b, inner) + MongeElkan(b, a, inner)) / 2
}
