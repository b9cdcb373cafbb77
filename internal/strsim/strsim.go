// Package strsim provides the string similarity functions the system uses to
// decide whether two terms are "the same" (Section 4.1 of the thesis).
//
// The primary function is the longest-common-substring similarity
//
//	t_sim(t1, t2) = 2·len(LCS(t1, t2)) / (len(t1) + len(t2))
//
// i.e. the length of the longest common substring divided by the average
// length of the two terms. The thesis also suggests stem equality as an
// alternative; both are provided behind the TermSim interface.
package strsim

// TermSim measures the similarity of two terms on a [0, 1] scale, where 1
// means identical. Implementations must be symmetric: Sim(a,b) == Sim(b,a).
type TermSim interface {
	// Sim returns the similarity of a and b in [0, 1].
	Sim(a, b string) float64
	// Name identifies the measure in experiment output.
	Name() string
}

// LCSSim is the thesis' default term similarity: longest common substring
// length divided by the average of the two term lengths. The zero value is
// ready to use.
//
// Lengths are measured in runes. For ASCII terms — the overwhelmingly common
// case after canonicalization — rune and byte semantics coincide and the
// byte-DP fast path is taken; terms containing multi-byte runes (extraction
// keeps Unicode letters, e.g. "unité") fall back to a rune DP so that a
// partial byte match inside one code point never earns credit and lengths
// are not inflated by encoding width.
type LCSSim struct{}

// Sim implements TermSim.
func (LCSSim) Sim(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if isASCII(a) && isASCII(b) {
		l := LongestCommonSubstring(a, b)
		return 2 * float64(l) / float64(len(a)+len(b))
	}
	ra, rb := []rune(a), []rune(b)
	l := longestCommonSubstringRunes(ra, rb)
	return 2 * float64(l) / float64(len(ra)+len(rb))
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// Name implements TermSim.
func (LCSSim) Name() string { return "lcs" }

// ExactSim recognizes two terms as similar only when they are identical.
// Useful as a degenerate baseline for ablations of the fuzzy matcher.
type ExactSim struct{}

// Sim implements TermSim.
func (ExactSim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// Name implements TermSim.
func (ExactSim) Name() string { return "exact" }

// StemSim recognizes two terms as similar if and only if they share the same
// Porter stem — the alternative t_sim suggested at the end of Section 4.1.
type StemSim struct{}

// Sim implements TermSim.
func (StemSim) Sim(a, b string) float64 {
	if a == b || Stem(a) == Stem(b) {
		return 1
	}
	return 0
}

// Name implements TermSim.
func (StemSim) Name() string { return "stem" }

// LongestCommonSubstring returns the length of the longest contiguous
// substring common to a and b. It operates on bytes, which for ASCII input
// coincides with rune semantics; callers comparing terms that may contain
// multi-byte runes should measure in runes instead (LCSSim.Sim does this
// automatically).
//
// The dynamic-programming formulation runs in O(len(a)·len(b)) time and
// O(min) space. For the short terms this system compares (attribute-name
// fragments, typically < 20 bytes) it is faster in practice than the
// suffix-automaton path; use LongestCommonSubstringLinear for long inputs.
func LongestCommonSubstring(a, b string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Keep the inner dimension the smaller string to minimize the DP row.
	if len(b) > len(a) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// longestCommonSubstringRunes is the rune-level analogue of
// LongestCommonSubstring, used by LCSSim when either term is non-ASCII.
func longestCommonSubstringRunes(a, b []rune) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}
