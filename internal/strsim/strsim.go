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

import (
	"math"
	"unicode/utf8"
)

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
// Lengths and the common substring are measured in runes — for ASCII terms,
// the overwhelmingly common case after canonicalization, that is bytes — so
// that a partial byte match inside one code point never earns credit and
// lengths are not inflated by encoding width (extraction keeps Unicode
// letters, e.g. "unité").
type LCSSim struct{}

// Sim implements TermSim.
func (LCSSim) Sim(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	ra, rb := []rune(a), []rune(b)
	return 2 * float64(commonRun(ra, rb, 0, math.MaxInt)) / float64(len(ra)+len(rb))
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

// LongestCommonSubstring returns the length, in runes, of the longest
// contiguous substring common to a and b.
func LongestCommonSubstring(a, b string) int {
	return commonRun([]rune(a), []rune(b), 0, math.MaxInt)
}

// Need returns the fewest common-substring runes at which two non-empty
// terms whose rune lengths sum to n reach Sim ≥ tau: the least l with
// 2·float64(l)/float64(n) ≥ tau, the expression Sim itself evaluates, so
// Sim(a,b) ≥ tau iff Shares(a, b, Need(|a|+|b|, tau)) with no rounding gap.
// A result above n/2 means no such pair can match.
func (LCSSim) Need(n int, tau float64) int {
	if !(tau <= 1) { // also NaN: Sim ≥ NaN is false
		return n + 1
	}
	if tau <= 0 {
		return 0
	}
	l := int(math.Ceil(tau * float64(n) / 2))
	for l > 0 && 2*float64(l-1)/float64(n) >= tau {
		l--
	}
	for 2*float64(l)/float64(n) < tau {
		l++
	}
	return l
}

// Shares reports whether a and b have a common substring of at least l
// runes. It stops at the first run of l and never reads a stretch too short
// to hold one, so it costs a fraction of the full LCS.
func (LCSSim) Shares(a, b string, l int) bool {
	return l <= 0 || commonRun([]rune(a), []rune(b), l-1, l) >= l
}

// AtLeast reports Sim(a, b) ≥ tau without computing the similarity.
func (s LCSSim) AtLeast(a, b string, tau float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return s.Sim(a, b) >= tau // 1 or 0, nothing to scan
	}
	return s.Shares(a, b, s.Need(utf8.RuneCountInString(a)+utf8.RuneCountInString(b), tau))
}

// commonRun returns the length of the longest common substring of a and b
// if it exceeds best, else best; it returns early with the first run of
// stop or more. A common substring is a run of equal runes along one
// diagonal of the comparison grid, so diagonals — and tails of diagonals —
// too short to beat best are never read. Callers convert with []rune(s),
// which stays on the stack for terms of up to 32 runes.
func commonRun(a, b []rune, best, stop int) int {
	for d := 1 - len(b); d < len(a); d++ { // diagonal d pairs a[i] with b[i-d]
		i, j := max(d, 0), max(-d, 0)
		n := min(len(a)-i, len(b)-j)
		run := 0
		for k := 0; k < n && run+n-k > best; k++ {
			if a[i+k] != b[j+k] {
				run = 0
			} else if run++; run > best {
				if best = run; best >= stop {
					return best
				}
			}
		}
	}
	return best
}
