package strsim

import "testing"

// Term-similarity cost dominates feature construction; these benchmarks pin
// the relative cost of the DP and suffix-automaton LCS paths on term-sized
// and long inputs, and of the stemmer.

const (
	termA = "publication"
	termB = "publications"
	longA = "the quick brown fox jumps over the lazy dog again and again and again"
	longB = "a quick brown dog jumps over the lazy foxes again and again and once more"
)

func BenchmarkLCSDynamicShort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = LongestCommonSubstring(termA, termB)
	}
}

func BenchmarkLCSAutomatonShort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = LongestCommonSubstringLinear(termA, termB)
	}
}

func BenchmarkLCSDynamicLong(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = LongestCommonSubstring(longA, longB)
	}
}

func BenchmarkLCSAutomatonLong(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = LongestCommonSubstringLinear(longA, longB)
	}
}

func BenchmarkLCSAutomatonReused(b *testing.B) {
	sa := NewSuffixAutomaton(longA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sa.LongestCommonWith(longB)
	}
}

func BenchmarkTSim(b *testing.B) {
	s := LCSSim{}
	for i := 0; i < b.N; i++ {
		_ = s.Sim(termA, termB)
	}
}

func BenchmarkPorterStem(b *testing.B) {
	words := []string{"relational", "connections", "publications", "departing", "universities"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Stem(words[i%len(words)])
	}
}
