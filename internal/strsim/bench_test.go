package strsim

import "testing"

// Term-similarity cost dominates feature construction; these benchmarks pin
// the cost of the LCS on term-sized and long inputs, of the threshold
// verifier beside the full similarity, and of the stemmer.

const (
	termA = "publication"
	termB = "publications"
	longA = "the quick brown fox jumps over the lazy dog again and again and again"
	longB = "a quick brown dog jumps over the lazy foxes again and again and once more"
)

func BenchmarkLCSShort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = LongestCommonSubstring(termA, termB)
	}
}

func BenchmarkLCSLong(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = LongestCommonSubstring(longA, longB)
	}
}

func BenchmarkTSim(b *testing.B) {
	s := LCSSim{}
	for i := 0; i < b.N; i++ {
		_ = s.Sim(termA, termB)
	}
}

func BenchmarkLCSAtLeast(b *testing.B) {
	s := LCSSim{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.AtLeast(termA, termB, 0.8)
	}
}

func BenchmarkPorterStem(b *testing.B) {
	words := []string{"relational", "connections", "publications", "departing", "universities"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Stem(words[i%len(words)])
	}
}
