package strsim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLongestCommonSubstring(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"abc", "abc", 3},
		{"professor", "professors", 9},
		{"departure", "departing", 6}, // "depart"
		{"abcdef", "zabcy", 3},        // "abc"
		{"xyz", "abc", 0},
		{"aaa", "aa", 2},
		{"banana", "ananas", 5}, // "anana"
	}
	for _, tc := range tests {
		if got := LongestCommonSubstring(tc.a, tc.b); got != tc.want {
			t.Errorf("LCS(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLCSSim(t *testing.T) {
	s := LCSSim{}
	if got := s.Sim("title", "title"); got != 1 {
		t.Fatalf("identical terms: %v", got)
	}
	// 2·6/(9+9) = 0.666...
	got := s.Sim("departure", "departing")
	if got < 0.66 || got > 0.67 {
		t.Fatalf("Sim(departure,departing) = %v", got)
	}
	if got := s.Sim("", ""); got != 1 {
		t.Fatalf("two empty terms: %v", got)
	}
	if got := s.Sim("abc", ""); got != 0 {
		t.Fatalf("one empty term: %v", got)
	}
}

func TestLCSSimRuneSemantics(t *testing.T) {
	s := LCSSim{}
	// "unité" vs "unite": common rune substring "unit" (4 runes), both
	// terms 5 runes → 2·4/10 = 0.8. A byte scan would count "unité" as 6
	// bytes and return 8/11 ≈ 0.727 — under the thesis' τ = 0.8 gate that
	// is the difference between matching and not.
	if got := s.Sim("unité", "unite"); got != 0.8 {
		t.Fatalf("Sim(unité, unite) = %v, want 0.8", got)
	}
	// "é" (C3 A9) and "è" (C3 A8) share a lead byte but no rune: byte
	// comparison would award 2·1/4 = 0.5 for code-point fragments.
	if got := s.Sim("é", "è"); got != 0 {
		t.Fatalf("Sim(é, è) = %v, want 0 (no common rune)", got)
	}
	if got := s.Sim("prix", "prix"); got != 1 {
		t.Fatalf("ASCII fast path broke identity: %v", got)
	}
	if got := s.Sim("unité", "unité"); got != 1 {
		t.Fatalf("identical non-ASCII terms: %v", got)
	}
	// Symmetry must hold across the mixed ASCII/non-ASCII boundary.
	if a, b := s.Sim("unité", "units"), s.Sim("units", "unité"); a != b {
		t.Fatalf("asymmetric across encodings: %v vs %v", a, b)
	}
}

func TestLCSSimThesisThreshold(t *testing.T) {
	// The τ=0.8 gate should match close rephrasings and reject unrelated
	// terms; these pairs pin the intended behavior of the default matcher.
	match := func(a, b string) bool { return LCSSim{}.Sim(a, b) >= 0.8 }
	matches := [][2]string{
		{"professor", "professors"},
		{"author", "authors"},
		{"color", "colors"},
	}
	rejects := [][2]string{
		{"departure", "destination"},
		{"make", "model"},
		{"name", "game"},
	}
	for _, p := range matches {
		if !match(p[0], p[1]) {
			t.Errorf("expected %q ~ %q at 0.8", p[0], p[1])
		}
	}
	for _, p := range rejects {
		if match(p[0], p[1]) {
			t.Errorf("did not expect %q ~ %q at 0.8", p[0], p[1])
		}
	}
}

func TestExactAndStemSims(t *testing.T) {
	if (ExactSim{}).Sim("cat", "cat") != 1 || (ExactSim{}).Sim("cat", "cats") != 0 {
		t.Fatal("ExactSim misbehaves")
	}
	st := StemSim{}
	if st.Sim("connection", "connections") != 1 {
		t.Fatal("StemSim should match plural")
	}
	if st.Sim("university", "banana") != 0 {
		t.Fatal("StemSim matched unrelated words")
	}
}

// lcsByDefinition enumerates every substring of a and returns the length of
// the longest one that occurs in b — the definition, with no scan to share a
// bug with.
func lcsByDefinition(a, b string) int {
	best := 0
	for i := 0; i < len(a); i++ {
		for j := i + best + 1; j <= len(a); j++ {
			if !strings.Contains(b, a[i:j]) {
				break
			}
			best = j - i
		}
	}
	return best
}

func TestPropertyLCSMatchesDefinition(t *testing.T) {
	const alphabet = "abcde"
	gen := func(rng *rand.Rand) string {
		n := rng.Intn(15)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		return LongestCommonSubstring(a, b) == lcsByDefinition(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLCSBounds(t *testing.T) {
	f := func(a, b string) bool {
		l := LongestCommonSubstring(a, b)
		min := len(a)
		if len(b) < min {
			min = len(b)
		}
		return l >= 0 && l <= min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySimSymmetricAndBounded(t *testing.T) {
	measures := []TermSim{LCSSim{}, ExactSim{}, StemSim{}, LCSeqSim{}}
	f := func(a, b string) bool {
		for _, m := range measures {
			s1, s2 := m.Sim(a, b), m.Sim(b, a)
			if s1 != s2 || s1 < -1e-12 || s1 > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyIdentityGivesOne(t *testing.T) {
	measures := []TermSim{LCSSim{}, ExactSim{}, StemSim{}, LCSeqSim{}}
	f := func(a string) bool {
		for _, m := range measures {
			if m.Sim(a, a) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureNames(t *testing.T) {
	named := map[string]TermSim{
		"lcs":           LCSSim{},
		"exact":         ExactSim{},
		"stem":          StemSim{},
		"lcsubsequence": LCSeqSim{},
	}
	for want, m := range named {
		if m.Name() != want {
			t.Errorf("%T.Name() = %q, want %q", m, m.Name(), want)
		}
	}
}
