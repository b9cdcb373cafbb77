package strsim

import (
	"math"
	"math/rand"
	"testing"
)

// thresholdTaus are the thresholds the verifier is checked at: the thesis'
// 0.8, the boundary values, rationals that 2·l/n hits exactly (where a
// rounding gap between Need and Sim would show), and out-of-range values.
var thresholdTaus = []float64{-1, 0, 1e-9, 1.0 / 3, 0.34, 0.5, 2.0 / 3, 0.8, 0.95, 1, 1.5, math.Inf(1), math.NaN()}

func checkAtLeast(t *testing.T, a, b string, tau float64) {
	t.Helper()
	s := LCSSim{}
	if got, want := s.AtLeast(a, b, tau), s.Sim(a, b) >= tau; got != want {
		t.Fatalf("AtLeast(%q, %q, %v) = %v, Sim = %v", a, b, tau, got, s.Sim(a, b))
	}
}

// TestNeedIsExact pins the fact the matcher's filters rest on: Need(n, τ) is
// the least l whose similarity, in Sim's own arithmetic, reaches τ.
func TestNeedIsExact(t *testing.T) {
	s := LCSSim{}
	for n := 2; n <= 80; n++ {
		for _, tau := range thresholdTaus {
			need := s.Need(n, tau)
			for l := 0; l <= n/2; l++ {
				if got, want := l >= need, 2*float64(l)/float64(n) >= tau; got != want {
					t.Fatalf("n=%d τ=%v: Need = %d, but l=%d gives sim %v", n, tau, need, l, 2*float64(l)/float64(n))
				}
			}
		}
	}
}

// TestAtLeastMatchesSim covers the cases a random draw rarely lands on:
// empty terms, identical terms, pairs that sit exactly on τ, and pairs where
// byte and rune semantics disagree.
func TestAtLeastMatchesSim(t *testing.T) {
	terms := []string{
		"", "a", "ab", "title", "titles", "subtitle", "unité", "unite", "unités",
		"é", "è", "éé", "departure", "departing", "日本語", "日本", "a\xffb", "a\xfeb", "\xff",
	}
	for _, a := range terms {
		for _, b := range terms {
			for _, tau := range thresholdTaus {
				checkAtLeast(t, a, b, tau)
			}
		}
	}
}

func TestPropertyAtLeastMatchesSim(t *testing.T) {
	alphabet := []rune("aabcé")
	rng := rand.New(rand.NewSource(1))
	gen := func() string {
		r := make([]rune, rng.Intn(12))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	for i := 0; i < 5000; i++ {
		checkAtLeast(t, gen(), gen(), thresholdTaus[rng.Intn(len(thresholdTaus))])
	}
}

// FuzzLCSAtLeast: the threshold verifier answers exactly as Sim(a,b) ≥ τ on
// arbitrary byte strings — invalid UTF-8 included, where []rune conversion
// maps every bad byte to U+FFFD — and at any τ.
func FuzzLCSAtLeast(f *testing.F) {
	f.Add("unité", "unite", 0.8)
	f.Add("a\xffb", "a\xfeb", 0.5)
	f.Add("", "", 1.0)
	f.Add("éécaaac", "caabc", 0.5)
	f.Fuzz(func(t *testing.T, a, b string, tau float64) {
		checkAtLeast(t, a, b, tau)
	})
}
