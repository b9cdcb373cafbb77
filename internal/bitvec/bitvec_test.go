package bitvec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	v := New(0)
	if v.Len() != 0 || v.Count() != 0 {
		t.Fatalf("empty vector: len=%d count=%d", v.Len(), v.Count())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := v.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	v.Clear(64)
	if v.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := v.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestSetIdempotent(t *testing.T) {
	v := New(10)
	v.Set(3)
	v.Set(3)
	if v.Count() != 1 {
		t.Fatalf("Count = %d after double Set, want 1", v.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(64)
	for name, f := range map[string]func(){
		"Get(64)":  func() { v.Get(64) },
		"Set(-1)":  func() { v.Set(-1) },
		"Clear(n)": func() { v.Clear(64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// and, or and not return a fresh vector holding a∩b, a∪b and the complement
// of a, leaving their arguments as they were.
func and(a, b *Vector) *Vector { c := a.Clone(); c.InPlaceAnd(b); return c }
func or(a, b *Vector) *Vector  { c := a.Clone(); c.InPlaceOr(b); return c }
func not(a *Vector) *Vector {
	c := New(a.Len())
	for i := range a.Len() {
		if !a.Get(i) {
			c.Set(i)
		}
	}
	return c
}

// TestAndOrCounts counts an intersection and a union over vectors spanning
// four words, the way the cluster oracles count a Jaccard coefficient.
func TestAndOrCounts(t *testing.T) {
	a := withBits(200, 1, 2, 3, 100, 150)
	b := withBits(200, 2, 3, 4, 150, 199)
	if got := and(a, b).Count(); got != 3 {
		t.Fatalf("|a∩b| = %d, want 3", got)
	}
	if got := or(a, b).Count(); got != 7 {
		t.Fatalf("|a∪b| = %d, want 7", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("InPlaceAnd with mismatched lengths did not panic")
		}
	}()
	a.InPlaceAnd(b)
}

// withBits returns a vector of n bits with the given positions set.
func withBits(n int, bits ...int) *Vector {
	v := New(n)
	for _, i := range bits {
		v.Set(i)
	}
	return v
}

func TestInPlaceOps(t *testing.T) {
	a := withBits(70, 1, 2, 3, 69)
	b := withBits(70, 2, 3, 4)
	c := a.Clone()
	c.InPlaceAnd(b)
	if got := c.IndicesAppend(nil); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("InPlaceAnd → %v, want [2 3]", got)
	}
	d := a.Clone()
	d.InPlaceOr(b)
	if got := d.IndicesAppend(nil); !slices.Equal(got, []int{1, 2, 3, 4, 69}) {
		t.Fatalf("InPlaceOr → %v, want [1 2 3 4 69]", got)
	}
	// a must be unchanged by operations on its clones.
	if got := a.IndicesAppend(nil); !slices.Equal(got, []int{1, 2, 3, 69}) {
		t.Fatalf("Clone ops mutated the original: %v", got)
	}
}

func TestCopyFrom(t *testing.T) {
	a := withBits(70, 1, 69)
	b := New(70)
	b.Set(5)
	b.CopyFrom(a)
	if got := b.IndicesAppend(nil); !slices.Equal(got, []int{1, 69}) {
		t.Fatalf("CopyFrom → %v, want [1 69]", got)
	}
	b.Set(10)
	if a.Get(10) {
		t.Fatal("CopyFrom aliased the source")
	}
}

func TestString(t *testing.T) {
	v := withBits(4, 0, 2)
	if got := v.String(); got != "1010" {
		t.Fatalf("String = %q, want 1010", got)
	}
}

// randomVec builds a reproducible random vector for property tests.
func randomVec(n int, rng *rand.Rand) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

func TestPropertyCountMatchesIndices(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVec(1+rng.Intn(300), rng)
		return v.Count() == len(v.IndicesAppend(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInclusionExclusion(t *testing.T) {
	// |a| + |b| == |a∩b| + |a∪b|
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, b := randomVec(n, rng), randomVec(n, rng)
		return a.Count()+b.Count() == and(a, b).Count()+or(a, b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeMorganViaCounts(t *testing.T) {
	// ¬(a∪b) == ¬a∩¬b and ¬(a∩b) == ¬a∪¬b, bit for bit; and by count,
	// n − |a∪b| == |¬a∩¬b|, so no operation sets a bit past the length.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, b := randomVec(n, rng), randomVec(n, rng)
		nor, nand := and(not(a), not(b)), or(not(a), not(b))
		return slices.Equal(not(or(a, b)).IndicesAppend(nil), nor.IndicesAppend(nil)) &&
			slices.Equal(not(and(a, b)).IndicesAppend(nil), nand.IndicesAppend(nil)) &&
			n-or(a, b).Count() == nor.Count() && n-and(a, b).Count() == nand.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndicesAppend32(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 63, 64, 127, 199} {
		v.Set(i)
	}
	got := v.IndicesAppend32(nil)
	want := v.IndicesAppend(nil)
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if int(got[i]) != want[i] {
			t.Errorf("index %d: got %d, want %d", i, got[i], want[i])
		}
	}
	// Appending keeps the prefix intact.
	pre := v.IndicesAppend32([]int32{-1, -2})
	if pre[0] != -1 || pre[1] != -2 || len(pre) != 2+len(want) {
		t.Errorf("append to non-empty dst corrupted prefix: %v", pre)
	}
}
