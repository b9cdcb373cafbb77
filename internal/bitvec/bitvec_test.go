package bitvec

import (
	"math/rand"
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

func TestFromIndices(t *testing.T) {
	v := FromIndices(100, 5, 50, 99)
	want := []int{5, 50, 99}
	got := v.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestAndOrCounts(t *testing.T) {
	a := FromIndices(200, 1, 2, 3, 100, 150)
	b := FromIndices(200, 2, 3, 4, 150, 199)
	if got := a.AndCount(b); got != 3 {
		t.Fatalf("AndCount = %d, want 3", got)
	}
	if got := a.OrCount(b); got != 7 {
		t.Fatalf("OrCount = %d, want 7", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("AndCount with mismatched lengths did not panic")
		}
	}()
	a.AndCount(b)
}

func TestInPlaceOps(t *testing.T) {
	a := FromIndices(70, 1, 2, 3, 69)
	b := FromIndices(70, 2, 3, 4)
	c := a.Clone()
	c.InPlaceAnd(b)
	if got := c.Indices(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("InPlaceAnd → %v, want [2 3]", got)
	}
	d := a.Clone()
	d.InPlaceOr(b)
	if d.Count() != 5 {
		t.Fatalf("InPlaceOr count = %d, want 5", d.Count())
	}
	// a must be unchanged by operations on its clones.
	if !a.Equal(FromIndices(70, 1, 2, 3, 69)) {
		t.Fatal("Clone ops mutated the original")
	}
}

func TestCopyFrom(t *testing.T) {
	a := FromIndices(70, 1, 69)
	b := New(70)
	b.Set(5)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom did not copy")
	}
	b.Set(10)
	if a.Get(10) {
		t.Fatal("CopyFrom aliased the source")
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(64, 1)
	if a.Equal(FromIndices(65, 1)) {
		t.Fatal("vectors of different length reported equal")
	}
	if !a.Equal(FromIndices(64, 1)) {
		t.Fatal("equal vectors reported unequal")
	}
}

func TestString(t *testing.T) {
	v := FromIndices(4, 0, 2)
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
		return v.Count() == len(v.Indices())
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
		return a.Count()+b.Count() == a.AndCount(b)+a.OrCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeMorganViaCounts(t *testing.T) {
	// InPlace ops agree with the counting ops.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, b := randomVec(n, rng), randomVec(n, rng)
		and := a.Clone()
		and.InPlaceAnd(b)
		or := a.Clone()
		or.InPlaceOr(b)
		return and.Count() == a.AndCount(b) && or.Count() == a.OrCount(b)
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
	want := v.Indices()
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
