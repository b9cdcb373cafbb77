package bitvec

import (
	"math/rand"
	"testing"
)

func benchPair(n int) (*Vector, *Vector) {
	rng := rand.New(rand.NewSource(1))
	a, b := New(n), New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(10) < 3 {
			a.Set(i)
		}
		if rng.Intn(10) < 3 {
			b.Set(i)
		}
	}
	return a, b
}

func BenchmarkAndCount16k(b *testing.B) {
	x, y := benchPair(16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.AndCount(y)
	}
}

func BenchmarkIndices(b *testing.B) {
	x, _ := benchPair(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Indices()
	}
}
