// Package bitvec provides dense, fixed-length bit vectors with in-place set
// algebra and a popcount. Feature vectors in this system are binary and
// high-dimensional (one bit per vocabulary term); a schema's is kept as its
// set-bit list, and a dense vector is what a query is embedded into, what
// Total Jaccard keeps per cluster (the AND and OR of its members), and the
// scratch a set-bit list is gathered on.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty vector of
// length 0; use New to create a vector of a given length.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1. It panics if i is out of range.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0. It panics if i is out of range.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Zero clears every bit, leaving the length unchanged.
func (v *Vector) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	c := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// InPlaceAnd sets v to v ∩ u. It panics if the lengths differ.
func (v *Vector) InPlaceAnd(u *Vector) {
	v.checkLen(u)
	for i := range v.words {
		v.words[i] &= u.words[i]
	}
}

// InPlaceOr sets v to v ∪ u. It panics if the lengths differ.
func (v *Vector) InPlaceOr(u *Vector) {
	v.checkLen(u)
	for i := range v.words {
		v.words[i] |= u.words[i]
	}
}

// CopyFrom overwrites v's bits with u's. It panics if the lengths differ.
func (v *Vector) CopyFrom(u *Vector) {
	v.checkLen(u)
	copy(v.words, u.words)
}

func (v *Vector) checkLen(u *Vector) {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, u.n))
	}
}

// IndicesAppend appends the positions of all set bits, in increasing order,
// to dst and returns the extended slice.
func (v *Vector) IndicesAppend(dst []int) []int {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// IndicesAppend32 is IndicesAppend producing int32 positions. The feature
// space keeps a set-bit list for every schema at once, so the narrower
// element type halves its footprint at 100k+ schemas. Bit positions above MaxInt32 are unreachable in practice
// (vocabulary sizes are far smaller); the conversion is unchecked.
func (v *Vector) IndicesAppend32(dst []int32) []int32 {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, int32(wi*wordBits+b))
			w &= w - 1
		}
	}
	return dst
}

// String renders the vector as a 0/1 string, bit 0 first. Intended for tests
// and debugging of small vectors.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
