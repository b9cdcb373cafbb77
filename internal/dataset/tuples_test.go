package dataset

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"schemaflow/internal/schema"
)

// tuplesDigest hashes every cell GenerateTuples produces for a set, n rows
// per schema, seeded with the schema's index — how payg-server seeded its
// sources when the digests below were recorded.
func tuplesDigest(set schema.Set, n int) string {
	h := sha256.New()
	for i, s := range set {
		for _, row := range GenerateTuples(s, n, int64(i)) {
			for _, v := range row {
				fmt.Fprintf(h, "%s\x00", v)
			}
			fmt.Fprint(h, "\n")
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pooledSet names every value pool at least once, in mixed case, with a name
// that matches two pools (the earlier pool wins), one that matches none, and
// a schema with no attributes.
func pooledSet() schema.Set {
	return schema.Set{
		{Name: "people", Attributes: []string{"first name", "Given Name", "surname", "e-mail", "Telephone", "gender", "salary"}},
		{Name: "places", Attributes: []string{"city", "home town", "province", "ÉTAT region", "airport code", "departure", "destination"}},
		{Name: "cars", Attributes: []string{"make", "model", "MODEL year", "price", "color", "weird thing", "price"}},
		{Name: "media", Attributes: []string{"title", "genre", "release date", "vintage", "class", "carrier", "x"}},
		{Name: "empty"},
	}
}

// TestGenerateTuplesDigests holds GenerateTuples to the bytes it produced
// before a column's pool was resolved once per schema: same math/rand stream,
// same row-major draw order, same values. Both digests were recorded from the
// per-cell implementation.
func TestGenerateTuplesDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  schema.Set
		n    int
		want string
	}{
		{"large-6000", Large(LargeConfig{N: 6000, Domains: 120, Seed: 1}), 20, "e28e683e7dba983a86398c88656a7a2bb4c8d49581d06c34f70d671cad364177"},
		{"pooled", pooledSet(), 50, "921e1f3756b7aeee934f1307148b966a662179703fcb128b94cd4fb3bf53070d"},
	} {
		if got := tuplesDigest(tc.set, tc.n); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestGenerateTuplesRowsAreIndependent: rows are carved from one backing
// slice per source, so appending to one must not reach the next.
func TestGenerateTuplesRowsAreIndependent(t *testing.T) {
	s := schema.Schema{Name: "x", Attributes: []string{"city", "price"}}
	rows := GenerateTuples(s, 3, 7)
	want := rows[1][0]
	_ = append(rows[0], "spill")
	if rows[1][0] != want {
		t.Fatalf("append to row 0 overwrote row 1: %q, want %q", rows[1][0], want)
	}
}

// BenchmarkGenerateTuples is payg-server's source attachment over the gated
// wide corpus: 6,000 schemas, 20 rows each, one rand source per schema.
func BenchmarkGenerateTuples(b *testing.B) {
	set := Large(LargeConfig{N: 6000, Domains: 120, Seed: 1})
	cells := 0
	for _, s := range set {
		cells += 20 * len(s.Attributes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, s := range set {
			if rows := GenerateTuples(s, 20, int64(i)); len(rows) != 20 {
				b.Fatalf("schema %d: %d rows", i, len(rows))
			}
		}
	}
	b.ReportMetric(float64(cells), "cells/op")
}
