package dataset

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"schemaflow/internal/schema"
)

// tuplesDigest hashes every cell GenerateTuples produces for a set, n rows
// per schema, seeded with the schema's index (payg-server seeds with the
// FNV-1a hash of the name; any rule that varies the seed will do here).
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

// TestGenerateTuplesDigests holds GenerateTuples to the bytes it produces:
// the PCG stream seeded with (seed, 0), the row-major draw order and the
// values of each column's pool. Both digests were recorded from the PCG; they
// moved from e28e683e… (large-6000) and 921e1f37… (pooled) when the cells
// stopped being drawn from math/rand's lagged-Fibonacci source, whose
// 607-word seeding was most of a source's cost.
func TestGenerateTuplesDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  schema.Set
		n    int
		want string
	}{
		{"large-6000", Large(LargeConfig{N: 6000, Domains: 120, Seed: 1}), 20, "b1fdb8a75d60657e160d84d62ee3f0fbc2cded300a167fcc35ee71e3e10c851f"},
		{"pooled", pooledSet(), 50, "a353e49ca7feb5197012046477033aeb87983fa0d0d51277f40841d45900aaae"},
	} {
		if got := tuplesDigest(tc.set, tc.n); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// definitionPool is poolFor as the package states it: the values of the
// first pool, in valuePools order, one of whose tokens the lower-cased name
// contains; the opaque values when there is none.
func definitionPool(attr string) []string {
	low := strings.ToLower(attr)
	for _, pool := range valuePools {
		for _, tok := range pool.tokens {
			if strings.Contains(low, tok) {
				return pool.values
			}
		}
	}
	return opaqueValues
}

// TestPoolForIsTheDefinition holds poolFor's one-pass token scan to
// definitionPool on names glued from tokens, token fragments, separators,
// upper case and non-ASCII letters (the Kelvin sign lower-cases to "k").
func TestPoolForIsTheDefinition(t *testing.T) {
	var parts []string
	for _, pool := range valuePools {
		for _, tok := range pool.tokens {
			parts = append(parts, tok, strings.ToUpper(tok), tok[:len(tok)/2], tok[len(tok)/2:])
		}
	}
	parts = append(parts, " ", "-", "_", "x", "É", "\u212aind", "ÉTAT", "ß")
	rng := rand.New(rand.NewSource(53))
	for n := 0; n < 20000; n++ {
		var b strings.Builder
		for k := rng.Intn(5); k >= 0; k-- {
			b.WriteString(parts[rng.Intn(len(parts))])
		}
		name := b.String()
		if got, want := poolFor(name), definitionPool(name); &got[0] != &want[0] {
			t.Fatalf("poolFor(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestGenerateTuplesIsTheDefinition states GenerateTuples without its
// generator's bytes: n rows, each exactly as wide (and as capacious) as the
// schema, every cell of column c a value of poolFor(attribute c); the same
// (schema, n, seed) gives the same rows and another seed other rows; over
// 200 rows a gender column shows both of its values.
func TestGenerateTuplesIsTheDefinition(t *testing.T) {
	set := append(pooledSet(), Large(LargeConfig{N: 200, Domains: 10, Seed: 2})...)
	seeds := []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64}
	for _, s := range set {
		for _, seed := range seeds {
			rows := GenerateTuples(s, 30, seed)
			if len(rows) != 30 {
				t.Fatalf("%s seed %d: %d rows, want 30", s.Name, seed, len(rows))
			}
			for r, row := range rows {
				if len(row) != len(s.Attributes) || cap(row) != len(s.Attributes) {
					t.Fatalf("%s seed %d row %d: len %d cap %d, want %d", s.Name, seed, r, len(row), cap(row), len(s.Attributes))
				}
				for c, v := range row {
					if !slices.Contains(definitionPool(s.Attributes[c]), v) {
						t.Fatalf("%s seed %d row %d: %q is not a value of column %q", s.Name, seed, r, v, s.Attributes[c])
					}
				}
			}
			if again := GenerateTuples(s, 30, seed); !reflect.DeepEqual(again, rows) {
				t.Fatalf("%s seed %d: a second call gave other rows", s.Name, seed)
			}
		}
	}
	for _, s := range pooledSet()[:4] {
		for i, seed := range seeds[1:] {
			if reflect.DeepEqual(GenerateTuples(s, 30, seeds[i]), GenerateTuples(s, 30, seed)) {
				t.Errorf("%s: seeds %d and %d give the same rows", s.Name, seeds[i], seed)
			}
		}
	}
	if rows := GenerateTuples(schema.Schema{Name: "none"}, 3, 1); len(rows) != 3 || len(rows[0]) != 0 {
		t.Errorf("schema without attributes: %q, want three empty rows", rows)
	}
	if rows := GenerateTuples(pooledSet()[0], 0, 1); len(rows) != 0 {
		t.Errorf("n = 0: %d rows", len(rows))
	}
	g := schema.Schema{Name: "p", Attributes: []string{"name", "Gender"}}
	for _, seed := range seeds {
		seen := map[string]bool{}
		for _, row := range GenerateTuples(g, 200, seed) {
			seen[row[1]] = true
		}
		if !seen["female"] || !seen["male"] || len(seen) != 2 {
			t.Errorf("seed %d: gender values over 200 rows %v, want female and male", seed, seen)
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
