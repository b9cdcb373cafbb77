package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"schemaflow/internal/schema"
)

// GenerateTuples synthesizes n rows of plausible values for a schema, for
// use as a data-source extension behind the query engine. Values are chosen
// by recognizing common tokens in the attribute name (names, cities, years,
// prices, ...), falling back to deterministic opaque values. The same seed
// reproduces the same extension.
//
// Which pool a column draws from depends on the attribute name alone, so it
// is resolved once per column; a cell is then one draw and one slice read.
// Draws stay row-major — a served row is a function of (schema, n, seed) that
// tests and recorded hashes depend on.
func GenerateTuples(s schema.Schema, n int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	width := len(s.Attributes)
	pools := make([][]string, width)
	for c, attr := range s.Attributes {
		pools[c] = poolFor(attr)
	}
	// One backing slice per source; each row is capped at its own width so
	// an append to one cannot reach the next.
	cells := make([]string, n*width)
	rows := make([][]string, n)
	for r := range rows {
		row := cells[r*width : (r+1)*width : (r+1)*width]
		for c, pool := range pools {
			row[c] = pool[rng.Intn(len(pool))]
		}
		rows[r] = row
	}
	return rows
}

var valuePools = []struct {
	tokens []string
	values []string
}{
	{[]string{"first", "given"}, []string{"Alice", "Bruno", "Chen", "Dalia", "Emil", "Farah", "Goran", "Hana"}},
	{[]string{"last", "family", "surname"}, []string{"Okafor", "Silva", "Tanaka", "Urbano", "Vaszquez", "Weiss", "Xu", "Young"}},
	{[]string{"city", "town", "destination", "departure"}, []string{"Toronto", "Cairo", "Lima", "Oslo", "Perth", "Quito", "Riga", "Seoul"}},
	{[]string{"state", "province", "region"}, []string{"Ontario", "Giza", "Lima", "Viken", "WA", "Pichincha"}},
	{[]string{"year", "vintage"}, []string{"1998", "2003", "2005", "2007", "2008", "2009", "2010"}},
	{[]string{"date", "deadline", "departing", "returning"}, []string{"2010-01-15", "2010-03-02", "2010-04-28", "2010-06-09", "2010-07-21"}},
	{[]string{"make", "manufacturer", "brand"}, []string{"Toyota", "Honda", "Ford", "Fiat", "Volvo", "Mazda"}},
	{[]string{"model"}, []string{"Corolla", "Civic", "Focus", "Punto", "S60", "Miata"}},
	{[]string{"price", "rate", "fee", "salary", "premium", "rent", "cost"}, []string{"120", "450", "899", "1200", "2500", "5400"}},
	{[]string{"email", "mail"}, []string{"a@example.org", "b@example.org", "c@example.org", "d@example.org"}},
	{[]string{"phone", "telephone", "fax"}, []string{"555-0101", "555-0102", "555-0103", "555-0104"}},
	{[]string{"genre", "category", "type", "kind"}, []string{"drama", "comedy", "thriller", "documentary", "animation"}},
	{[]string{"title", "name"}, []string{"Aurora", "Basilisk", "Cascade", "Driftwood", "Ember", "Fjord"}},
	{[]string{"color"}, []string{"red", "blue", "silver", "black", "white"}},
	{[]string{"gender", "sex"}, []string{"female", "male"}},
	{[]string{"airline", "carrier"}, []string{"AirNorth", "SkyWays", "BlueJet", "TransPolar"}},
	{[]string{"class", "level"}, []string{"economy", "business", "first"}},
	{[]string{"airport"}, []string{"YYZ", "CAI", "LIM", "OSL", "PER", "UIO"}},
}

// opaqueValues is the pool of a column no token recognizes: v000 … v999.
var opaqueValues = func() []string {
	vs := make([]string, 1000)
	for i := range vs {
		vs[i] = fmt.Sprintf("v%03d", i)
	}
	return vs
}()

// poolFor returns the values a column named attr draws from: those of the
// first pool one of whose tokens the lower-cased name contains.
func poolFor(attr string) []string {
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
