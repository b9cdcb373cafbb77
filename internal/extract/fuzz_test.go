package extract

import (
	"strings"
	"testing"
)

// Fuzz targets for the hand-written parsers. `go test` runs the seed corpus;
// `go test -fuzz=FuzzTokenizeHTML ./internal/extract` explores further. The
// invariant under fuzzing is totality: no panic, no hang, and extractor
// outputs that are structurally valid whatever the input.

func FuzzTokenizeHTML(f *testing.F) {
	seeds := []string{
		"",
		"<p>hello</p>",
		"<form><input name=a></form>",
		"<!-- comment --><!DOCTYPE html>",
		"<a href=\"x\" b='y' c=z disabled>",
		"<script>if (a<b) {}</script>",
		"< not a tag",
		"</",
		"<input name=\"unterminated",
		"<table><tr><th>A</th></tr></table>",
		"&amp;&lt;&bogus;",
		strings.Repeat("<div attr=v>", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		tokens := tokenizeHTML(input)
		for _, tok := range tokens {
			if tok.typ == startTagToken || tok.typ == endTagToken || tok.typ == selfClosingToken {
				if tok.data == "" {
					t.Fatalf("tag token with empty name from %q", input)
				}
				if tok.data != strings.ToLower(tok.data) {
					t.Fatalf("tag name %q not lower-cased", tok.data)
				}
			}
		}
		// The extractors must also be total.
		if _, err := Forms(strings.NewReader(input), "fuzz"); err != nil {
			t.Fatalf("Forms errored on tokenizable input: %v", err)
		}
		if _, err := Tables(strings.NewReader(input), "fuzz"); err != nil {
			t.Fatalf("Tables errored: %v", err)
		}
	})
}

func FuzzParseTriple(f *testing.F) {
	seeds := []string{
		`<http://a> <http://b> <http://c> .`,
		`<http://a> <http://b> "lit" .`,
		`<http://a> <http://b> "l\"it"@en .`,
		`_:b <http://p> "x"^^<http://t> .`,
		`broken`,
		`<unclosed <p> <o> .`,
		`"starts with literal" <p> <o> .`,
		``,
		`"" "" "" .`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		subj, pred, obj, ok := parseTriple(line)
		if ok && (pred == "") {
			t.Fatalf("accepted triple with empty predicate from %q (%q %q %q)", line, subj, pred, obj)
		}
	})
}

func FuzzSpreadsheet(f *testing.F) {
	seeds := []string{
		"a,b,c\n1,2,3\n",
		"title row,,\nname,grade\n",
		"a\tb\tc\n",
		"\"quoted,comma\",b\n",
		"", "\n\n\n", "1,2\n3,4\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		set, err := Spreadsheet(strings.NewReader(input), "fuzz")
		if err != nil {
			return // malformed CSV is a legitimate error, not a crash
		}
		for _, s := range set {
			if len(s.Attributes) < 2 {
				t.Fatalf("header with <2 attributes accepted: %v", s)
			}
		}
	})
}

func FuzzHumanizeName(f *testing.F) {
	for _, s := range []string{"departure_city", "aB", "[x]", "ALLCAPS", "ü_mlaut"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		out := humanizeName(input)
		if strings.Contains(out, "_") || strings.Contains(out, "[") {
			t.Fatalf("humanizeName(%q) = %q kept separators", input, out)
		}
		if out != strings.ToLower(out) {
			t.Fatalf("humanizeName(%q) = %q not lower-cased", input, out)
		}
	})
}
