package terms

import (
	"testing"
	"unicode"
)

func FuzzFromAttribute(f *testing.F) {
	seeds := []string{
		"Day/Time", "MaxNumberOfStudents", "first_name", "e-mail",
		"departing (mm/dd/yy)", "", "///", "ALLCAPS", "ünïcøde term",
		"a b c d e f g", "number of the students",
		"AAϔ", // U+03D4 is upper case and has no lower-case form
	}
	for _, s := range seeds {
		f.Add(s)
	}
	opts := DefaultOptions()
	f.Fuzz(func(t *testing.T, name string) {
		for _, term := range FromAttribute(name, opts) {
			if term == "" {
				t.Fatalf("empty term from %q", name)
			}
			if len([]rune(term)) < opts.MinLength {
				t.Fatalf("short term %q from %q", term, name)
			}
			for _, r := range term {
				if unicode.ToLower(r) != r {
					t.Fatalf("non-canonical term %q from %q", term, name)
				}
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("term %q from %q contains delimiter rune %q", term, name, r)
				}
			}
			if DefaultStopWords[term] {
				t.Fatalf("stop word %q survived from %q", term, name)
			}
		}
	})
}

func BenchmarkFromAttribute(b *testing.B) {
	names := []string{
		"departure airport", "MaxNumberOfStudents", "year of publish",
		"first_name", "departing (mm/dd/yy)",
	}
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FromAttribute(names[i%len(names)], opts)
	}
}

func BenchmarkExtract(b *testing.B) {
	attrs := []string{
		"departure airport", "destination airport", "departing (mm/dd/yy)",
		"returning (mm/dd/yy)", "airline", "class", "number of travellers",
	}
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Extract(attrs, opts)
	}
}
