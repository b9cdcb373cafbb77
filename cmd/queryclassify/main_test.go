package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeSchemas(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "schemas.txt")
	content := `air1 | departure, destination, airline
air2 | departure city, destination city, carrier
bib1 | title, authors, publication year
bib2 | paper title, author, year
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithQueries(t *testing.T) {
	if err := run(writeSchemas(t), 0.2, 2, true, []string{"departure toronto", "title author"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingInput(t *testing.T) {
	if err := run("", 0.2, 3, false, nil); err == nil {
		t.Fatal("missing -in accepted")
	}
}

func TestRunRejectsNonPositiveTop(t *testing.T) {
	for _, top := range []int{0, -1} {
		if err := run(writeSchemas(t), 0.2, top, false, []string{"airline"}); err == nil {
			t.Fatalf("-top %d accepted", top)
		}
	}
}
