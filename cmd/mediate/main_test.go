package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSchemas(t *testing.T) string {
	t.Helper()
	return writeFile(t, `f1 | first name, last name, email
f2 | first name, family name, email, fax
car1 | make, model, price
car2 | car make, model, color
`)
}

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "schemas.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPerDomain(t *testing.T) {
	if err := run(io.Discard, writeSchemas(t), 0.1, 0.2, false, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoClustering(t *testing.T) {
	if err := run(io.Discard, writeSchemas(t), 0, 0.2, true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingInput(t *testing.T) {
	if err := run(io.Discard, "", 0.1, 0.2, false, false); err == nil {
		t.Fatal("missing -in accepted")
	}
}

// TestRunDuplicateSchemaNames: a domain's members are taken by index, so two
// schemas sharing a name are each mediated in their own domain with their
// own attributes (matching members by name gave both domains the first).
func TestRunDuplicateSchemaNames(t *testing.T) {
	path := writeFile(t, `f1 | first name, last name, email
dup | first name, family name, email, fax
car1 | make, model, price
dup | car make, model, color
`)
	var out bytes.Buffer
	if err := run(&out, path, 0.1, 0.2, false, true); err != nil {
		t.Fatal(err)
	}
	domains := strings.Split(out.String(), "== domain ")[1:]
	if len(domains) != 2 {
		t.Fatalf("got %d domains, want 2:\n%s", len(domains), out.String())
	}
	for _, d := range domains {
		_, dup, ok := strings.Cut(d, "mappings of dup:\n")
		if !ok {
			t.Fatalf("domain without its dup member:\n%s", d)
		}
		want, other := "first name→first name", "car make→car make"
		if strings.Contains(d, "mappings of car1:") {
			want, other = other, want
		}
		if !strings.Contains(dup, want) || strings.Contains(dup, other) {
			t.Errorf("dup mediated with the other domain's attributes:\n%s", d)
		}
	}
}
