package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"schemaflow/internal/experiments"
)

// The heavy experiments have their own integration tests under
// internal/experiments; these exercise the CLI glue — experiment routing,
// the unknown-experiment error, and CSV emission.

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in short mode")
	}
	for _, exp := range []string{"table6.1", "med-coherence", "consistency"} {
		if err := run(exp, 1, 5, ""); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("bogus", 1, 5, ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunFigureWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	dir := t.TempDir()
	if err := run("fig6.2", 1, 5, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig6.2.csv", "fig6.3.csv"} {
		if _, err := filepath.Glob(filepath.Join(dir, f)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOutRequiresSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in short mode")
	}
	if err := run("table6.1", 1, 5, t.TempDir()); err == nil {
		t.Fatal("-out without a sweep accepted")
	}
}

// durations matches what run prints of the clock — "267ms", "1.872s",
// "4.173911ms" — together with the padding that right-aligns it in a column.
var durations = regexp.MustCompile(`[ \t]*\b[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\b`)

// TestReproMatchesFullRun pins the reproduction: `payg-repro -exp all` must
// print docs/full-run.txt, durations aside. Every number in EXPERIMENTS.md
// comes from that file, so this is the test behind "no golden edited". It
// takes ~25 s, hence the gate: PAYG_REPRO=1 (make repro-check).
func TestReproMatchesFullRun(t *testing.T) {
	if os.Getenv("PAYG_REPRO") == "" {
		t.Skip("set PAYG_REPRO=1 (or run make repro-check); ~25 s")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "full-run.txt"))
	if err != nil {
		t.Fatal(err)
	}

	// run prints to os.Stdout; lend it a file for the duration.
	out, err := os.Create(filepath.Join(t.TempDir(), "run.txt"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run("all", experiments.DefaultSeed, experiments.QueriesPerSize, "")
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}

	mask := func(b []byte) []string {
		return strings.Split(string(durations.ReplaceAll(b, []byte(" <t>"))), "\n")
	}
	gl, wl := mask(got), mask(want)
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from docs/full-run.txt:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
