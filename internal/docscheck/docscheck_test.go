package docscheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemaflow/internal/obs"

	// Importing the server transitively registers every metric family in
	// the process (engine, classify, ingest, payg, server), so the
	// default registry below is the complete production set.
	_ "schemaflow/internal/server"
)

const repoRoot = "../.."

// TestMetricsDocMatchesRegistry diffs docs/METRICS.md against the live
// registry: every registered family must be documented with the right
// type, and every documented row must exist in code. This is the test
// that makes METRICS.md a contract instead of aspiration.
func TestMetricsDocMatchesRegistry(t *testing.T) {
	rows, err := MetricRows(filepath.Join(repoRoot, "docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]MetricRow, len(rows))
	for _, row := range rows {
		if prev, dup := documented[row.Name]; dup {
			t.Errorf("METRICS.md documents %s twice (lines %d and %d)", row.Name, prev.Line, row.Line)
		}
		documented[row.Name] = row
	}

	registered := make(map[string]string) // name -> kind
	for _, f := range obs.Default().Snapshot() {
		registered[f.Name] = f.Kind.String()
	}

	for name, kind := range registered {
		row, ok := documented[name]
		if !ok {
			t.Errorf("metric %s (%s) is registered but missing from docs/METRICS.md", name, kind)
			continue
		}
		if row.Type != kind {
			t.Errorf("metric %s: docs/METRICS.md line %d says %q, registry says %q",
				name, row.Line, row.Type, kind)
		}
	}
	for name, row := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("docs/METRICS.md line %d documents %s, which no package registers", row.Line, name)
		}
	}
	if len(rows) != len(registered) && !t.Failed() {
		t.Errorf("doc rows %d != registered families %d", len(rows), len(registered))
	}
}

// TestMarkdownLinks checks that every relative link in the top-level
// and docs/ markdown files points at a file that exists.
func TestMarkdownLinks(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "ROADMAP.md"}
	entries, err := os.ReadDir(filepath.Join(repoRoot, "docs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".md" {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}

	for _, rel := range files {
		path := filepath.Join(repoRoot, rel)
		if _, err := os.Stat(path); err != nil {
			continue // optional top-level docs may not exist
		}
		links, err := RelativeLinks(path)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, l := range links {
			target := filepath.Join(filepath.Dir(path), l.Target)
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s:%d: broken link %q (%v)", rel, l.Line, l.Target, err)
			}
		}
	}
}

// TestFlagsDocumented diffs the flags the binaries actually register
// against docs/OPERATIONS.md, both ways: every server and loadgen flag
// must be documented in the runbook, and every backtick-quoted `-flag`
// the runbook mentions must exist in one of the binaries. This is what
// keeps the operator docs from rotting as flags come and go.
func TestFlagsDocumented(t *testing.T) {
	server := filepath.Join("cmd", "payg-server", "main.go")
	mains := []string{server, filepath.Join("cmd", "payg-loadgen", "main.go")}
	// Ratchet: the server's flag surface may shrink freely, but growing it
	// means editing this number on purpose (ROADMAP item 7).
	const maxServerFlags = 17
	registered := make(map[string]string) // flag -> file that registers it
	for _, rel := range mains {
		flags, err := FlagNames(filepath.Join(repoRoot, rel))
		if err != nil {
			t.Fatal(err)
		}
		if rel == server && len(flags) > maxServerFlags {
			t.Errorf("%s registers %d flags, ratchet is %d", rel, len(flags), maxServerFlags)
		}
		for _, f := range flags {
			registered[f.Name] = rel
		}
	}

	docPath := filepath.Join("docs", "OPERATIONS.md")
	documented, err := DocFlags(filepath.Join(repoRoot, docPath))
	if err != nil {
		t.Fatal(err)
	}

	for name, src := range registered {
		if _, ok := documented[name]; !ok {
			t.Errorf("flag -%s (registered in %s) is missing from %s", name, src, docPath)
		}
	}
	for name, line := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("%s:%d documents flag -%s, which no binary registers", docPath, line, name)
		}
	}
}

// TestConfigSurfaceRatchet is maxServerFlags for the serving config
// structs and mediation's options: each may lose fields freely, but growing one means editing its
// number on purpose (ROADMAP item 7).
func TestConfigSurfaceRatchet(t *testing.T) {
	for _, c := range []struct {
		file, typ string
		max       int
	}{
		{filepath.Join("internal", "server", "server.go"), "Config", 7},
		{filepath.Join("internal", "shard", "router.go"), "RouterConfig", 3},
		{filepath.Join("payg", "manager.go"), "ManagerOptions", 10},
		{filepath.Join("internal", "mediate", "mediate.go"), "Options", 5},
	} {
		n, err := ExportedFields(filepath.Join(repoRoot, c.file), c.typ)
		if err != nil {
			t.Fatal(err)
		}
		if n > c.max {
			t.Errorf("%s: %s has %d exported fields, ratchet is %d", c.file, c.typ, n, c.max)
		}
	}
}

// TestProductionLinesRatchet is the same ratchet on the code itself: the
// non-test Go outside bench/ may shrink freely, but growing it means
// editing this number on purpose (ROADMAP item 10).
func TestProductionLinesRatchet(t *testing.T) {
	const maxLines = 22645
	sources, err := ProductionSources(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, src := range sources {
		lines += strings.Count(src, "\n")
	}
	if lines > maxLines {
		t.Errorf("non-test Go outside bench/ is %d lines, ratchet is %d", lines, maxLines)
	}
}

// TestOneHTTPContract keeps the HTTP contract in one place: each validator
// error string is spelled in exactly one production file (internal/httpapi)
// and the mediated-schema wire tag at most three times (httpapi.Score,
// httpapi.Domain, shard.PartialScore), so a second copy of a validator or a
// wire type cannot reappear unnoticed.
func TestOneHTTPContract(t *testing.T) {
	sources, err := ProductionSources(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{
		"missing q parameter",
		"bad top parameter",
		"empty query list",
		"too many queries: ",
		"empty query at index ",
		"bad top value",
		"missing schema name",
		"empty attribute list",
		"bad request body: ",
		"trailing data after JSON body",
		// Not HTTP, but validators too: mediate's threshold check and
		// payg's CandidateGen check.
		"mediate: frequency threshold ",
		"payg: unknown candidate generator ",
	} {
		var files []string
		for rel, src := range sources {
			if strings.Contains(src, msg) {
				files = append(files, rel)
			}
		}
		if len(files) != 1 {
			t.Errorf("%q is spelled in %d files %v, want exactly one", msg, len(files), files)
		}
	}
	const tag = `json:"mediated_schema,omitempty"`
	tags := 0
	for _, src := range sources {
		tags += strings.Count(src, tag)
	}
	if tags > 3 {
		t.Errorf("%s occurs %d times, want at most 3", tag, tags)
	}
}

// TestFlagParsers pins the registration and doc-mention grammars the
// flags check depends on.
func TestFlagParsers(t *testing.T) {
	src := filepath.Join(t.TempDir(), "main.go")
	code := `package main
import "flag"
func main() {
	var s string
	flag.StringVar(&s, "in", "", "usage")
	flag.DurationVar(&d, "poll-interval", 0, "usage")
	_ = flag.Float64("qps", 200, "usage")
	flag.Func("flake", "usage", parse)
	notflag.StringVar(&s, "nope", "", "usage")
}
`
	if err := os.WriteFile(src, []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	flags, err := FlagNames(src)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, f := range flags {
		got[f.Name] = true
	}
	for _, want := range []string{"in", "poll-interval", "qps", "flake"} {
		if !got[want] {
			t.Errorf("FlagNames missed %q: %+v", want, flags)
		}
	}
	if len(flags) != 4 {
		t.Errorf("flags = %+v, want exactly 4", flags)
	}

	doc := filepath.Join(t.TempDir(), "ops.md")
	md := "Run with `-in` and `-poll-interval`.\n" +
		"A non-flag dash - here, prose-with-dashes, and `code -notflag` stay out.\n" +
		"| `-qps` | 200 | target rate |\n"
	if err := os.WriteFile(doc, []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	dflags, err := DocFlags(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"in": 1, "poll-interval": 1, "qps": 3}
	if len(dflags) != len(want) {
		t.Fatalf("DocFlags = %v, want %v", dflags, want)
	}
	for name, line := range want {
		if dflags[name] != line {
			t.Errorf("DocFlags[%q] = %d, want %d", name, dflags[name], line)
		}
	}
}

// TestMetricRowParser pins the table-row grammar the doc must follow.
func TestMetricRowParser(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "m.md")
	content := "# x\n" +
		"| Metric | Type | Labels | Meaning |\n" +
		"|---|---|---|---|\n" +
		"| `schemaflow_a_total` | counter | `x` | words |\n" +
		"| not a metric | counter | | |\n" +
		"| `schemaflow_b` | gauge | — | words |\n"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := MetricRows(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "schemaflow_a_total" || rows[0].Type != "counter" ||
		rows[1].Name != "schemaflow_b" || rows[1].Type != "gauge" {
		t.Fatalf("rows = %+v", rows)
	}
}
