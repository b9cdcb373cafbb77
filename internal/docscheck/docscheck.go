// Package docscheck keeps the repository's documentation verifiable: it
// parses the metric reference table in docs/METRICS.md, the relative
// links in the markdown docs, and the command-line flags of the cmd/
// binaries so tests (run by `make docs-check` and CI) can diff them
// against the live metric registry, the file tree, and the operator
// runbook. Documentation that cannot drift silently is the only kind
// worth shipping. The same tests ratchet the serving configuration surface
// (ExportedFields) and the one-definition rule of the HTTP contract
// (ProductionSources).
package docscheck

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"strings"
)

// MetricRow is one row of the METRICS.md reference table.
type MetricRow struct {
	Name string // metric family name, e.g. "schemaflow_queries_total"
	Type string // declared type: "counter", "gauge", or "histogram"
	Line int    // 1-based line in the source file, for error messages
}

// metricRowRE matches `| `name` | type | ...` table rows. The name must
// be backtick-quoted in the first cell and the type bare in the second.
var metricRowRE = regexp.MustCompile("^\\|\\s*`([a-zA-Z_:][a-zA-Z0-9_:]*)`\\s*\\|\\s*([a-z]+)\\s*\\|")

// MetricRows extracts every metric table row from the markdown file at
// path. Rows whose first cell is not a backtick-quoted metric name
// (headers, separators, prose) are skipped.
func MetricRows(path string) ([]MetricRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []MetricRow
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if m := metricRowRE.FindStringSubmatch(sc.Text()); m != nil {
			rows = append(rows, MetricRow{Name: m[1], Type: m[2], Line: n})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no metric table rows found", path)
	}
	return rows, nil
}

// Flag is one command-line flag registration found in a Go source file.
type Flag struct {
	Name string // flag name as registered, without the leading dash
	Line int    // 1-based line in the source file
}

// flagREs match the stdlib flag registration forms used in this repo:
// flag.TypeVar(&x, "name", ...), flag.Type("name", ...), and
// flag.Func("name", ...). The name must be the first string literal of
// the call.
var flagREs = []*regexp.Regexp{
	regexp.MustCompile(`\bflag\.[A-Za-z0-9]+Var\([^,]+,\s*"([^"]+)"`),
	regexp.MustCompile(`\bflag\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration|Func|TextVar)\(\s*"([^"]+)"`),
}

// FlagNames extracts every flag registered by the Go source file at
// path. It is a textual scan, not a type-checked one — good enough to
// keep docs/OPERATIONS.md honest, and it fails loudly (zero flags) if a
// main.go stops registering flags in a recognizable form.
func FlagNames(path string) ([]Flag, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var flags []Flag
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		for _, re := range flagREs {
			for _, m := range re.FindAllStringSubmatch(sc.Text(), -1) {
				if !seen[m[1]] {
					seen[m[1]] = true
					flags = append(flags, Flag{Name: m[1], Line: n})
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(flags) == 0 {
		return nil, fmt.Errorf("%s: no flag registrations found", path)
	}
	return flags, nil
}

// docFlagRE matches backtick-quoted flag mentions like `-tau` or
// `-drift-threshold`. Requiring the backtick immediately before the
// dash keeps prose dashes and fenced command examples from matching.
var docFlagRE = regexp.MustCompile("`-([a-zA-Z][a-zA-Z0-9-]*)`")

// DocFlags returns every distinct backtick-quoted flag name mentioned
// in the markdown file at path (without the dash), mapped to the first
// line it appears on.
func DocFlags(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	flags := make(map[string]int)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		for _, m := range docFlagRE.FindAllStringSubmatch(sc.Text(), -1) {
			if _, ok := flags[m[1]]; !ok {
				flags[m[1]] = n
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return flags, nil
}

// Link is one markdown link found in a document.
type Link struct {
	Target string // raw link target as written
	Line   int    // 1-based line number
}

// linkRE matches inline markdown links [text](target). Image links
// (![alt](target)) match too, which is what we want.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// RelativeLinks returns the file-relative link targets in the markdown
// file at path: external schemes (http, https, mailto) and pure
// in-page fragments (#...) are skipped, and a trailing #fragment is
// stripped from what remains.
func RelativeLinks(path string) ([]Link, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var links []Link
	for n, line := range strings.Split(string(data), "\n") {
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			t := m[1]
			if strings.HasPrefix(t, "http://") || strings.HasPrefix(t, "https://") ||
				strings.HasPrefix(t, "mailto:") || strings.HasPrefix(t, "#") {
				continue
			}
			if i := strings.IndexByte(t, '#'); i >= 0 {
				t = t[:i]
			}
			if t == "" {
				continue
			}
			links = append(links, Link{Target: t, Line: n + 1})
		}
	}
	return links, nil
}

// ExportedFields counts the exported fields of the struct type typeName
// declared in the Go source file at path — each one is an independently
// settable option.
func ExportedFields(path, typeName string) (int, error) {
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	n := -1
	ast.Inspect(file, func(node ast.Node) bool {
		ts, ok := node.(*ast.TypeSpec)
		if !ok {
			return true
		}
		if st, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name == typeName {
			n = 0
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if name.IsExported() {
						n++
					}
				}
			}
		}
		return false
	})
	if n < 0 {
		return 0, fmt.Errorf("%s: no struct type %s", path, typeName)
	}
	return n, nil
}

// ProductionSources reads every non-test .go file under root except the
// fenced bench/ tree, keyed by root-relative path.
func ProductionSources(root string) (map[string]string, error) {
	out := make(map[string]string)
	fsys := os.DirFS(root)
	err := fs.WalkDir(fsys, ".", func(rel string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		data, err := fs.ReadFile(fsys, rel)
		out[rel] = string(data)
		return err
	})
	return out, err
}
