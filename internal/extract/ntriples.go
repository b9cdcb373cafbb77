package extract

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"schemaflow/internal/schema"
)

// NTriples extracts schemas from an RDF dump in N-Triples format — the
// "other types of data sources such as RDF data" extension of the thesis'
// conclusion. Subjects are grouped by their rdf:type; each type yields one
// schema whose attributes are the local names of the predicates used by
// subjects of that type. Untyped subjects are pooled into one schema per
// source.
//
// The parser handles the N-Triples core: <iri> refs, _:blank nodes, quoted
// literals with escapes, language tags and datatypes, and '#' comments. It
// is line-oriented and tolerant: malformed lines are skipped rather than
// failing the whole dump.
func NTriples(r io.Reader, sourceName string) (schema.Set, error) {
	const rdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

	typeOf := make(map[string]string)           // subject → type IRI
	predsOf := make(map[string]map[string]bool) // subject → predicate local names

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		subj, pred, obj, ok := parseTriple(line)
		if !ok {
			continue
		}
		if pred == rdfType {
			if typeOf[subj] == "" {
				typeOf[subj] = obj
			}
			continue
		}
		if predsOf[subj] == nil {
			predsOf[subj] = make(map[string]bool)
		}
		predsOf[subj][localName(pred)] = true
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("extract: reading %s: %w", sourceName, err)
	}

	// Union predicates per type.
	byType := make(map[string]map[string]bool)
	for subj, preds := range predsOf {
		ty := typeOf[subj]
		if ty == "" {
			ty = "(untyped)"
		}
		if byType[ty] == nil {
			byType[ty] = make(map[string]bool)
		}
		for p := range preds {
			byType[ty][p] = true
		}
	}

	types := make([]string, 0, len(byType))
	for ty := range byType {
		types = append(types, ty)
	}
	sort.Strings(types)

	var out schema.Set
	for _, ty := range types {
		preds := byType[ty]
		attrs := make([]string, 0, len(preds))
		for p := range preds {
			attrs = append(attrs, p)
		}
		sort.Strings(attrs)
		if len(attrs) == 0 {
			continue
		}
		name := sourceName
		if ty != "(untyped)" {
			name = sourceName + "#" + localName(ty)
		}
		out = append(out, schema.Schema{Name: name, Attributes: attrs})
	}
	return out, nil
}

// parseTriple splits one N-Triples statement into subject, predicate, and
// object terms (IRIs without brackets, literals without quotes/annotations).
func parseTriple(line string) (subj, pred, obj string, ok bool) {
	rest := line
	subj, rest, ok = parseTerm(rest)
	if !ok {
		return "", "", "", false
	}
	pred, rest, ok = parseTerm(rest)
	if !ok || pred == "" { // an empty literal parses as a term; it names no property
		return "", "", "", false
	}
	obj, rest, ok = parseTerm(rest)
	if !ok {
		return "", "", "", false
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, ".") {
		return "", "", "", false
	}
	return subj, pred, obj, true
}

// parseTerm consumes one RDF term from the front of s.
func parseTerm(s string) (term, rest string, ok bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", "", false
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end <= 1 { // unterminated or empty IRI
			return "", "", false
		}
		return s[1:end], s[end+1:], true
	case '_':
		i := 0
		for i < len(s) && !isSpace(s[i]) && s[i] != '.' {
			i++
		}
		return s[:i], s[i:], true
	case '"':
		i := 1
		for i < len(s) {
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		if i >= len(s) {
			return "", "", false
		}
		lit := unescapeNTriples(s[1:i])
		rest := s[i+1:]
		// Skip language tag or datatype annotation.
		if strings.HasPrefix(rest, "@") {
			j := 0
			for j < len(rest) && !isSpace(rest[j]) && rest[j] != '.' {
				j++
			}
			rest = rest[j:]
		} else if strings.HasPrefix(rest, "^^") {
			rest = rest[2:]
			if strings.HasPrefix(rest, "<") {
				end := strings.IndexByte(rest, '>')
				if end < 0 {
					return "", "", false
				}
				rest = rest[end+1:]
			}
		}
		return lit, rest, true
	default:
		return "", "", false
	}
}

var ntriplesUnescaper = strings.NewReplacer(
	`\"`, `"`, `\\`, `\`, `\n`, "\n", `\t`, "\t", `\r`, "\r",
)

func unescapeNTriples(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	return ntriplesUnescaper.Replace(s)
}

// localName extracts the human-meaningful tail of an IRI
// ("http://xmlns.com/foaf/0.1/firstName" → "first name").
func localName(iri string) string {
	tail := iri
	if i := strings.LastIndexAny(iri, "#/"); i >= 0 && i < len(iri)-1 {
		tail = iri[i+1:]
	}
	return humanizeName(tail)
}
