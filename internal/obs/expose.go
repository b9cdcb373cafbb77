package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposed series of a family: label values (aligned with the
// family's label names) plus either a scalar value or a histogram.
type Sample struct {
	LabelValues []string
	Value       float64       // counter/gauge
	Hist        *HistSnapshot // histogram
}

// HistSnapshot is a point-in-time histogram reading.
type HistSnapshot struct {
	Uppers     []float64 // finite upper bounds
	Cumulative []uint64  // cumulative counts; last entry is the +Inf bucket
	Sum        float64
	Count      uint64
}

// FamilySnapshot is a point-in-time reading of one metric family.
type FamilySnapshot struct {
	Name    string
	Help    string
	Kind    Kind
	Labels  []string
	Samples []Sample
}

// Snapshot reads every family's current values. Samples are sorted by
// label values for deterministic output; families appear in registration
// order. Reads race benignly with concurrent writers (each atomic is read
// once).
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Labels: f.labels}
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := Sample{LabelValues: f.values[k]}
			switch c := f.children[k].(type) {
			case *Counter:
				s.Value = float64(c.Value())
			case *Gauge:
				s.Value = c.Value()
			case *Histogram:
				cum := c.Cumulative()
				s.Hist = &HistSnapshot{
					Uppers:     c.Uppers(),
					Cumulative: cum,
					Sum:        c.Sum(),
					Count:      cum[len(cum)-1],
				}
			}
			fs.Samples = append(fs.Samples, s)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}

// WritePrometheus writes the registry in Prometheus text exposition format
// 0.0.4: HELP/TYPE comments per family, one line per series, histograms as
// cumulative `le` buckets plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.Name, escapeHelp(f.Help), f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if err := writeSample(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, f FamilySnapshot, s Sample) error {
	if s.Hist == nil {
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.Name, labelString(f.Labels, s.LabelValues, "", ""), formatValue(s.Value))
		return err
	}
	for i, cum := range s.Hist.Cumulative {
		le := "+Inf"
		if i < len(s.Hist.Uppers) {
			le = formatValue(s.Hist.Uppers[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.Name, labelString(f.Labels, s.LabelValues, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.Name, labelString(f.Labels, s.LabelValues, "", ""), formatValue(s.Hist.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		f.Name, labelString(f.Labels, s.LabelValues, "", ""), s.Hist.Count)
	return err
}

// labelString renders {a="x",b="y"} with an optional extra pair appended
// (the histogram `le` label); it is empty when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// jsonSample and friends shape the JSON exposition.
type jsonSample struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	Hist   *jsonHist         `json:"histogram,omitempty"`
}

type jsonHist struct {
	Buckets []jsonBucket `json:"buckets"`
	Sum     float64      `json:"sum"`
	Count   uint64       `json:"count"`
}

type jsonBucket struct {
	LE         string `json:"le"`
	Cumulative uint64 `json:"cumulative"`
}

type jsonFamily struct {
	Name    string       `json:"name"`
	Type    string       `json:"type"`
	Help    string       `json:"help"`
	Metrics []jsonSample `json:"metrics"`
}

// WriteJSON writes the registry as a JSON document: an array of families,
// each with its samples. Intended for humans and ad-hoc tooling; scrapers
// should prefer WritePrometheus.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	fams := make([]jsonFamily, 0, len(snap))
	for _, f := range snap {
		jf := jsonFamily{Name: f.Name, Type: f.Kind.String(), Help: f.Help, Metrics: []jsonSample{}}
		for _, s := range f.Samples {
			js := jsonSample{}
			if len(f.Labels) > 0 {
				js.Labels = make(map[string]string, len(f.Labels))
				for i, n := range f.Labels {
					js.Labels[n] = s.LabelValues[i]
				}
			}
			if s.Hist == nil {
				v := s.Value
				js.Value = &v
			} else {
				jh := &jsonHist{Sum: s.Hist.Sum, Count: s.Hist.Count}
				for i, cum := range s.Hist.Cumulative {
					le := "+Inf"
					if i < len(s.Hist.Uppers) {
						le = formatValue(s.Hist.Uppers[i])
					}
					jh.Buckets = append(jh.Buckets, jsonBucket{LE: le, Cumulative: cum})
				}
				js.Hist = jh
			}
			jf.Metrics = append(jf.Metrics, js)
		}
		fams = append(fams, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"families": fams})
}
