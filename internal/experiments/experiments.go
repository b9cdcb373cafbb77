// Package experiments reproduces every table and figure of the thesis'
// evaluation (Chapter 6) over the synthetic stand-in corpora. Each
// experiment is a pure function from a corpus (and parameters) to a result
// struct with a Render method that prints the same rows/series the thesis
// reports; cmd/payg-repro and the repository-root benchmarks both drive
// these functions.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/dataset"
	"schemaflow/internal/eval"
	"schemaflow/internal/feature"
	"schemaflow/internal/schema"
	"schemaflow/internal/terms"
)

// Default parameters of the thesis' experiments.
const (
	DefaultTheta     = 0.02
	DefaultQueryFrac = 0.25 // term-frequency filter for DW/SS query generation
	DDHQueryFrac     = 0.1  // and for DDH (Section 6.1.3)
	QueriesPerSize   = 100
	MaxQuerySize     = 10
	DefaultSeed      = 1
)

// Corpora bundles the three schema sets (and their union) for one seed.
type Corpora struct {
	DW   schema.Set
	SS   schema.Set
	Both schema.Set
	DDH  schema.Set
}

// LoadCorpora generates all corpora deterministically from a base seed.
func LoadCorpora(seed int64) Corpora {
	dw := dataset.DW(seed)
	ss := dataset.SS(seed + 1)
	return Corpora{
		DW:   dw,
		SS:   ss,
		Both: dataset.Union(dw, ss),
		DDH:  dataset.DDH(seed + 2),
	}
}

// termCount counts a schema's extracted terms under the default options —
// the "terms per schema" statistic of Table 6.1.
func termCount(s schema.Schema) int {
	return len(terms.Extract(s.Attributes, terms.DefaultOptions()))
}

// buildModel runs the standard pipeline: Algorithm 2 and Algorithm 3 both
// read one pair graph, the complete one of the space. sp and ps may be shared
// across runs; nil builds them here, inside whatever the caller times.
func buildModel(set schema.Set, sp *feature.Space, ps *cluster.PairSims, method cluster.Method, tau, theta float64) (*core.Model, error) {
	if sp == nil {
		sp = feature.BuildLite(set, feature.DefaultConfig())
	}
	if ps == nil {
		var err error
		if ps, err = cluster.CompletePairSims(context.TODO(), sp, 0); err != nil {
			return nil, err
		}
	}
	cl, err := cluster.AgglomerativeSparse(context.TODO(), sp, cluster.NewLinkage(method), tau, ps, cluster.SparseOptions{})
	if err != nil {
		return nil, err
	}
	return core.AssignDomainsSparse(set, sp, cl, ps, core.Options{TauCSim: tau, Theta: theta})
}

// BuildStandardModel runs the default pipeline (Avg Jaccard linkage,
// thesis-default feature configuration) and returns the probabilistic
// domain model. Exposed for the benchmark harness and tests.
func BuildStandardModel(set schema.Set, tau, theta float64) (*core.Model, error) {
	return buildModel(set, nil, nil, cluster.AvgJaccard, tau, theta)
}

// ---------------------------------------------------------------------------
// Table 6.1 — statistics about schema sets.

// Table61Row is one column of the thesis' Table 6.1 (DW / SS / Both).
type Table61Row struct {
	Name  string
	Stats schema.Stats
}

// Table61 computes the corpus statistics table.
func Table61(c Corpora) []Table61Row {
	return []Table61Row{
		{Name: "DW", Stats: schema.ComputeStats(c.DW, termCount)},
		{Name: "SS", Stats: schema.ComputeStats(c.SS, termCount)},
		{Name: "Both", Stats: schema.ComputeStats(c.Both, termCount)},
	}
}

// RenderTable61 prints the table in the thesis' layout.
func RenderTable61(rows []Table61Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 6.1: Statistics about schema sets\n")
	fmt.Fprintf(&sb, "%-26s", "")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10s", r.Name)
	}
	sb.WriteByte('\n')
	line := func(label string, f func(schema.Stats) string) {
		fmt.Fprintf(&sb, "%-26s", label)
		for _, r := range rows {
			fmt.Fprintf(&sb, "%10s", f(r.Stats))
		}
		sb.WriteByte('\n')
	}
	line("Number of Schemas", func(s schema.Stats) string { return fmt.Sprint(s.NumSchemas) })
	line("Max. terms per schema", func(s schema.Stats) string { return fmt.Sprint(s.MaxTermsPerSch) })
	line("Avg. terms per schema", func(s schema.Stats) string { return fmt.Sprintf("%.1f", s.AvgTermsPerSch) })
	line("Number of labels used", func(s schema.Stats) string { return fmt.Sprint(s.NumLabels) })
	line("Max. labels per schema", func(s schema.Stats) string { return fmt.Sprint(s.MaxLabelsPerSch) })
	line("Avg. labels per schema", func(s schema.Stats) string { return fmt.Sprintf("%.1f", s.AvgLabelsPerSch) })
	line("Max. schemas per label", func(s schema.Stats) string { return fmt.Sprint(s.MaxSchemasPerLb) })
	line("Avg. schemas per label", func(s schema.Stats) string { return fmt.Sprintf("%.1f", s.AvgSchemasPerLb) })
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figures 6.2–6.6 — clustering quality vs τ_c_sim for the four linkages.

// SweepPoint is one (τ, metrics) sample of one linkage series.
type SweepPoint struct {
	Tau     float64
	Metrics eval.Metrics
}

// SweepSeries is one linkage's curve across the τ sweep.
type SweepSeries struct {
	Method cluster.Method
	Points []SweepPoint
}

// DefaultTaus is the τ_c_sim grid of Figures 6.2–6.6.
func DefaultTaus() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// LinkageSweep runs clustering and evaluation over the full
// (linkage × τ) grid. The feature space and its complete pair graph are
// built once and shared by every clustering and domain assignment; for the
// reducible linkages (Min/Max/Avg Jaccard) the agglomeration runs once per
// linkage and every τ is a dendrogram cut, which is provably identical to a
// thresholded run (see cluster.BuildDendrogram) and ~|taus|× faster.
func LinkageSweep(set schema.Set, taus []float64, methods []cluster.Method, theta float64) ([]SweepSeries, error) {
	sp := feature.BuildLite(set, feature.DefaultConfig())
	ps, err := cluster.CompletePairSims(context.TODO(), sp, 0)
	if err != nil {
		return nil, err
	}
	out := make([]SweepSeries, 0, len(methods))
	for _, method := range methods {
		series := SweepSeries{Method: method}
		var dendro *cluster.Dendrogram
		if cluster.Reducible(method) {
			dendro, err = cluster.BuildDendrogram(sp, ps, method)
			if err != nil {
				return nil, err
			}
		}
		for _, tau := range taus {
			var cl *cluster.Result
			if dendro != nil {
				cl = dendro.CutAt(tau)
			} else {
				cl, err = cluster.AgglomerativeSparse(context.TODO(), sp, cluster.NewLinkage(method), tau, ps, cluster.SparseOptions{})
				if err != nil {
					return nil, err
				}
			}
			m, err := core.AssignDomainsSparse(set, sp, cl, ps, core.Options{TauCSim: tau, Theta: theta})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, SweepPoint{Tau: tau, Metrics: eval.Evaluate(m, set)})
		}
		out = append(out, series)
	}
	return out, nil
}

// FigureMetric selects which measure a figure plots.
type FigureMetric int

// The five per-figure measures of Section 6.2.
const (
	MetricPrecision      FigureMetric = iota // Figure 6.2
	MetricRecall                             // Figure 6.3
	MetricFragmentation                      // Figure 6.4
	MetricNonHomogeneous                     // Figure 6.5
	MetricUnclustered                        // Figure 6.6
)

// Title returns the thesis' caption for the figure.
func (fm FigureMetric) Title() string {
	switch fm {
	case MetricPrecision:
		return "Figure 6.2: Average precision"
	case MetricRecall:
		return "Figure 6.3: Average recall"
	case MetricFragmentation:
		return "Figure 6.4: Average fragmentation"
	case MetricNonHomogeneous:
		return "Figure 6.5: Fraction of schemas in non-homogeneous domains"
	case MetricUnclustered:
		return "Figure 6.6: Fraction of unclustered schemas"
	}
	return "unknown figure"
}

// Value extracts the figure's measure from a metrics bundle.
func (fm FigureMetric) Value(m eval.Metrics) float64 {
	switch fm {
	case MetricPrecision:
		return m.Precision
	case MetricRecall:
		return m.Recall
	case MetricFragmentation:
		return m.Fragmentation
	case MetricNonHomogeneous:
		return m.FracNonHomogeneous
	case MetricUnclustered:
		return m.FracUnclustered
	}
	return 0
}

// RenderFigure prints one figure's series as rows of (τ → value).
func RenderFigure(series []SweepSeries, fm FigureMetric) string {
	var sb strings.Builder
	sb.WriteString(fm.Title())
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-14s", "tau_c_sim")
	if len(series) > 0 {
		for _, p := range series[0].Points {
			fmt.Fprintf(&sb, "%8.2f", p.Tau)
		}
	}
	sb.WriteByte('\n')
	for _, s := range series {
		fmt.Fprintf(&sb, "%-14s", s.Method.String())
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%8.3f", fm.Value(p.Metrics))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 6.2 — focused evaluation at τ ∈ {0.2, 0.3} on DW, SS, Both.

// Table62Cell is one (τ, corpus) column of Table 6.2.
type Table62Cell struct {
	Tau     float64
	Corpus  string
	Metrics eval.Metrics
}

// Table62 evaluates Avg Jaccard clustering at the thesis' two recommended
// thresholds on all three corpora.
func Table62(c Corpora) ([]Table62Cell, error) {
	var out []Table62Cell
	for _, tau := range []float64{0.2, 0.3} {
		for _, nc := range []struct {
			name string
			set  schema.Set
		}{{"DW", c.DW}, {"SS", c.SS}, {"Both", c.Both}} {
			m, err := BuildStandardModel(nc.set, tau, DefaultTheta)
			if err != nil {
				return nil, err
			}
			out = append(out, Table62Cell{Tau: tau, Corpus: nc.name, Metrics: eval.Evaluate(m, nc.set)})
		}
	}
	return out, nil
}

// RenderTable62 prints Table 6.2 in the thesis' layout.
func RenderTable62(cells []Table62Cell) string {
	var sb strings.Builder
	sb.WriteString("Table 6.2: Evaluation of schema clustering\n")
	fmt.Fprintf(&sb, "%-16s", "")
	for _, c := range cells {
		fmt.Fprintf(&sb, "%12s", fmt.Sprintf("%s@%.1f", c.Corpus, c.Tau))
	}
	sb.WriteByte('\n')
	row := func(label string, f func(eval.Metrics) float64) {
		fmt.Fprintf(&sb, "%-16s", label)
		for _, c := range cells {
			fmt.Fprintf(&sb, "%12.2f", f(c.Metrics))
		}
		sb.WriteByte('\n')
	}
	row("Precision", func(m eval.Metrics) float64 { return m.Precision })
	row("Recall", func(m eval.Metrics) float64 { return m.Recall })
	row("Unclustered", func(m eval.Metrics) float64 { return m.FracUnclustered })
	row("Non-homog.", func(m eval.Metrics) float64 { return m.FracNonHomogeneous })
	row("Fragmentation", func(m eval.Metrics) float64 { return m.Fragmentation })
	return sb.String()
}

// ---------------------------------------------------------------------------
// Section 6.2, DDH paragraph — clustering the well-separated corpus.

// DDHResult holds one (linkage, τ) evaluation on DDH.
type DDHResult struct {
	Method  cluster.Method
	Tau     float64
	Metrics eval.Metrics
	Elapsed time.Duration
}

// DDHClustering reproduces the DDH paragraph of Section 6.2: precision and
// recall above 0.99 for all linkages and τ ≥ 0.2 — except Max Jaccard,
// whose single-link chaining collapses recall below τ = 0.5.
func DDHClustering(ddh schema.Set, taus []float64, methods []cluster.Method) ([]DDHResult, error) {
	sp := feature.BuildLite(ddh, feature.DefaultConfig())
	var out []DDHResult
	for _, method := range methods {
		for _, tau := range taus {
			start := time.Now()
			m, err := buildModel(ddh, sp, nil, method, tau, DefaultTheta)
			if err != nil {
				return nil, err
			}
			out = append(out, DDHResult{
				Method:  method,
				Tau:     tau,
				Metrics: eval.Evaluate(m, ddh),
				Elapsed: time.Since(start),
			})
		}
	}
	return out, nil
}

// RenderDDH prints the DDH clustering results.
func RenderDDH(results []DDHResult) string {
	var sb strings.Builder
	sb.WriteString("Section 6.2 (DDH): clustering the well-separated 5-domain corpus\n")
	fmt.Fprintf(&sb, "%-14s %5s %10s %8s %8s %10s\n", "linkage", "tau", "precision", "recall", "domains", "elapsed")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-14s %5.2f %10.3f %8.3f %8d %10s\n",
			r.Method, r.Tau, r.Metrics.Precision, r.Metrics.Recall,
			r.Metrics.NumRealDomains, r.Elapsed.Round(time.Millisecond))
	}
	return sb.String()
}
