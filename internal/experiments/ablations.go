package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"schemaflow/internal/classify"
	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/eval"
	"schemaflow/internal/feature"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// newExactClassifier builds the exact subset-enumeration classifier with
// default settings (the fallback cap applies, so huge uncertain sets degrade
// gracefully rather than hanging the ablation).
func newExactClassifier(m *core.Model) (*classify.Classifier, error) {
	return classify.New(m, classify.Config{Mode: classify.Exact})
}

// Ablations of the design choices DESIGN.md calls out. These go beyond the
// thesis' own figures: they quantify the alternatives the text discusses but
// does not plot (stemming vs LCS t_sim, θ width, baseline clusterers).

// TermSimAblationRow evaluates clustering quality under one t_sim function.
type TermSimAblationRow struct {
	SimName string
	Metrics eval.Metrics
	Dim     int
	Elapsed time.Duration
}

// TermSimAblation compares the LCS-substring t_sim against stem-equality
// (the alternative Section 4.1 suggests) and exact matching, at the default
// clustering parameters.
func TermSimAblation(set schema.Set, tau float64) ([]TermSimAblationRow, error) {
	sims := []strsim.TermSim{strsim.LCSSim{}, strsim.StemSim{}, strsim.ExactSim{}}
	var out []TermSimAblationRow
	for _, sim := range sims {
		start := time.Now()
		sp := feature.BuildLite(set, feature.Config{
			TermOpts: terms.DefaultOptions(),
			Sim:      sim,
			Tau:      0.8,
		})
		m, err := buildModel(set, sp, nil, cluster.AvgJaccard, tau, DefaultTheta)
		if err != nil {
			return nil, err
		}
		out = append(out, TermSimAblationRow{
			SimName: sim.Name(),
			Metrics: eval.Evaluate(m, set),
			Dim:     sp.Dim(),
			Elapsed: time.Since(start),
		})
	}
	return out, nil
}

// RenderTermSimAblation prints the t_sim ablation.
func RenderTermSimAblation(rows []TermSimAblationRow, tau float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: term similarity function (tau_c_sim=%.2f)\n", tau)
	fmt.Fprintf(&sb, "%-12s %10s %8s %10s %8s %10s\n", "t_sim", "precision", "recall", "unclust", "dim L", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %10.3f %8.3f %10.3f %8d %10s\n",
			r.SimName, r.Metrics.Precision, r.Metrics.Recall,
			r.Metrics.FracUnclustered, r.Dim, r.Elapsed.Round(time.Millisecond))
	}
	return sb.String()
}

// ThetaAblationRow evaluates one uncertainty width θ.
type ThetaAblationRow struct {
	Theta        float64
	Uncertain    int
	MaxPerDomain int
	SetupTime    time.Duration
	Metrics      eval.Metrics
}

// ThetaAblation varies θ, measuring how many schemas become uncertain, the
// largest per-domain uncertain count (the exponent of classifier setup), the
// exact-classifier setup time, and clustering quality.
func ThetaAblation(set schema.Set, tau float64, thetas []float64) ([]ThetaAblationRow, error) {
	sp := feature.BuildLite(set, feature.DefaultConfig())
	ps, err := cluster.CompletePairSims(context.TODO(), sp, 0)
	if err != nil {
		return nil, err
	}
	var out []ThetaAblationRow
	for _, theta := range thetas {
		m, err := buildModel(set, sp, ps, cluster.AvgJaccard, tau, theta)
		if err != nil {
			return nil, err
		}
		count, maxPer := uncertainStats(m)
		row := ThetaAblationRow{Theta: theta, Uncertain: count, MaxPerDomain: maxPer}
		start := time.Now()
		if _, err := newExactClassifier(m); err != nil {
			return nil, err
		}
		row.SetupTime = time.Since(start)
		row.Metrics = eval.Evaluate(m, set)
		out = append(out, row)
	}
	return out, nil
}

// RenderThetaAblation prints the θ ablation.
func RenderThetaAblation(rows []ThetaAblationRow, tau float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: uncertainty width theta (tau_c_sim=%.2f)\n", tau)
	fmt.Fprintf(&sb, "%-8s %10s %14s %12s %10s %8s\n", "theta", "uncertain", "max/domain", "setup", "precision", "recall")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8.3f %10d %14d %12s %10.3f %8.3f\n",
			r.Theta, r.Uncertain, r.MaxPerDomain, r.SetupTime.Round(time.Millisecond),
			r.Metrics.Precision, r.Metrics.Recall)
	}
	return sb.String()
}

// FeatureModeRow evaluates clustering quality under one feature
// representation (Section 4.1's binary-vs-frequency design choice).
type FeatureModeRow struct {
	Mode    feature.Mode
	Metrics eval.Metrics
	Elapsed time.Duration
}

// FeatureModeAblation tests the §4.1 claim that binary features are
// sufficient: it clusters the corpus under binary and term-frequency
// features at the same parameters and compares quality.
func FeatureModeAblation(set schema.Set, tau float64) ([]FeatureModeRow, error) {
	var out []FeatureModeRow
	for _, mode := range []feature.Mode{feature.Binary, feature.TermFrequency} {
		start := time.Now()
		sp := feature.BuildLite(set, feature.Config{
			TermOpts: terms.DefaultOptions(),
			Sim:      strsim.LCSSim{},
			Tau:      0.8,
			Mode:     mode,
		})
		m, err := buildModel(set, sp, nil, cluster.AvgJaccard, tau, DefaultTheta)
		if err != nil {
			return nil, err
		}
		out = append(out, FeatureModeRow{
			Mode:    mode,
			Metrics: eval.Evaluate(m, set),
			Elapsed: time.Since(start),
		})
	}
	return out, nil
}

// RenderFeatureModeAblation prints the binary-vs-frequency comparison.
func RenderFeatureModeAblation(rows []FeatureModeRow, tau float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: feature representation (tau_c_sim=%.2f) — §4.1 claims binary suffices\n", tau)
	fmt.Fprintf(&sb, "%-16s %10s %8s %10s %10s\n", "features", "precision", "recall", "unclust", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %10.3f %8.3f %10.3f %10s\n",
			r.Mode, r.Metrics.Precision, r.Metrics.Recall,
			r.Metrics.FracUnclustered, r.Elapsed.Round(time.Millisecond))
	}
	return sb.String()
}

// MediationSimRow evaluates mediation under one attribute-similarity
// combinator.
type MediationSimRow struct {
	Measure       string
	MediatedAttrs int
	// AvgSourcesPerAttr measures fusion aggressiveness.
	AvgSourcesPerAttr float64
	Elapsed           time.Duration
}

// MediationSimAblation mediates one clustered domain of the corpus under
// fuzzy term-set Jaccard (the default) and symmetrized Monge-Elkan, showing
// the fusion trade-off: Monge-Elkan rewards containment and produces fewer,
// fatter mediated attributes.
func MediationSimAblation(set schema.Set, tau float64) ([]MediationSimRow, error) {
	m, err := BuildStandardModel(set, tau, DefaultTheta)
	if err != nil {
		return nil, err
	}
	// Mediate the largest domain — the most interesting fusion workload.
	best, bestSize := -1, 0
	for r := range m.Domains {
		if n := len(m.Clustering.Members[r]); n > bestSize {
			best, bestSize = r, n
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("experiments: no domains to mediate")
	}
	var members schema.Set
	for _, si := range m.Clustering.Members[best] {
		members = append(members, set[si])
	}

	var out []MediationSimRow
	for _, me := range []bool{false, true} {
		opts := mediate.DefaultOptions()
		opts.MongeElkan = me
		start := time.Now()
		med, err := mediate.Build(members, opts)
		if err != nil {
			return nil, err
		}
		row := MediationSimRow{Measure: "fuzzy-jaccard", Elapsed: time.Since(start)}
		if me {
			row.Measure = "monge-elkan"
		}
		row.MediatedAttrs = len(med.Attrs)
		total := 0
		for _, a := range med.Attrs {
			total += len(a.Sources)
		}
		if len(med.Attrs) > 0 {
			row.AvgSourcesPerAttr = float64(total) / float64(len(med.Attrs))
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderMediationSimAblation prints the combinator comparison.
func RenderMediationSimAblation(rows []MediationSimRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: mediation attribute-similarity combinator (largest DW∪SS domain)\n")
	fmt.Fprintf(&sb, "%-16s %15s %20s %10s\n", "measure", "mediated attrs", "avg sources/attr", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %15d %20.2f %10s\n",
			r.Measure, r.MediatedAttrs, r.AvgSourcesPerAttr, r.Elapsed.Round(time.Millisecond))
	}
	return sb.String()
}

// BaselineRow evaluates one clustering algorithm on a corpus.
type BaselineRow struct {
	Algorithm string
	Metrics   eval.Metrics
	Clusters  int
	Elapsed   time.Duration
}

// BaselineComparison pits the thesis' HAC against the Chapter 2 baselines:
// k-means (given the true domain count — information HAC does not need),
// DBSCAN, and the He–Tao–Chang-style chi-square model-based clusterer.
func BaselineComparison(set schema.Set, tau float64, trueK int) ([]BaselineRow, error) {
	sp := feature.BuildLite(set, feature.DefaultConfig())
	start := time.Now()
	ps, err := cluster.CompletePairSims(context.TODO(), sp, 0)
	if err != nil {
		return nil, err
	}
	pairsTook := time.Since(start)
	evalOne := func(name string, run func() (*cluster.Result, error)) (BaselineRow, error) {
		start := time.Now()
		cl, err := run()
		if err != nil {
			return BaselineRow{}, err
		}
		elapsed := time.Since(start)
		m, err := core.AssignDomainsSparse(set, sp, cl, ps, core.Options{TauCSim: tau, Theta: DefaultTheta})
		if err != nil {
			return BaselineRow{}, err
		}
		return BaselineRow{
			Algorithm: name,
			Metrics:   eval.Evaluate(m, set),
			Clusters:  cl.NumClusters(),
			Elapsed:   elapsed,
		}, nil
	}
	var out []BaselineRow
	runs := []struct {
		name string
		run  func() (*cluster.Result, error)
	}{
		{"hac-avg-jaccard", func() (*cluster.Result, error) {
			return cluster.AgglomerativeSparse(context.TODO(), sp, cluster.NewLinkage(cluster.AvgJaccard), tau, ps, cluster.SparseOptions{})
		}},
		{fmt.Sprintf("kmeans(k=%d)", trueK), func() (*cluster.Result, error) {
			return cluster.KMeans(sp, cluster.KMeansOptions{K: trueK, Seed: 42}), nil
		}},
		{"dbscan", func() (*cluster.Result, error) {
			// eps in distance terms: neighbors at similarity ≥ 0.4. The
			// looser 1-τ radius density-connects entire domains through
			// boundary schemas and collapses the corpus to one cluster.
			return cluster.DBSCAN(sp, cluster.DBSCANOptions{Eps: 0.6, MinPts: 3}), nil
		}},
		{"divisive", func() (*cluster.Result, error) {
			return cluster.Divisive(sp, cluster.DivisiveOptions{MaxDiameter: 1 - tau/2}), nil
		}},
		{"chi2-model", func() (*cluster.Result, error) {
			return cluster.ModelBased(sp, 1e-4), nil
		}},
	}
	for _, r := range runs {
		row, err := evalOne(r.name, r.run)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	out[0].Elapsed += pairsTook // HAC's time includes the pair graph it clusters over
	return out, nil
}

// RenderBaselines prints the clusterer comparison.
func RenderBaselines(rows []BaselineRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: clustering algorithm comparison\n")
	fmt.Fprintf(&sb, "%-18s %10s %8s %10s %10s %10s\n", "algorithm", "precision", "recall", "unclust", "clusters", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %10.3f %8.3f %10.3f %10d %10s\n",
			r.Algorithm, r.Metrics.Precision, r.Metrics.Recall,
			r.Metrics.FracUnclustered, r.Clusters, r.Elapsed.Round(time.Millisecond))
	}
	return sb.String()
}
