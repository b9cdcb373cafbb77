// Command payg-repro regenerates every table and figure of the thesis'
// evaluation (Chapter 6) plus the DESIGN.md ablations, over the synthetic
// stand-in corpora.
//
// Usage:
//
//	payg-repro [-seed N] [-exp name] [-queries N]
//
// Experiments: all (default), table6.1, fig6.2, fig6.3, fig6.4, fig6.5,
// fig6.6, table6.2, ddh, med-coherence, med-threshold, fig6.7, ddh-queries,
// approx, ablate-tsim, ablate-features, ablate-mediation, ablate-theta,
// baselines, sensitivity, consistency.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"schemaflow/internal/classify"
	"schemaflow/internal/cluster"
	"schemaflow/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", experiments.DefaultSeed, "base corpus seed")
	exp := flag.String("exp", "all", "experiment to run")
	perSize := flag.Int("queries", experiments.QueriesPerSize, "queries per size for classification experiments")
	outDir := flag.String("out", "", "directory to write figure/table CSVs to (with -exp all)")
	flag.Parse()

	if err := run(*exp, *seed, *perSize, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "payg-repro:", err)
		os.Exit(1)
	}
}

func run(exp string, seed int64, perSize int, outDir string) error {
	c := experiments.LoadCorpora(seed)
	all := exp == "all"
	ran := false

	runExp := func(name string, f func() error) error {
		if !all && exp != name {
			return nil
		}
		ran = true
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := runExp("table6.1", func() error {
		fmt.Print(experiments.RenderTable61(experiments.Table61(c)))
		return nil
	}); err != nil {
		return err
	}

	// Figures 6.2–6.6 share one sweep over DW∪SS.
	var sweep []experiments.SweepSeries
	needSweep := all
	figures := map[string]experiments.FigureMetric{
		"fig6.2": experiments.MetricPrecision,
		"fig6.3": experiments.MetricRecall,
		"fig6.4": experiments.MetricFragmentation,
		"fig6.5": experiments.MetricNonHomogeneous,
		"fig6.6": experiments.MetricUnclustered,
	}
	if _, ok := figures[exp]; ok {
		needSweep = true
	}
	if needSweep {
		var err error
		sweep, err = experiments.LinkageSweep(c.Both, experiments.DefaultTaus(), cluster.Methods(), experiments.DefaultTheta)
		if err != nil {
			return err
		}
	}
	for _, name := range []string{"fig6.2", "fig6.3", "fig6.4", "fig6.5", "fig6.6"} {
		name := name
		if err := runExp(name, func() error {
			fmt.Print(experiments.RenderFigure(sweep, figures[name]))
			return nil
		}); err != nil {
			return err
		}
	}

	var t62cells []experiments.Table62Cell
	if err := runExp("table6.2", func() error {
		var err error
		t62cells, err = experiments.Table62(c)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable62(t62cells))
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("ddh", func() error {
		results, err := experiments.DDHClustering(c.DDH,
			[]float64{0.2, 0.3, 0.5}, cluster.Methods())
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderDDH(results))
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("med-coherence", func() error {
		res, err := experiments.MediationCoherence()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("med-threshold", func() error {
		rows, err := experiments.MediationThreshold(c.DDH, []float64{0.1, 0.01, 0})
		if err != nil {
			return err
		}
		clustered, attrs, err := experiments.ClusteredMediationTime(c.DDH)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderThreshold(rows, clustered, attrs))
		return nil
	}); err != nil {
		return err
	}

	var fig67 *experiments.ClassificationResult
	if err := runExp("fig6.7", func() error {
		var err error
		fig67, err = experiments.QueryClassification("DW∪SS", c.Both, experiments.ClassOptions{
			PerSize: perSize, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(fig67.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("ddh-queries", func() error {
		res, err := experiments.QueryClassification("DDH", c.DDH, experiments.ClassOptions{
			MinFrac: experiments.DDHQueryFrac, PerSize: perSize, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("approx", func() error {
		// At the default θ=0.02 the corpus typically has no uncertain
		// schemas (the thesis' expectation), making exact and approximate
		// identical; θ=0.15 widens the uncertainty so the expectation over
		// domain contents is actually exercised.
		for _, nc := range []struct {
			name  string
			theta float64
		}{
			{"DW∪SS θ=0.02", experiments.DefaultTheta},
			{"DW∪SS θ=0.15", 0.15},
		} {
			cmp, err := experiments.CompareClassifierSetup(nc.name, c.Both, 0.25, nc.theta, experiments.DefaultQueryFrac, seed)
			if err != nil {
				return err
			}
			fmt.Print(cmp.Render())
		}
		// Also demonstrate the approximate classifier's quality curve.
		res, err := experiments.QueryClassification("DW∪SS", c.Both, experiments.ClassOptions{
			PerSize: perSize, Seed: seed, Mode: classify.Approximate,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("ablate-tsim", func() error {
		rows, err := experiments.TermSimAblation(c.Both, 0.25)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTermSimAblation(rows, 0.25))
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("ablate-features", func() error {
		rows, err := experiments.FeatureModeAblation(c.Both, 0.25)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFeatureModeAblation(rows, 0.25))
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("ablate-mediation", func() error {
		rows, err := experiments.MediationSimAblation(c.Both, 0.25)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderMediationSimAblation(rows))
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("ablate-theta", func() error {
		rows, err := experiments.ThetaAblation(c.Both, 0.25, []float64{0, 0.02, 0.05, 0.1, 0.2})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderThetaAblation(rows, 0.25))
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("baselines", func() error {
		rows, err := experiments.BaselineComparison(c.DDH, 0.25, 5)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderBaselines(rows))
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("sensitivity", func() error {
		const seeds = 5
		rows, err := experiments.SeedSensitivity(seed, seeds, 0.25)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderSensitivity(rows, seeds, 0.25))
		return nil
	}); err != nil {
		return err
	}

	if err := runExp("consistency", func() error {
		res, err := experiments.ConsistencyExperiment()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	}); err != nil {
		return err
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if outDir != "" {
		if sweep == nil {
			return fmt.Errorf("-out requires -exp all (or a figure experiment)")
		}
		if err := writeCSVs(outDir, sweep, figures, t62cells, fig67); err != nil {
			return fmt.Errorf("writing CSVs: %w", err)
		}
		fmt.Printf("[CSV series written to %s]\n", outDir)
	}
	return nil
}

// writeCSVs exports the figure series and tables to dir.
func writeCSVs(dir string, sweep []experiments.SweepSeries, figures map[string]experiments.FigureMetric,
	cells []experiments.Table62Cell, classRes *experiments.ClassificationResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, fm := range figures {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		err = experiments.WriteFigureCSV(f, sweep, fm)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if cells != nil {
		f, err := os.Create(filepath.Join(dir, "table6.2.csv"))
		if err != nil {
			return err
		}
		err = experiments.WriteTable62CSV(f, cells)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if classRes != nil {
		f, err := os.Create(filepath.Join(dir, "fig6.7.csv"))
		if err != nil {
			return err
		}
		err = experiments.WriteClassificationCSV(f, classRes)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
