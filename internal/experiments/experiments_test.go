package experiments

import (
	"strings"
	"testing"

	"schemaflow/internal/cluster"
)

// These are the repository's integration tests: each one runs a full
// experiment across every module (dataset → terms → features → clustering →
// domains → classifier/mediation → evaluation) and asserts the *shape* the
// thesis reports — who wins, what is monotone, where the crossovers fall —
// rather than absolute values, which depend on the synthetic corpora.

func testCorpora(t *testing.T) Corpora {
	t.Helper()
	return LoadCorpora(DefaultSeed)
}

func TestTable61Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in short mode")
	}
	rows := Table61(testCorpora(t))
	dw, ss, both := rows[0].Stats, rows[1].Stats, rows[2].Stats
	if dw.NumSchemas != 63 || ss.NumSchemas != 252 || both.NumSchemas != 315 {
		t.Fatalf("schema counts: %d/%d/%d", dw.NumSchemas, ss.NumSchemas, both.NumSchemas)
	}
	// The thesis' Table 6.1 relationships.
	if ss.NumLabels <= dw.NumLabels {
		t.Errorf("SS should have more labels than DW: %d vs %d", ss.NumLabels, dw.NumLabels)
	}
	if ss.AvgLabelsPerSch <= dw.AvgLabelsPerSch {
		t.Errorf("SS should average more labels/schema: %v vs %v", ss.AvgLabelsPerSch, dw.AvgLabelsPerSch)
	}
	if ss.MaxSchemasPerLb <= dw.MaxSchemasPerLb {
		t.Errorf("SS head label should dominate: %d vs %d", ss.MaxSchemasPerLb, dw.MaxSchemasPerLb)
	}
	if dw.AvgTermsPerSch <= ss.AvgTermsPerSch {
		t.Errorf("DW schemas should be wider on average: %v vs %v", dw.AvgTermsPerSch, ss.AvgTermsPerSch)
	}
	if out := RenderTable61(rows); !strings.Contains(out, "Number of Schemas") {
		t.Error("render missing header")
	}
}

func TestLinkageSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	c := testCorpora(t)
	series, err := LinkageSweep(c.Both, DefaultTaus(), cluster.Methods(), DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	byMethod := make(map[cluster.Method][]SweepPoint)
	for _, s := range series {
		byMethod[s.Method] = s.Points
	}
	avg := byMethod[cluster.AvgJaccard]

	// Figure 6.2/6.3: precision and recall improve from τ=0.1 to the
	// recommended 0.2–0.3 band.
	if avg[1].Metrics.Precision <= avg[0].Metrics.Precision {
		t.Errorf("precision did not improve from τ=0.1 (%v) to 0.2 (%v)",
			avg[0].Metrics.Precision, avg[1].Metrics.Precision)
	}
	if avg[1].Metrics.Recall <= avg[0].Metrics.Recall {
		t.Errorf("recall did not improve from τ=0.1 (%v) to 0.2 (%v)",
			avg[0].Metrics.Recall, avg[1].Metrics.Recall)
	}
	// Figure 6.5: non-homogeneous fraction decreases with τ.
	if avg[2].Metrics.FracNonHomogeneous > avg[0].Metrics.FracNonHomogeneous {
		t.Errorf("non-homogeneous fraction rose with τ: %v → %v",
			avg[0].Metrics.FracNonHomogeneous, avg[2].Metrics.FracNonHomogeneous)
	}
	// Figure 6.6: unclustered fraction increases monotonically and reaches
	// (essentially) 1 at τ=0.9.
	for i := 1; i < len(avg); i++ {
		if avg[i].Metrics.FracUnclustered+1e-9 < avg[i-1].Metrics.FracUnclustered {
			t.Errorf("unclustered fraction not monotone at τ=%v", avg[i].Tau)
		}
	}
	if last := avg[len(avg)-1].Metrics.FracUnclustered; last < 0.95 {
		t.Errorf("unclustered at τ=0.9 = %v, want ≈1", last)
	}
	// Figure 6.4: fragmentation rises into the mid-τ range then falls as
	// domains dissolve into singletons.
	peak, peakIdx := 0.0, 0
	for i, p := range avg {
		if p.Metrics.Fragmentation > peak {
			peak, peakIdx = p.Metrics.Fragmentation, i
		}
	}
	if peakIdx == 0 || peakIdx == len(avg)-1 {
		t.Errorf("fragmentation peak at boundary τ=%v (values rise-then-fall expected)", avg[peakIdx].Tau)
	}
	// Max Jaccard is the weak measure in the low-τ regime (Section 6.2).
	max := byMethod[cluster.MaxJaccard]
	if max[0].Metrics.Precision >= avg[0].Metrics.Precision {
		t.Errorf("max-jaccard@0.1 precision %v should trail avg-jaccard %v",
			max[0].Metrics.Precision, avg[0].Metrics.Precision)
	}
}

func TestTable62Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("table 6.2 in short mode")
	}
	cells, err := Table62(testCorpora(t))
	if err != nil {
		t.Fatal(err)
	}
	get := func(corpus string, tau float64) Table62Cell {
		for _, c := range cells {
			if c.Corpus == corpus && c.Tau == tau {
				return c
			}
		}
		t.Fatalf("missing cell %s@%v", corpus, tau)
		return Table62Cell{}
	}
	// Raising τ from 0.2 to 0.3: precision and recall do not degrade much;
	// unclustered increases; non-homogeneous decreases (Table 6.2).
	for _, corpus := range []string{"DW", "SS", "Both"} {
		lo, hi := get(corpus, 0.2), get(corpus, 0.3)
		if hi.Metrics.FracUnclustered <= lo.Metrics.FracUnclustered {
			t.Errorf("%s: unclustered did not rise with τ", corpus)
		}
		if hi.Metrics.FracNonHomogeneous > lo.Metrics.FracNonHomogeneous {
			t.Errorf("%s: non-homogeneous rose with τ", corpus)
		}
		if hi.Metrics.Precision < lo.Metrics.Precision-0.05 {
			t.Errorf("%s: precision degraded sharply with τ", corpus)
		}
	}
	// Quality must be high at the recommended settings.
	if p := get("Both", 0.2).Metrics.Precision; p < 0.7 {
		t.Errorf("Both@0.2 precision = %v, want high", p)
	}
	if r := get("Both", 0.2).Metrics.Recall; r < 0.6 {
		t.Errorf("Both@0.2 recall = %v, want high", r)
	}
	// DW is cleaner than SS (Section 6.2: "performance measures are
	// generally better for DW than SS").
	if get("DW", 0.3).Metrics.Recall < get("SS", 0.3).Metrics.Recall {
		t.Errorf("DW@0.3 recall should beat SS@0.3")
	}
}

func TestDDHShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("DDH clustering in short mode")
	}
	c := testCorpora(t)
	results, err := DDHClustering(c.DDH, []float64{0.2, 0.5}, cluster.Methods())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		isMax := r.Method == cluster.MaxJaccard
		switch {
		case isMax && r.Tau < 0.5:
			// "Max. Jaccard ... gives low recall for τ_c_sim < 0.5".
			if r.Metrics.Recall > 0.5 {
				t.Errorf("max-jaccard@%v recall = %v, want low", r.Tau, r.Metrics.Recall)
			}
		default:
			// "precision and recall values above 0.99 for all τ ≥ 0.2".
			if r.Metrics.Precision < 0.99 || r.Metrics.Recall < 0.99 {
				t.Errorf("%s@%v: P=%v R=%v, want ≥0.99",
					r.Method, r.Tau, r.Metrics.Precision, r.Metrics.Recall)
			}
		}
	}
}

func TestMediationCoherenceShapes(t *testing.T) {
	res, err := MediationCoherence()
	if err != nil {
		t.Fatal(err)
	}
	if !res.FusedWithoutClustering {
		t.Error("expected the 'family name' homonym to fuse without clustering")
	}
	if !res.SeparatedWithClustering {
		t.Error("expected clustering to separate the homonym schemas")
	}
	if res.MixedMediatedAttrs == 0 {
		t.Error("expected at least one mixed mediated attribute without clustering")
	}
	if !strings.Contains(res.Render(), "family name") {
		t.Error("render missing the homonym")
	}
}

func TestMediationThresholdShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-corpus mediation in short mode")
	}
	c := testCorpora(t)
	rows, err := MediationThreshold(c.DDH, []float64{0.1, 0.01, 0})
	if err != nil {
		t.Fatal(err)
	}
	// At 0.1 the two small domains are absent entirely (the thesis found
	// "2 of the 5 domains of DDH are absent").
	if rows[0].AbsentDomains < 2 {
		t.Errorf("threshold 0.1: %d absent domains, want ≥ 2", rows[0].AbsentDomains)
	}
	// Lowering the threshold recovers them but blows the schema up.
	if rows[2].AbsentDomains != 0 {
		t.Errorf("threshold 0: %d absent domains, want 0", rows[2].AbsentDomains)
	}
	if !(rows[0].MediatedAttrs < rows[1].MediatedAttrs && rows[1].MediatedAttrs < rows[2].MediatedAttrs) {
		t.Errorf("mediated schema size not increasing: %d, %d, %d",
			rows[0].MediatedAttrs, rows[1].MediatedAttrs, rows[2].MediatedAttrs)
	}
}

func TestQueryClassificationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("classification experiment in short mode")
	}
	c := testCorpora(t)
	res, err := QueryClassification("Both", c.Both, ClassOptions{Seed: DefaultSeed, PerSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != MaxQuerySize {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		// Top-3 dominates top-1 by construction.
		if p.Top3+1e-9 < p.Top1 {
			t.Errorf("size %d: top3 %v < top1 %v", p.Size, p.Top3, p.Top1)
		}
	}
	// Accuracy rises with query size: the long-query average beats the
	// single-keyword point (Figure 6.7).
	longAvg := 0.0
	for _, p := range res.Points[5:] {
		longAvg += p.Top1
	}
	longAvg /= float64(len(res.Points) - 5)
	if longAvg <= res.Points[0].Top1 {
		t.Errorf("long-query top-1 (%v) should beat single-keyword (%v)", longAvg, res.Points[0].Top1)
	}
	if longAvg < 0.9 {
		t.Errorf("long-query top-1 = %v, want ≈1", longAvg)
	}
}

func TestDDHQueriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("DDH classification in short mode")
	}
	c := testCorpora(t)
	res, err := QueryClassification("DDH", c.DDH, ClassOptions{
		MinFrac: DDHQueryFrac, Seed: DefaultSeed, PerSize: 50, MaxSize: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// "the top-1 fraction being 1 for all query sizes, except for
	// single-keyword queries where [it] drops slightly to about 0.95".
	for _, p := range res.Points[1:] {
		if p.Top1 < 0.95 {
			t.Errorf("DDH size %d top-1 = %v, want ≈1", p.Size, p.Top1)
		}
	}
	if res.Points[0].Top1 < 0.7 {
		t.Errorf("DDH single-keyword top-1 = %v, unexpectedly low", res.Points[0].Top1)
	}
}

func TestCompareClassifierSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("setup comparison in short mode")
	}
	c := testCorpora(t)
	cmp, err := CompareClassifierSetup("Both", c.Both, 0.25, 0.15, DefaultQueryFrac, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Uncertain == 0 {
		t.Error("θ=0.15 should produce uncertain schemas")
	}
	// The approximation is a good surrogate: near-total top-1 agreement.
	if cmp.Agreement < 0.95 {
		t.Errorf("exact/approx top-1 agreement = %v, want ≈1", cmp.Agreement)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in short mode")
	}
	c := testCorpora(t)
	tsim, err := TermSimAblation(c.Both, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(tsim) != 3 {
		t.Fatalf("%d t_sim rows", len(tsim))
	}
	for _, r := range tsim {
		if r.Metrics.Precision < 0.7 {
			t.Errorf("t_sim %s precision %v suspiciously low", r.SimName, r.Metrics.Precision)
		}
	}

	thetas, err := ThetaAblation(c.Both, 0.25, []float64{0, 0.1, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// Wider θ admits at least as many uncertain schemas.
	for i := 1; i < len(thetas); i++ {
		if thetas[i].Uncertain < thetas[i-1].Uncertain {
			t.Errorf("uncertain count fell as θ widened: %+v", thetas)
		}
	}

	// Binary vs term-frequency features: the §4.1 claim is that binary is
	// sufficient — TF must not be dramatically better (or the claim fails
	// on this corpus), and both must cluster well.
	modes, err := FeatureModeAblation(c.Both, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 2 {
		t.Fatalf("%d feature-mode rows", len(modes))
	}
	binaryP := modes[0].Metrics.Precision
	tfP := modes[1].Metrics.Precision
	if binaryP < 0.8 || tfP < 0.8 {
		t.Errorf("feature-mode precisions too low: binary %v, tf %v", binaryP, tfP)
	}
	if tfP-binaryP > 0.1 {
		t.Errorf("TF features beat binary by %v — §4.1 sufficiency claim fails here", tfP-binaryP)
	}
}

func TestMediationSimAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("mediation ablation in short mode")
	}
	c := testCorpora(t)
	rows, err := MediationSimAblation(c.Both, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	fj, me := rows[0], rows[1]
	if fj.Measure != "fuzzy-jaccard" || me.Measure != "monge-elkan" {
		t.Fatalf("row order: %+v", rows)
	}
	// Monge-Elkan fuses at least as aggressively: no more mediated
	// attributes, and at least as many sources per attribute.
	if me.MediatedAttrs > fj.MediatedAttrs {
		t.Errorf("monge-elkan produced more mediated attrs (%d) than fuzzy jaccard (%d)",
			me.MediatedAttrs, fj.MediatedAttrs)
	}
	if me.AvgSourcesPerAttr < fj.AvgSourcesPerAttr {
		t.Errorf("monge-elkan fused less (%v) than fuzzy jaccard (%v)",
			me.AvgSourcesPerAttr, fj.AvgSourcesPerAttr)
	}
	if !strings.Contains(RenderMediationSimAblation(rows), "monge-elkan") {
		t.Error("render broken")
	}
}

func TestBaselineComparisonShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline comparison in short mode")
	}
	// Use the small corpus here; the chi-square baseline is O(n²) per merge
	// and the DDH run belongs in the benchmarks.
	c := testCorpora(t)
	rows, err := BaselineComparison(c.DW, 0.25, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d baseline rows", len(rows))
	}
	var hac BaselineRow
	for _, r := range rows {
		if r.Algorithm == "hac-avg-jaccard" {
			hac = r
		}
	}
	if hac.Metrics.Precision < 0.8 {
		t.Errorf("HAC precision %v on DW, want high", hac.Metrics.Precision)
	}
}

func TestConsistencyExperiment(t *testing.T) {
	res, err := ConsistencyExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if !res.MergedByNames {
		t.Error("premise broken: intruder not merged by name clustering")
	}
	if !res.Flagged {
		t.Error("consistency check missed the intruder")
	}
	if res.FalseFlags != 0 {
		t.Errorf("%d genuine sources wrongly flagged", res.FalseFlags)
	}
	if res.IntruderOverlap >= 0.5 {
		t.Errorf("intruder overlap %v not below threshold", res.IntruderOverlap)
	}
	if !strings.Contains(res.Render(), "automatic feedback") {
		t.Error("render broken")
	}
}

func TestSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed run in short mode")
	}
	rows, err := SeedSensitivity(1, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Min > r.Mean || r.Mean > r.Max {
			t.Errorf("%s: min %v mean %v max %v inconsistent", r.Measure, r.Min, r.Mean, r.Max)
		}
		if r.StdDev < 0 {
			t.Errorf("%s: negative stddev", r.Measure)
		}
	}
	// The reproduction's headline robustness claim: precision and recall do
	// not swing wildly across corpora.
	for _, r := range rows[:2] {
		if r.StdDev > 0.15 {
			t.Errorf("%s stddev %v too large; generator unstable", r.Measure, r.StdDev)
		}
	}
	if !strings.Contains(RenderSensitivity(rows, 3, 0.25), "precision") {
		t.Error("render broken")
	}
}

func TestCSVWriters(t *testing.T) {
	series := []SweepSeries{
		{Method: cluster.AvgJaccard, Points: []SweepPoint{{Tau: 0.1}, {Tau: 0.2}}},
		{Method: cluster.MinJaccard, Points: []SweepPoint{{Tau: 0.1}, {Tau: 0.2}}},
	}
	var buf strings.Builder
	if err := WriteFigureCSV(&buf, series, MetricPrecision); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("figure CSV has %d lines: %q", len(lines), buf.String())
	}
	if lines[0] != "tau_c_sim,avg-jaccard,min-jaccard" {
		t.Fatalf("header = %q", lines[0])
	}

	buf.Reset()
	res := &ClassificationResult{Points: []ClassPoint{{Size: 1, Top1: 0.5, Top3: 0.75}}}
	if err := WriteClassificationCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1,0.5,0.75") {
		t.Fatalf("classification CSV = %q", buf.String())
	}

	buf.Reset()
	cells := []Table62Cell{{Tau: 0.2, Corpus: "DW"}}
	if err := WriteTable62CSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DW,0.2") {
		t.Fatalf("table CSV = %q", buf.String())
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	series := []SweepSeries{{Method: cluster.AvgJaccard, Points: []SweepPoint{{Tau: 0.2}}}}
	for _, fm := range []FigureMetric{MetricPrecision, MetricRecall, MetricFragmentation, MetricNonHomogeneous, MetricUnclustered} {
		if out := RenderFigure(series, fm); !strings.Contains(out, "Figure") {
			t.Errorf("figure %v render missing caption: %q", fm, out)
		}
	}
	if RenderTable62(nil) == "" || RenderDDH(nil) == "" {
		t.Error("empty renders")
	}
}
