package experiments

import (
	"fmt"
	"strings"
	"time"

	"schemaflow/internal/classify"
	"schemaflow/internal/core"
	"schemaflow/internal/eval"
	"schemaflow/internal/queries"
	"schemaflow/internal/schema"
)

// Figure 6.7 and Section 6.4 — query classification quality.

// ClassPoint is one query-size sample of the classification-quality curve.
type ClassPoint struct {
	Size int
	Top1 float64
	Top3 float64
}

// ClassificationResult bundles the curve with the setup-time measurements
// the thesis reports alongside it.
type ClassificationResult struct {
	Corpus     string
	Points     []ClassPoint
	SetupTime  time.Duration
	NumDomains int
	Mode       classify.Mode
}

// ClassOptions parameterizes the classification experiment.
type ClassOptions struct {
	Tau     float64 // clustering threshold; 0 → 0.25
	Theta   float64 // membership uncertainty; 0 → 0.02
	MinFrac float64 // query-generator term filter; 0 → 0.25
	PerSize int     // queries per size; 0 → 100
	MaxSize int     // max keywords per query; 0 → 10
	Seed    int64
	Mode    classify.Mode
}

func (o ClassOptions) withDefaults() ClassOptions {
	if o.Tau == 0 {
		o.Tau = 0.25
	}
	if o.Theta == 0 {
		o.Theta = DefaultTheta
	}
	if o.MinFrac == 0 {
		o.MinFrac = DefaultQueryFrac
	}
	if o.PerSize == 0 {
		o.PerSize = QueriesPerSize
	}
	if o.MaxSize == 0 {
		o.MaxSize = MaxQuerySize
	}
	return o
}

// QueryClassification reproduces Figure 6.7 (or the DDH paragraph, with
// MinFrac = 0.1): cluster the corpus, build the classifier, generate random
// labeled queries per Section 6.1.3, and measure top-1/top-3 fractions per
// query size. A query counts as a top-k hit when one of the k best-ranked
// domains is dominated by the query's target label.
func QueryClassification(name string, set schema.Set, opts ClassOptions) (*ClassificationResult, error) {
	opts = opts.withDefaults()
	m, err := BuildStandardModel(set, opts.Tau, opts.Theta)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cls, err := classify.New(m, classify.Config{Mode: opts.Mode})
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)

	gen, err := queries.NewGenerator(set, queries.Options{MinFrac: opts.MinFrac, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	dl := eval.LabelDomains(m, set)

	res := &ClassificationResult{
		Corpus:     name,
		SetupTime:  setup,
		NumDomains: m.NumDomains(),
		Mode:       opts.Mode,
	}
	for size := 1; size <= opts.MaxSize; size++ {
		var top1, top3 int
		for q := 0; q < opts.PerSize; q++ {
			qu := gen.Generate(size)
			rank := hitRank(cls, dl, qu, 3)
			if rank == 0 {
				top1++
			}
			if rank >= 0 {
				top3++
			}
		}
		res.Points = append(res.Points, ClassPoint{
			Size: size,
			Top1: float64(top1) / float64(opts.PerSize),
			Top3: float64(top3) / float64(opts.PerSize),
		})
	}
	return res, nil
}

// hitRank returns the rank (0-based) of the first of the top-k domains
// dominated by the query's target label, or -1.
func hitRank(cls *classify.Classifier, dl *eval.DomainLabeling, q queries.Query, k int) int {
	scores := cls.Top(q.Keywords, k)
	for rank, s := range scores {
		for _, l := range dl.Labels[s.Domain] {
			if l == q.Label {
				return rank
			}
		}
	}
	return -1
}

// Render prints the classification-quality curve.
func (r *ClassificationResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6.7: query classification quality (%s, %s classifier, %d domains, setup %s)\n",
		r.Corpus, r.Mode, r.NumDomains, r.SetupTime.Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-10s %8s %8s\n", "keywords", "top-1", "top-3")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%-10d %8.2f %8.2f\n", p.Size, p.Top1, p.Top3)
	}
	return sb.String()
}

// SetupComparison measures classifier construction time for the exact and
// approximate modes on one corpus (Section 6.4 reports construction times;
// Section 5.3/Chapter 7 motivate the approximation).
type SetupComparison struct {
	Corpus     string
	ExactTime  time.Duration
	ApproxTime time.Duration
	Uncertain  int
	NumDomains int
	// Agreement is the fraction of evaluation queries on which both
	// classifiers pick the same top domain.
	Agreement float64
}

// CompareClassifierSetup builds both classifier variants on the corpus and
// measures setup time and top-1 agreement over generated queries.
func CompareClassifierSetup(name string, set schema.Set, tau, theta, minFrac float64, seed int64) (*SetupComparison, error) {
	m, err := BuildStandardModel(set, tau, theta)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	exact, err := classify.New(m, classify.Config{Mode: classify.Exact})
	if err != nil {
		return nil, err
	}
	exactTime := time.Since(start)
	start = time.Now()
	approx, err := classify.New(m, classify.Config{Mode: classify.Approximate})
	if err != nil {
		return nil, err
	}
	approxTime := time.Since(start)

	gen, err := queries.NewGenerator(set, queries.Options{MinFrac: minFrac, Seed: seed})
	if err != nil {
		return nil, err
	}
	agree, total := 0, 0
	for size := 1; size <= 5; size++ {
		for i := 0; i < 100; i++ {
			q := gen.Generate(size)
			a := exact.Top(q.Keywords, 1)
			b := approx.Top(q.Keywords, 1)
			if len(a) > 0 && len(b) > 0 && a[0].Domain == b[0].Domain {
				agree++
			}
			total++
		}
	}
	return &SetupComparison{
		Corpus:     name,
		ExactTime:  exactTime,
		ApproxTime: approxTime,
		Uncertain:  m.UncertainCount(),
		NumDomains: m.NumDomains(),
		Agreement:  float64(agree) / float64(total),
	}, nil
}

// Render prints the setup comparison.
func (s *SetupComparison) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Classifier setup (%s): %d domains, %d uncertain schemas\n",
		s.Corpus, s.NumDomains, s.Uncertain)
	fmt.Fprintf(&sb, "  exact setup:        %s\n", s.ExactTime)
	fmt.Fprintf(&sb, "  approximate setup:  %s\n", s.ApproxTime)
	fmt.Fprintf(&sb, "  top-1 agreement:    %.3f\n", s.Agreement)
	return sb.String()
}

// uncertainStats is reused by ablations; exposing it here keeps the core
// dependency localized.
func uncertainStats(m *core.Model) (count int, maxPerDomain int) {
	count = m.UncertainCount()
	for r := range m.Domains {
		if u := len(m.Domains[r].Uncertain()); u > maxPerDomain {
			maxPerDomain = u
		}
	}
	return count, maxPerDomain
}
