package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"schemaflow/internal/dataset"
	"schemaflow/internal/mediate"
	"schemaflow/internal/schema"
)

// Section 6.3 — the effect of clustering on mediation and mapping.

// CoherenceResult reproduces the homonym experiment: mediating a 'people'
// schema and a 'biology' schema, with and without prior clustering.
type CoherenceResult struct {
	// FusedWithoutClustering reports whether mediating all schemas together
	// placed both meanings of 'family name' into one mediated attribute.
	FusedWithoutClustering bool
	// SeparatedWithClustering reports whether clustering first put the two
	// schemas into different domains, keeping the homonym separated.
	SeparatedWithClustering bool
	// MixedMediatedAttrs counts mediated attributes (no-clustering run)
	// whose source schemas share no ground-truth label — the semantic
	// incoherence measure.
	MixedMediatedAttrs int
	TotalMediatedAttrs int
}

// MediationCoherence runs the homonym experiment on a small multi-domain
// corpus containing the thesis' 'family name' example plus context schemas
// for both domains.
func MediationCoherence() (*CoherenceResult, error) {
	pair := dataset.HomonymPair()
	corpus := append(schema.Set{
		{Name: "dw-people-2", Attributes: []string{"first name", "family name", "phone", "email"}, Labels: []string{"people"}},
		{Name: "dw-biology-2", Attributes: []string{"genus", "species", "family name", "diet"}, Labels: []string{"animals"}},
	}, pair...)

	opts := mediate.DefaultOptions()
	opts.Negative = true // keep every attribute; the homonym must survive

	res := &CoherenceResult{}

	// Without clustering: one mediated schema over everything.
	med, err := mediate.Build(corpus, opts)
	if err != nil {
		return nil, err
	}
	res.TotalMediatedAttrs = len(med.Attrs)
	for _, ma := range med.Attrs {
		labels := make(map[string]bool)
		schemasSeen := make(map[int]bool)
		for _, sa := range ma.Sources {
			schemasSeen[sa.Schema] = true
			for _, l := range corpus[sa.Schema].Labels {
				labels[l] = true
			}
		}
		if len(schemasSeen) > 1 && !shareLabel(corpus, schemasSeen) {
			res.MixedMediatedAttrs++
		}
		if canonical(ma.Name) == "family name" && len(labels) > 1 {
			res.FusedWithoutClustering = true
		}
	}

	// With clustering: run the standard pipeline, then mediate per domain.
	// τ = 0.25, the thesis' recommended operating point: the homonym makes
	// the people/biology pairs share exactly 2 of 10 union terms (Jaccard
	// 0.2), so the recommended threshold is precisely what keeps them apart.
	m, err := BuildStandardModel(corpus, 0.25, DefaultTheta)
	if err != nil {
		return nil, err
	}
	peopleDomain := m.Clustering.Assign[2]  // pair[0] is corpus[2]
	biologyDomain := m.Clustering.Assign[3] // pair[1] is corpus[3]
	res.SeparatedWithClustering = peopleDomain != biologyDomain
	return res, nil
}

func canonical(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func shareLabel(corpus schema.Set, schemas map[int]bool) bool {
	counts := make(map[string]int)
	for si := range schemas {
		for _, l := range corpus[si].Labels {
			counts[l]++
		}
	}
	for _, c := range counts {
		if c == len(schemas) {
			return true
		}
	}
	return false
}

// RenderCoherence prints the homonym experiment outcome.
func (r *CoherenceResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Section 6.3: semantic coherence of mediated attributes ('family name' homonym)\n")
	fmt.Fprintf(&sb, "  without clustering: homonym fused into one mediated attribute = %v\n", r.FusedWithoutClustering)
	fmt.Fprintf(&sb, "  without clustering: %d of %d mediated attributes mix unrelated domains\n",
		r.MixedMediatedAttrs, r.TotalMediatedAttrs)
	fmt.Fprintf(&sb, "  with clustering:    homonym schemas in separate domains = %v\n", r.SeparatedWithClustering)
	return sb.String()
}

// ThresholdRow is one attribute-frequency-threshold setting of the Section
// 6.3 experiment: mediating the entire DDH corpus as one domain.
type ThresholdRow struct {
	Threshold float64
	// MediatedAttrs is the size of the resulting mediated schema.
	MediatedAttrs int
	// AbsentDomains counts ground-truth domains with no attribute at all in
	// the mediated schema; UnderRepresented counts those with fewer than 5.
	AbsentDomains    int
	UnderRepresented int
	PerDomainAttrs   map[string]int
	Elapsed          time.Duration
}

// MediationThreshold mediates the whole DDH set (no clustering) at frequency
// thresholds 0.1, 0.01 and 0, reproducing the paragraph: at 0.1 small
// domains vanish from the mediated schema; at 0.01 the smallest domain is
// under-represented; at 0 the mediated schema is a meaningless union of all
// attributes and the running time blows up.
func MediationThreshold(ddh schema.Set, thresholds []float64) ([]ThresholdRow, error) {
	labels := ddh.Labels()
	var out []ThresholdRow
	for _, th := range thresholds {
		opts := mediate.DefaultOptions()
		if th == 0 {
			opts.Negative = true
		} else {
			opts.FreqThreshold = th
		}
		start := time.Now()
		med, err := mediate.Build(ddh, opts)
		if err != nil {
			return nil, err
		}
		row := ThresholdRow{
			Threshold:      th,
			MediatedAttrs:  len(med.Attrs),
			PerDomainAttrs: make(map[string]int),
			Elapsed:        time.Since(start),
		}
		// Count, per ground-truth domain, how many mediated attributes
		// contain at least one attribute from that domain's schemas.
		for _, ma := range med.Attrs {
			seen := make(map[string]bool)
			for _, sa := range ma.Sources {
				for _, l := range ddh[sa.Schema].Labels {
					if !seen[l] {
						seen[l] = true
						row.PerDomainAttrs[l]++
					}
				}
			}
		}
		for _, l := range labels {
			switch n := row.PerDomainAttrs[l]; {
			case n == 0:
				row.AbsentDomains++
			case n < 5:
				row.UnderRepresented++
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// ClusteredMediationTime mediates DDH per clustered domain and returns the
// end-to-end time (clustering + per-domain mediation), the comparison point
// for the thesis' "<25 minutes with clustering vs 5 hours without".
func ClusteredMediationTime(ddh schema.Set) (time.Duration, int, error) {
	start := time.Now()
	m, err := BuildStandardModel(ddh, 0.25, DefaultTheta)
	if err != nil {
		return 0, 0, err
	}
	opts := mediate.DefaultOptions()
	totalAttrs := 0
	for r := range m.Domains {
		var members schema.Set
		for _, mem := range m.Domains[r].Members {
			members = append(members, ddh[mem.Schema])
		}
		med, err := mediate.Build(members, opts)
		if err != nil {
			return 0, 0, err
		}
		totalAttrs += len(med.Attrs)
	}
	return time.Since(start), totalAttrs, nil
}

// RenderThreshold prints the frequency-threshold experiment.
func RenderThreshold(rows []ThresholdRow, clustered time.Duration, clusteredAttrs int) string {
	var sb strings.Builder
	sb.WriteString("Section 6.3: mediating all of DDH as one domain (no clustering)\n")
	fmt.Fprintf(&sb, "%-11s %14s %8s %10s %12s\n", "threshold", "mediated attrs", "absent", "under-rep", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11.2f %14d %8d %10d %12s\n",
			r.Threshold, r.MediatedAttrs, r.AbsentDomains, r.UnderRepresented,
			r.Elapsed.Round(time.Millisecond))
	}
	if len(rows) > 0 {
		sb.WriteString("per-domain mediated-attribute counts (last row):\n")
		last := rows[len(rows)-1]
		var labels []string
		for l := range last.PerDomainAttrs {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&sb, "  %-14s %d\n", l, last.PerDomainAttrs[l])
		}
	}
	fmt.Fprintf(&sb, "with clustering first: per-domain mediation, %d total mediated attrs, %s end-to-end\n",
		clusteredAttrs, clustered.Round(time.Millisecond))
	return sb.String()
}
