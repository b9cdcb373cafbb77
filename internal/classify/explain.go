package classify

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Explanation breaks a classification down per matched vocabulary term —
// the kind of transparency a pay-as-you-go system needs when asking users
// for feedback ("why did you route my query here?").
type Explanation struct {
	// Domain is the explained domain (normally the top-ranked one).
	Domain int
	// LogPrior is the domain's log Pr(D_r).
	LogPrior float64
	// Baseline is Σ_j log Pr(F_j=0 | D_r): the score of a query matching
	// nothing.
	Baseline float64
	// Terms lists each matched vocabulary term's additive contribution,
	// strongest first. Contributions are log-odds relative to the term
	// being absent; with the missing-term-biased m-estimate they are
	// usually negative in absolute value, so compare a term's Delta
	// *across domains* — the domain where it is least negative (or
	// positive) is the one the term argues for.
	Terms []TermContribution

	score float64
}

// TermContribution is one matched vocabulary term's effect on the score.
type TermContribution struct {
	Term  string
	Delta float64
}

// Explain scores the query against one domain and itemizes which matched
// vocabulary terms drove the result. Score is the domain's LogPosterior from
// Classify, bit for bit; LogPrior + Baseline + Σ Terms[i].Delta equals it up
// to the rounding of a different summation order.
func (c *Classifier) Explain(keywords []string, domain int) (*Explanation, error) {
	if domain < 0 || domain >= len(c.row) {
		return nil, fmt.Errorf("classify: no domain %d", domain)
	}
	ex := &Explanation{Domain: domain, LogPrior: math.Inf(-1), score: math.Inf(-1)}
	i := int(c.row[domain])
	if i < 0 || math.IsInf(c.logPrior[i], -1) {
		return ex, nil // not local, or possibly empty: -Inf prior, no terms
	}
	sc := c.scratch.Get().(*queryScratch)
	c.embed(keywords, sc)
	c.score(sc)
	ex.LogPrior, ex.Baseline, ex.score = c.logPrior[i], c.sumLog0[i], sc.lp[i]
	for _, j := range sc.idx {
		ex.Terms = append(ex.Terms, TermContribution{
			Term:  c.model.Space.Vocab[j],
			Delta: c.adjustment(j, i),
		})
	}
	c.scratch.Put(sc)
	slices.SortFunc(ex.Terms, func(a, b TermContribution) int { return cmp.Compare(b.Delta, a.Delta) })
	return ex, nil
}

// Score returns the explanation's total log posterior.
func (e *Explanation) Score() float64 { return e.score }

// String renders the explanation for logs and CLIs.
func (e *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "domain %d: logPrior=%.3f baseline=%.3f\n", e.Domain, e.LogPrior, e.Baseline)
	for _, t := range e.Terms {
		fmt.Fprintf(&sb, "  %-20s %+.3f\n", t.Term, t.Delta)
	}
	fmt.Fprintf(&sb, "  total %.3f\n", e.Score())
	return sb.String()
}
