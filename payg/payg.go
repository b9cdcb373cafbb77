// Package payg is the public API of schemaflow: a multi-domain
// pay-as-you-go data integration system following Mahmoud & Aboulnaga
// (SIGMOD 2010).
//
// Given nothing but a collection of single-table schemas (sets of attribute
// names), Build produces a System that has:
//
//   - clustered the schemas into domains, fully automatically, handling
//     boundary schemas with a probabilistic membership model;
//   - mediated each domain into a mediated schema with probabilistic
//     mappings from every member source;
//   - constructed a naive Bayesian query classifier that routes keyword
//     queries to their most relevant domains.
//
// The typical use case (the thesis' Section 3.3): call Classify with a user
// keyword query to obtain ranked domains, show the top domains' mediated
// schemas as structured query interfaces, then Execute a structured query
// against a chosen domain to retrieve probability-ranked tuples.
//
// # Serving online: the Manager lifecycle
//
// A System is immutable once built. Long-running deployments wrap it in a
// Manager, which owns the current serving generation and moves it through
// a small state machine:
//
//	serving(gen N) --Ingest--> serving(gen N) + pending journal
//	      |                          |
//	      |              drift / interval / Recluster
//	      |                          v
//	      |                  rebuilding(base N)        (single flight)
//	      |                          |
//	      |        +-----------------+------------------+
//	      |        v                                    v
//	serving(gen N+1), journal drained       result discarded (base ≠ gen),
//	  [rebuild published]                     journal kept for next flight
//
// Ingest assigns an arriving schema against the current generation
// (read-only, Algorithm 3) and journals it as pending. A background
// rebuild — triggered by assignment-quality drift, a configured interval,
// or an explicit Recluster — reclusters serving ∪ pending from scratch on
// a copy, then publishes by an atomic pointer swap; Classify/Execute
// traffic never blocks on it. ApplyFeedback swaps the same pointer, which
// is why every swap bumps a generation: a rebuild whose base generation
// went stale discards its result rather than clobber the edit, and the
// journal survives for the next flight. The circuit breakers of the sources
// that can fail carry across swaps via a shared BreakerPool.
//
// Build phases, ingest/rebuild flow, breaker transitions, and query
// outcomes are all instrumented on the internal/obs default registry,
// which the HTTP server exposes at /metrics (see docs/METRICS.md).
package payg

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"schemaflow/internal/classify"
	"schemaflow/internal/cluster"
	"schemaflow/internal/core"
	"schemaflow/internal/engine"
	"schemaflow/internal/feature"
	"schemaflow/internal/mediate"
	"schemaflow/internal/par"
	"schemaflow/internal/schema"
	"schemaflow/internal/strsim"
	"schemaflow/internal/terms"
)

// Schema is a single-table schema: a named set of attribute names,
// optionally labeled with ground-truth domains for evaluation.
type Schema = schema.Schema

// Score is one ranked domain returned by Classify.
type Score = classify.Score

// Query is a structured query over a domain's mediated schema.
type Query = engine.Query

// ResultTuple is one probability-ranked tuple of a query result.
type ResultTuple = engine.ResultTuple

// Source is a data source: a schema plus its tuples.
type Source = engine.Source

// TupleSource abstracts where a source's tuples come from (remote, slow,
// failing); the in-memory Source satisfies it.
type TupleSource = engine.TupleSource

// Result is a possibly degraded query answer: consolidated tuples plus a
// report of the sources that failed to contribute.
type Result = engine.Result

// SourceFailure describes one source that contributed nothing to a query.
type SourceFailure = engine.SourceFailure

// Tuple is one raw row of a data source.
type Tuple = engine.Tuple

// Options configures Build. The zero value selects the thesis' defaults.
//
// For the float thresholds (TauTSim, TauCSim, Theta,
// MediationFreqThreshold) a value of 0 means "use the default", because the
// zero value of this struct must behave like DefaultOptions. A literal
// threshold of 0 is nonetheless meaningful (τ_c_sim = 0 merges every
// schema; θ = 0 disables the uncertainty band); to request it, pass any
// negative value — withDefaults clamps negatives to exactly 0 instead of
// substituting the default.
type Options struct {
	// TauTSim is the term-similarity threshold τ_t_sim (default 0.8;
	// negative means a literal 0 — every pair of terms matches).
	TauTSim float64
	// TermSimilarity selects t_sim: "lcs" (default), "stem", "exact", or
	// "lcsubsequence".
	TermSimilarity string
	// TauCSim is the clustering stop / membership threshold τ_c_sim
	// (default 0.25; the thesis recommends 0.2–0.3; negative means a
	// literal 0 — agglomeration runs until a single cluster remains, under
	// every CandidateGen).
	TauCSim float64
	// Linkage selects c_sim: "avg-jaccard" (default), "min-jaccard",
	// "max-jaccard", or "total-jaccard".
	Linkage string
	// Theta is the membership uncertainty width θ (default 0.02; negative
	// means a literal 0 — no membership is treated as uncertain).
	Theta float64
	// SkipMediation skips building mediated schemas and mappings; Classify
	// still works, Execute does not.
	SkipMediation bool
	// MediationFreqThreshold is the attribute frequency threshold for
	// mediated schemas (default 0.1).
	MediationFreqThreshold float64

	// CandidateGen selects which schema pairs the clustering stage
	// compares: "auto" (default — every pair below 4096 schemas, the blocked
	// build at or above it), "exact" (always every pair — the thesis'
	// clustering), or "lsh" (always the blocked build; the name is
	// historical, from when MinHash-LSH chose its pairs). Both feed one
	// clustering and domain assignment with the positive pairs read off the
	// feature space's inverted index: "exact" with every one, "lsh" with
	// those whose similarity is at least feature.PairFloor. See
	// docs/DESIGN.md §10.
	CandidateGen string

	// resolved marks a value withDefaults has already processed: its zero
	// thresholds are requested literals, not unset sentinels.
	resolved bool
}

// blockedAutoMin is the schema count at which CandidateGen "auto" switches
// from every pair to the blocked build. Below it the complete pair set is
// both fast and bit-exact, so auto never trades accuracy for speed on
// corpora where exact is cheap.
const blockedAutoMin = 4096

// withDefaults resolves the zero-value sentinels: 0 becomes the documented
// default, negative values become a literal 0 (see the Options doc), and
// anything else passes through untouched (including NaN and out-of-range
// values, which the downstream validators reject with an error rather than
// silently repairing). Resolving is idempotent: a System's stored options
// pass through again on every recluster and snapshot load, and a literal 0
// must not turn back into the default there.
func (o Options) withDefaults() Options {
	def := func(v, d float64) float64 {
		switch {
		case v < 0:
			return 0
		case v == 0 && !o.resolved:
			return d
		}
		return v
	}
	o.TauTSim = def(o.TauTSim, 0.8)
	o.TauCSim = def(o.TauCSim, 0.25)
	o.Theta = def(o.Theta, 0.02)
	o.MediationFreqThreshold = def(o.MediationFreqThreshold, 0.1)
	o.resolved = true
	if o.TermSimilarity == "" {
		o.TermSimilarity = "lcs"
	}
	if o.Linkage == "" {
		o.Linkage = "avg-jaccard"
	}
	if o.CandidateGen == "" {
		o.CandidateGen = "auto"
	}
	return o
}

func (o Options) termSim() (strsim.TermSim, error) {
	switch o.TermSimilarity {
	case "lcs":
		return strsim.LCSSim{}, nil
	case "stem":
		return strsim.StemSim{}, nil
	case "exact":
		return strsim.ExactSim{}, nil
	case "lcsubsequence":
		return strsim.LCSeqSim{}, nil
	default:
		return nil, fmt.Errorf("payg: unknown term similarity %q", o.TermSimilarity)
	}
}

// DomainInfo summarizes one discovered domain for presentation.
type DomainInfo struct {
	// ID is the domain identifier used by Classify and Execute.
	ID int
	// Schemas lists member schema names with membership probabilities.
	Schemas []DomainMember
	// MediatedAttributes are the mediated schema's attribute names (empty
	// when mediation was skipped).
	MediatedAttributes []string
	// Unclustered is true for a singleton domain (one schema that matched
	// nothing else).
	Unclustered bool
}

// DomainMember is one schema's membership in a domain.
type DomainMember struct {
	Name string
	Prob float64
}

// System is a built pay-as-you-go integration system. It is immutable and
// safe for concurrent use once Build returns.
type System struct {
	opts       Options
	schemas    schema.Set
	space      *feature.Space
	model      *core.Model
	classifier *classify.Classifier
	mediated   []*mediate.Mediated

	// local / localSet are set only on sharded systems (see Shard): the
	// sorted domain ids held locally and the same set as a bitmap over the
	// global id range. Nil on a full system, where every domain is local.
	local    []int
	localSet []bool
}

// Build runs the full pipeline: feature vectors → hierarchical clustering →
// probabilistic domains → per-domain mediation → classifier construction.
func Build(schemas []Schema, opts Options) (*System, error) {
	return BuildContext(context.Background(), schemas, opts)
}

// BuildContext is Build with cooperative cancellation: ctx is checked
// between pipeline stages (feature-space construction, clustering, domain
// assignment, classifier setup, and mediation per domain, on every worker),
// so a caller abandoning a long rebuild — e.g. the ingestion manager shutting
// down — gets ctx.Err() back promptly instead of paying for the whole
// pipeline.
func BuildContext(ctx context.Context, schemas []Schema, opts Options) (*System, error) {
	opts = opts.withDefaults()
	if len(schemas) == 0 {
		return nil, fmt.Errorf("payg: no schemas")
	}
	set := schema.Set(schemas)
	for i := range set {
		if err := set[i].Validate(); err != nil {
			return nil, fmt.Errorf("payg: %w", err)
		}
	}
	method, err := cluster.ParseMethod(opts.Linkage)
	if err != nil {
		return nil, err
	}
	fcfg, err := opts.featureConfig()
	if err != nil {
		return nil, err
	}
	model, err := buildModel(ctx, set, fcfg, method, opts)
	if err != nil {
		return nil, err
	}
	return assemble(ctx, opts, model, nil)
}

// newClassifier is the only classify.New in this package: the classifier the
// (resolved) options ask for over the model, its table restricted to local on
// a shard (nil = every domain).
func (o Options) newClassifier(model *core.Model, local []int) (*classify.Classifier, error) {
	return classify.New(model, classify.Config{Local: local})
}

// assemble is the only way from a domain model to a serving System:
// newClassifier → mediation, the classifier's table and the
// mediation restricted to local on a shard (nil = a full system). Build,
// feedback/AddSchema and Load all end here, so whatever a System holds beyond
// its model is a function of that model — never of bytes read back from a
// snapshot.
func assemble(ctx context.Context, opts Options, model *core.Model, local []int) (*System, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := time.Now()
	cls, err := opts.newClassifier(model, local)
	if err != nil {
		return nil, err
	}
	mBuildPhase.With("classifier").Observe(time.Since(t).Seconds())
	mClassifierTableBytes.Set(float64(cls.TableBytes()))

	sys := &System{opts: opts, schemas: model.Schemas, space: model.Space, model: model, classifier: cls, local: local}
	if local != nil {
		sys.localSet = make([]bool, model.NumDomains())
		for _, r := range local {
			sys.localSet[r] = true // in range: classify.New checked
		}
	}
	if !opts.SkipMediation {
		if err := sys.buildMediation(ctx); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// featureConfig translates the options into the feature-space config used
// by Build, AddSchema, and incremental ingestion. Build and Load both come
// through here, so it is also where an unknown CandidateGen is rejected: a
// System's options always name a pair graph pairFloor knows.
func (o Options) featureConfig() (feature.Config, error) {
	switch o.CandidateGen {
	case "auto", "exact", "lsh":
	default:
		return feature.Config{}, fmt.Errorf("payg: unknown candidate generator %q (want auto, exact, or lsh)", o.CandidateGen)
	}
	ts, err := o.termSim()
	if err != nil {
		return feature.Config{}, err
	}
	cfg := feature.Config{
		TermOpts: terms.DefaultOptions(),
		Sim:      ts,
		Tau:      o.TauTSim,
	}
	if o.TauTSim == 0 {
		// withDefaults already resolved this struct's sentinels, so a zero
		// here is a requested literal threshold; pass feature.Config's own
		// negative escape hatch so its zero-means-default rule keeps it.
		cfg.Tau = -1
	}
	return cfg, nil
}

// buildModel is the clustering pipeline: feature space → pair graph (the
// positive pairs of the space's inverted index at or above pairFloor) →
// agglomerative clustering (Algorithm 2) → probabilistic domains
// (Algorithm 3), both algorithms reading the one graph. Every stage honors
// ctx.
func buildModel(ctx context.Context, set schema.Set, fcfg feature.Config, method cluster.Method, opts Options) (*core.Model, error) {
	t := time.Now()
	sp, err := feature.BuildContext(ctx, set, fcfg)
	if err != nil {
		return nil, err
	}
	mBuildPhase.With("features").Observe(time.Since(t).Seconds())
	floor := opts.pairFloor(len(set))
	blocked := floor > 0
	if blocked {
		mBuildMode.With("blocked").Inc()
	} else {
		mBuildMode.With("exact").Inc()
	}
	t = time.Now()
	ps, err := cluster.CompletePairSims(ctx, sp, floor)
	if err != nil {
		return nil, fmt.Errorf("payg: pairwise similarities: %w", err)
	}
	mBuildPhase.With("pairwise").Observe(time.Since(t).Seconds())
	mBuildStoredPairs.Set(float64(ps.NumPairs()))
	if blocked {
		mBuildCandidatePairs.Set(float64(ps.Examined()))
		if n := float64(len(set)); n > 1 {
			mBuildCandidateFraction.Set(float64(ps.Examined()) / (n * (n - 1) / 2))
		}
	}

	t = time.Now()
	cl, err := cluster.AgglomerativeSparse(ctx, sp, cluster.NewLinkage(method), opts.TauCSim, ps, cluster.SparseOptions{})
	if err != nil {
		return nil, fmt.Errorf("payg: %w", err)
	}
	mBuildPhase.With("cluster").Observe(time.Since(t).Seconds())
	mBuildHACWorkers.Set(float64(runtime.GOMAXPROCS(0)))
	mBuildHACComponents.Set(float64(cl.Components))
	mBuildHACLargestComponent.Set(float64(cl.LargestComponent))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t = time.Now()
	model, err := core.AssignDomainsSparse(set, sp, cl, ps, core.Options{TauCSim: opts.TauCSim, Theta: opts.Theta})
	if err != nil {
		return nil, err
	}
	mBuildPhase.With("domains").Observe(time.Since(t).Seconds())
	return model, nil
}

// pairFloor is the one place the pair graph is chosen: Algorithms 2 and 3
// read the positive pairs of the space's inverted index
// (cluster.CompletePairSims) whose similarity is at least the floor it
// returns for n schemas. "exact" is floor 0, every positive pair (the exact
// build); "lsh" is feature.PairFloor (the blocked build); "auto" is exact
// below blockedAutoMin schemas. Build, ApplyFeedback and AddSchema all ask
// it for their model's schema count, so a correction reads the build's
// graph, and so does a system Load rebuilt from the same schemas. The
// options must have passed featureConfig, which rejects any other
// CandidateGen.
func (o Options) pairFloor(n int) float64 {
	if o.CandidateGen == "exact" || o.CandidateGen == "auto" && n < blockedAutoMin {
		return 0
	}
	return feature.PairFloor
}

func (s *System) buildMediation(ctx context.Context) error {
	start := time.Now()
	defer func() { mBuildPhase.With("mediation").Observe(time.Since(start).Seconds()) }()
	// Names are compared through the space's lexicon: mediation's t_sim, τ
	// and tokenisation are the features' (Section 4.4), and no domain splits
	// a name into terms again.
	mopts := mediate.DefaultOptions()
	mopts.FreqThreshold = s.opts.MediationFreqThreshold
	// Resolved options hold a literal 0 as 0, which mediate reads as "use
	// the default"; Negative is its literal 0.
	mopts.Negative = mopts.FreqThreshold == 0

	// Domains are independent, and their sizes are skewed — most hold a few
	// schemas, a few hold dozens — so they fan out over par.EachWith, which
	// claims one index at a time and hands each worker one mediate.Scratch
	// for all of its domains. Results and errors land by domain index: the
	// worker count cannot change a byte.
	n := s.model.NumDomains()
	s.mediated = make([]*mediate.Mediated, n)
	errs := make([]error, n)
	par.EachWith(n, func() *mediate.Scratch { return new(mediate.Scratch) }, func(sc *mediate.Scratch, r int) {
		errs[r] = s.mediateDomain(ctx, r, mopts, sc)
	})
	for _, err := range errs {
		if err != nil {
			return err // the first by domain index, whichever worker met it
		}
	}
	return nil
}

// mediateDomain fills s.mediated[r] in sc, unless another shard owns domain r.
func (s *System) mediateDomain(ctx context.Context, r int, mopts mediate.Options, sc *mediate.Scratch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.localSet != nil && !s.localSet[r] {
		return nil
	}
	members := make(schema.Set, len(s.model.Domains[r].Members))
	for i, mem := range s.model.Domains[r].Members {
		members[i] = s.schemas[mem.Schema]
	}
	med, err := mediate.BuildWith(members, mopts, s.space.Lexicon(), sc)
	if err != nil {
		return fmt.Errorf("payg: mediating domain %d: %w", r, err)
	}
	s.mediated[r] = med
	return nil
}

// NumDomains returns the number of discovered domains (including singleton
// domains of unclustered schemas).
func (s *System) NumDomains() int { return s.model.NumDomains() }

// NumSchemas returns the number of input schemas.
func (s *System) NumSchemas() int { return len(s.schemas) }

// Domains describes every discovered domain.
func (s *System) Domains() []DomainInfo {
	out := make([]DomainInfo, 0, s.model.NumDomains())
	for r := range s.model.Domains {
		if s.localSet != nil && !s.localSet[r] {
			continue // a shard lists only the domains it owns
		}
		d := &s.model.Domains[r]
		info := DomainInfo{ID: r, Unclustered: len(d.Cluster) == 1}
		for _, mem := range d.Members {
			info.Schemas = append(info.Schemas, DomainMember{Name: s.schemas[mem.Schema].Name, Prob: mem.Prob})
		}
		if s.mediated != nil && s.mediated[r] != nil {
			for _, a := range s.mediated[r].Attrs {
				info.MediatedAttributes = append(info.MediatedAttributes, a.Name)
			}
		}
		out = append(out, info)
	}
	return out
}

// Classify ranks domains by relevance to a free-text keyword query and
// returns them best first. The query string is split on whitespace.
func (s *System) Classify(query string) []Score {
	return s.ClassifyKeywords(strings.Fields(query))
}

// ClassifyKeywords ranks domains for an already-tokenized query.
func (s *System) ClassifyKeywords(keywords []string) []Score {
	return s.classifier.Classify(keywords)
}

// ClassifyTop returns the best k domains for an already-tokenized query —
// ClassifyKeywords(keywords)[:k] bit for bit, without ranking the rest.
// k past NumDomains means every domain; k < 1 means none.
func (s *System) ClassifyTop(keywords []string, k int) []Score {
	return s.classifier.Top(keywords, k)
}

// ClassifyBatch returns the best k domains for each of many tokenized
// queries with bounded CPU-parallel fan-out, in input order. Results are
// identical to calling ClassifyTop per query.
func (s *System) ClassifyBatch(queries [][]string, k int) [][]Score {
	return s.classifier.ClassifyBatch(queries, k)
}

// Explanation itemizes a classification per matched vocabulary term.
type Explanation = classify.Explanation

// Explain breaks down why a domain scored the way it did for a query:
// which matched vocabulary terms argued for (or against) it. Compare the
// same term's contribution across domains to see what drove the ranking.
func (s *System) Explain(query string, domain int) (*Explanation, error) {
	return s.classifier.Explain(strings.Fields(query), domain)
}

// MediatedAttributes returns the mediated schema of a domain as attribute
// names — the structured query interface presented to the user.
func (s *System) MediatedAttributes(domain int) ([]string, error) {
	if s.mediated == nil {
		return nil, fmt.Errorf("payg: system built with SkipMediation")
	}
	if domain < 0 || domain >= len(s.mediated) {
		return nil, fmt.Errorf("payg: no domain %d", domain)
	}
	if s.mediated[domain] == nil {
		return nil, fmt.Errorf("payg: domain %d is not local to this shard", domain)
	}
	var out []string
	for _, a := range s.mediated[domain].Attrs {
		out = append(out, a.Name)
	}
	return out, nil
}

// Execute answers a structured query over a domain's mediated schema.
// Sources supplies the data: one Source per input schema, aligned with the
// schema order passed to Build (schemas without data may use an empty
// tuple list). Tuple probabilities combine mapping probability and domain
// membership probability per Section 4.4 of the thesis. Sources that can
// fail are served by an Executor (NewExecutor).
func (s *System) Execute(domain int, q Query, sources []Source) ([]ResultTuple, error) {
	ex, err := s.domainExecutor(domain, func(mem int) (engine.TupleSource, error) {
		if len(sources) != len(s.schemas) {
			return nil, fmt.Errorf("payg: %d sources for %d schemas", len(sources), len(s.schemas))
		}
		src := sources[mem]
		if len(src.Schema.Attributes) != len(s.schemas[mem].Attributes) {
			return nil, fmt.Errorf("payg: source %d schema has %d attributes, built schema has %d",
				mem, len(src.Schema.Attributes), len(s.schemas[mem].Attributes))
		}
		if err := src.Validate(); err != nil {
			return nil, fmt.Errorf("payg: %w", err)
		}
		return src, nil
	})
	if err != nil {
		return nil, err
	}
	res, err := ex.ExecuteContext(context.Background(), q)
	if err != nil {
		return nil, err
	}
	return res.Tuples, nil
}

// domainExecutor builds a per-domain engine executor, resolving each
// member schema index to a TupleSource via pick.
func (s *System) domainExecutor(domain int, pick func(mem int) (engine.TupleSource, error)) (*engine.DomainExecutor, error) {
	if s.mediated == nil {
		return nil, fmt.Errorf("payg: system built with SkipMediation")
	}
	if domain < 0 || domain >= len(s.mediated) {
		return nil, fmt.Errorf("payg: no domain %d", domain)
	}
	if s.mediated[domain] == nil {
		return nil, fmt.Errorf("payg: domain %d is not local to this shard", domain)
	}
	d := &s.model.Domains[domain]
	var srcs []engine.TupleSource
	var probs []float64
	for _, mem := range d.Members {
		src, err := pick(mem.Schema)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, src)
		probs = append(probs, mem.Prob)
	}
	return engine.NewFetchExecutor(s.mediated[domain], srcs, probs)
}

// Model exposes the underlying probabilistic domain model for advanced use
// (evaluation harnesses, custom classifiers).
func (s *System) Model() *core.Model { return s.model }

// Schemas returns the input schemas in build order.
func (s *System) Schemas() []Schema { return s.schemas }
