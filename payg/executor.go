package payg

import (
	"context"
	"fmt"
	"sync"

	"schemaflow/internal/engine"
	"schemaflow/internal/resilience"
)

// Policy re-exports the resilience policy applied to per-source fetches:
// per-attempt timeout, bounded retries with exponential backoff + jitter,
// and a per-source circuit breaker.
type Policy = resilience.Policy

// BreakerState re-exports the circuit-breaker state enum for callers
// inspecting per-source health (Manager.BreakerStates).
type BreakerState = resilience.State

// Re-exported breaker states.
const (
	BreakerClosed   = resilience.Closed
	BreakerOpen     = resilience.Open
	BreakerHalfOpen = resilience.HalfOpen
)

// DefaultPolicy returns the tuned per-source defaults (2s timeout, 2
// retries, breaker opening after 5 consecutive failures).
func DefaultPolicy() Policy { return resilience.DefaultPolicy() }

// BreakerPool shares per-source circuit breakers across executors, keyed
// by source name. Successive executors bound to the same pool — e.g.
// before and after an ingestion rebuild swaps the system — see the same
// breaker for the same source, so a source's failure history (and an open
// circuit) survives the swap. Safe for concurrent use.
type BreakerPool struct {
	policy Policy

	mu     sync.Mutex
	byName map[string]*resilience.Breaker
}

// NewBreakerPool returns an empty pool that mints breakers from the
// policy's breaker parameters (no breakers at all when the policy disables
// breaking).
func NewBreakerPool(policy Policy) *BreakerPool {
	return &BreakerPool{policy: policy, byName: make(map[string]*resilience.Breaker)}
}

// Get returns the breaker for a source name, creating it on first use.
// Returns nil when the policy disables breaking. New breakers export their
// state and transitions to the default metrics registry under the source
// name.
func (bp *BreakerPool) Get(name string) *resilience.Breaker {
	if bp.policy.BreakerThreshold <= 0 {
		return nil
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	b, ok := bp.byName[name]
	if !ok {
		b = bp.policy.NewBreaker()
		source := name
		b.WithTransitionHook(func(from, to resilience.State) {
			mBreakerTransitions.With(source, to.String()).Inc()
			mBreakerState.With(source).Set(float64(to))
		})
		mBreakerState.With(source).Set(float64(resilience.Closed))
		bp.byName[name] = b
	}
	return b
}

// States reports every pooled breaker's current state, keyed by source
// name — the per-source health view behind /healthz. Empty (never nil)
// when no breakers exist yet.
func (bp *BreakerPool) States() map[string]BreakerState {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	out := make(map[string]BreakerState, len(bp.byName))
	for name, b := range bp.byName {
		out[name] = b.State()
	}
	return out
}

// Executor binds a System to a fixed set of data sources under a
// resilience policy. Unlike System.Execute, which builds a fresh engine
// per call, an Executor keeps one engine per domain alive so per-source
// circuit-breaker state persists across queries — a source that keeps
// failing stops being fetched at all until its cooldown elapses. Safe for
// concurrent use.
type Executor struct {
	sys      *System
	fetchers []TupleSource
	policy   Policy
	pool     *BreakerPool

	mu        sync.Mutex
	perDomain map[int]*engine.DomainExecutor
}

// NewExecutor binds the system to one TupleSource per input schema
// (aligned with the schema order passed to Build) under the policy. Use
// resilience.Policy{} to disable timeouts, retries, and breaking; in-memory
// Sources are read in place, under neither. Breakers come from pool, so
// their state carries across executors bound to it (and a model swap keeps
// its failure history); a nil pool means a private one.
func (s *System) NewExecutor(fetchers []TupleSource, policy Policy, pool *BreakerPool) (*Executor, error) {
	if s.mediated == nil {
		return nil, fmt.Errorf("payg: system built with SkipMediation")
	}
	if len(fetchers) != len(s.schemas) {
		return nil, fmt.Errorf("payg: %d sources for %d schemas", len(fetchers), len(s.schemas))
	}
	for i, f := range fetchers {
		if f == nil {
			return nil, fmt.Errorf("payg: nil source for schema %d", i)
		}
	}
	if pool == nil {
		pool = NewBreakerPool(policy)
	}
	// Pre-warm the breaker of every source that can fail, so health and
	// metrics report it from startup, not only after its first query.
	for _, f := range fetchers {
		if _, inMemory := f.(Source); !inMemory {
			pool.Get(f.Name())
		}
	}
	return &Executor{
		sys:       s,
		fetchers:  fetchers,
		policy:    policy,
		pool:      pool,
		perDomain: make(map[int]*engine.DomainExecutor),
	}, nil
}

// System returns the system the executor is bound to.
func (e *Executor) System() *System { return e.sys }

// Execute answers a structured query over one domain, fetching its member
// sources concurrently under ctx and the policy. Sources that fail (or
// whose breaker is open) are reported in Result.Failures while the healthy
// sources' consolidated tuples are returned.
func (e *Executor) Execute(ctx context.Context, domain int, q Query) (*Result, error) {
	ex, err := e.executor(domain)
	if err != nil {
		return nil, err
	}
	return ex.ExecuteContext(ctx, q)
}

// executor returns the lazily built, breaker-carrying engine for domain.
func (e *Executor) executor(domain int) (*engine.DomainExecutor, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ex, ok := e.perDomain[domain]; ok {
		return ex, nil
	}
	ex, err := e.sys.domainExecutor(domain, func(mem int) (engine.TupleSource, error) {
		return e.fetchers[mem], nil
	})
	if err != nil {
		return nil, err
	}
	ex.SetPolicy(e.policy, e.pool.Get)
	e.perDomain[domain] = ex
	return ex, nil
}
