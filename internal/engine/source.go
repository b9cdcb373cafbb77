package engine

import (
	"context"
	"fmt"
)

// TupleSource abstracts where a data source's tuples come from. A Source
// value is in memory and cannot block or fail: a query reads it in place,
// with no goroutine, policy or breaker. Any other TupleSource — a remote,
// slow or failing source (Section 3.1's deep web), a FlakeSource — is
// fetched on its own goroutine under the policy, so Fetch must honor ctx
// and is called concurrently with other sources' fetches.
type TupleSource interface {
	// Name identifies the source in result attribution and degraded
	// reports; it must match the source's schema name.
	Name() string
	// Fetch returns the source's current tuples. Each tuple must have
	// exactly one value per attribute of the source's schema; the
	// executor rejects (and reports) sources that return malformed rows.
	Fetch(ctx context.Context) ([]Tuple, error)
}

// Name implements TupleSource.
func (s Source) Name() string { return s.Schema.Name }

// Fetch implements TupleSource: an in-memory source answers instantly
// with its tuple slice (shared, not copied — callers must not mutate).
func (s Source) Fetch(ctx context.Context) ([]Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Tuples, nil
}

// validateWidth checks that every fetched tuple has exactly arity values.
func validateWidth(name string, tuples []Tuple, arity int) error {
	for i, t := range tuples {
		if len(t) != arity {
			return fmt.Errorf("source %q: tuple %d has %d values, schema has %d attributes",
				name, i, len(t), arity)
		}
	}
	return nil
}
