package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"schemaflow/payg"
)

func serverFor(t *testing.T, schemas []payg.Schema) *Server {
	t.Helper()
	sys, err := payg.Build(schemas, payg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Regression for the follower stale-state stall: a leader that restarts
// from scratch counts generations from 0 again, so its generation can be
// below — or coincidentally equal to — what the follower already holds.
// The old `leaderGen <= localGen → 304` comparison made the follower
// treat the restarted leader's state as already-seen and stall on it
// forever; generation-equality plus the epoch header must force a full
// resync instead.
func TestFollowerReconvergesAfterLeaderRestart(t *testing.T) {
	leaderA := serverFor(t, []payg.Schema{
		{Name: "air1", Attributes: []string{"departure", "destination", "airline"}},
		{Name: "air2", Attributes: []string{"departure city", "destination city", "carrier"}},
		{Name: "bib1", Attributes: []string{"title", "authors", "publication year"}},
		{Name: "bib2", Attributes: []string{"paper title", "author", "year"}},
	})
	defer leaderA.Close()

	// The "leader address": one URL whose backing process can be swapped,
	// as a restart (or failover to a rebuilt leader) does in production.
	var current atomic.Pointer[Server]
	current.Store(leaderA)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx := context.Background()
	snap, gen, err := FetchSnapshot(ctx, nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := payg.LoadManagerAt(bytes.NewReader(snap), gen, nil, payg.ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	f := NewFollower(mgr, FollowerConfig{Leader: ts.URL})

	// Converge on leader A at generation 1 (one applied feedback).
	if _, err := leaderA.Manager().ApplyFeedback(payg.Feedback{Splits: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if changed, err := f.Sync(ctx); err != nil || !changed {
		t.Fatalf("initial convergence: changed=%v err=%v", changed, err)
	}
	if mgr.Generation() != 1 {
		t.Fatalf("follower at generation %d, want 1", mgr.Generation())
	}

	// Restart: a fresh leader with different state, counting from 0 —
	// strictly below the follower's generation.
	leaderB := serverFor(t, demoCorpus())
	defer leaderB.Close()
	current.Store(leaderB)
	changed, err := f.Sync(ctx)
	if err != nil || !changed {
		t.Fatalf("sync against restarted leader (gen 0 < follower gen 1): changed=%v err=%v", changed, err)
	}
	if got, want := mgr.Status().Domains, leaderB.Manager().Status().Domains; got != want {
		t.Fatalf("follower has %d domains after restart resync, leader B has %d", got, want)
	}
	if mgr.Generation() != 0 {
		t.Fatalf("follower at generation %d after resync, want leader B's 0", mgr.Generation())
	}

	// Second restart at a COINCIDENTALLY EQUAL generation: only the epoch
	// distinguishes leader C's generation 0 from leader B's generation 0.
	leaderC := serverFor(t, []payg.Schema{
		{Name: "solo", Attributes: []string{"lone attribute"}},
	})
	defer leaderC.Close()
	current.Store(leaderC)
	changed, err = f.Sync(ctx)
	if err != nil || !changed {
		t.Fatalf("sync against equal-generation restarted leader: changed=%v err=%v", changed, err)
	}
	if got, want := mgr.Status().Domains, leaderC.Manager().Status().Domains; got != want {
		t.Fatalf("follower has %d domains, leader C has %d", got, want)
	}

	// And once converged on the same epoch, polls are cheap 304s again.
	if changed, err := f.Sync(ctx); err != nil || changed {
		t.Fatalf("steady state after reconvergence: changed=%v err=%v", changed, err)
	}
}

func demoCorpus() []payg.Schema {
	return []payg.Schema{
		{Name: "flights", Attributes: []string{"departure airport", "destination airport", "airline", "class"}},
		{Name: "trips", Attributes: []string{"departure", "destination", "departing date", "returning date"}},
		{Name: "tickets", Attributes: []string{"departure city", "destination city", "airline", "price"}},
		{Name: "papers", Attributes: []string{"title", "authors", "publication year", "conference"}},
		{Name: "books", Attributes: []string{"title", "author", "publisher", "year"}},
		{Name: "oddball", Attributes: []string{"telescope aperture", "seismograph reading"}},
	}
}
