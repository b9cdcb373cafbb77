package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"time"

	"schemaflow/internal/obs"
	"schemaflow/payg"
)

// Follower/snapshot-shipping metrics. One process follows at most one
// leader, so none are labeled.
var (
	mSnapshotsServed = obs.Default().Counter(
		"schemaflow_snapshots_served_total",
		"Full snapshots streamed to GET /admin/snapshot callers (304 Not Modified polls excluded).")
	mFollowerPolls = obs.Default().Counter(
		"schemaflow_follower_polls_total",
		"Snapshot polls sent to the leader, including ones answered 304 Not Modified.")
	mFollowerSyncs = obs.Default().Counter(
		"schemaflow_follower_syncs_total",
		"Leader snapshots downloaded and atomically swapped into local serving.")
	mFollowerSyncErrors = obs.Default().Counter(
		"schemaflow_follower_sync_errors_total",
		"Poll or restore attempts that failed (leader unreachable, bad snapshot, restore error).")
	mFollowerLeaderGeneration = obs.Default().Gauge(
		"schemaflow_follower_leader_generation",
		"Last generation observed on the leader. Minus schemaflow_swap_generation = replication lag in swaps.")
)

// maxSnapshotBytes caps one snapshot download so a confused (or
// malicious) leader cannot balloon the follower's heap. A real snapshot is
// about the size of its schemas (0.5 MiB at 6,000), nowhere near the cap.
const maxSnapshotBytes = 1 << 30

// FollowerConfig tunes a snapshot-shipping follower.
type FollowerConfig struct {
	// Leader is the leader's base URL, e.g. "http://leader:8080".
	Leader string
	// Interval is the poll period (default 2s). Each poll is a single
	// conditional request; a full download happens only when the leader's
	// generation advanced.
	Interval time.Duration
	// Client is the HTTP client used against the leader. Nil selects a
	// client with a 30s timeout.
	Client *http.Client
	// Logger receives sync lifecycle messages. Nil discards them.
	Logger *slog.Logger
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	c.Leader = strings.TrimRight(c.Leader, "/")
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Follower keeps a read-only replica converged on its leader by polling
// GET /admin/snapshot and atomically swapping in each new generation —
// the snapshot-shipping half of the durable serving tier. The leader's
// generation counter is the replication clock: a 304 means "nothing new",
// anything else ships the full state — schemas and decisions only; the
// follower derives the classifier tables and mediation itself, as every
// load does.
type Follower struct {
	mgr *payg.Manager
	cfg FollowerConfig

	// epoch is the leader incarnation observed on the last response (empty
	// until first contact). It is echoed back on every poll so a restarted
	// leader — possibly counting generations from 0 again — ships a full
	// snapshot instead of false-304ing at a coincidentally equal number.
	// Sync runs on a single goroutine (Run), so a plain field suffices.
	epoch string
}

// NewFollower wraps a manager (serving without data sources) as a
// follower of cfg.Leader.
func NewFollower(mgr *payg.Manager, cfg FollowerConfig) *Follower {
	return &Follower{mgr: mgr, cfg: cfg.withDefaults()}
}

// FetchSnapshot downloads a full snapshot from the leader at base,
// returning the payload and the generation it was taken at — the
// bootstrap a follower starts from (payg.LoadManagerAt).
func FetchSnapshot(ctx context.Context, client *http.Client, base string) ([]byte, int, error) {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/admin/snapshot", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("fetching leader snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("leader snapshot: unexpected status %s", resp.Status)
	}
	gen, err := strconv.Atoi(resp.Header.Get(generationHeader))
	if err != nil {
		return nil, 0, fmt.Errorf("leader snapshot: bad %s header %q", generationHeader, resp.Header.Get(generationHeader))
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes+1))
	if err != nil {
		return nil, 0, fmt.Errorf("reading leader snapshot: %w", err)
	}
	if len(body) > maxSnapshotBytes {
		return nil, 0, fmt.Errorf("leader snapshot exceeds %d bytes", maxSnapshotBytes)
	}
	return body, gen, nil
}

// Sync performs one poll: a conditional snapshot request that downloads
// and swaps in the leader's state whenever the leader is at a different
// generation — higher or lower — or a different epoch (a restarted
// leader). It reports whether a new state was adopted. A leader restarted
// at a lower generation is adopted, not ignored: its state is different,
// and "behind the follower" is not a concept snapshot shipping has.
func (f *Follower) Sync(ctx context.Context) (bool, error) {
	mFollowerPolls.Inc()
	local := f.mgr.Generation()
	url := fmt.Sprintf("%s/admin/snapshot?after=%d", f.cfg.Leader, local)
	if f.epoch != "" {
		url += "&epoch=" + neturl.QueryEscape(f.epoch)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		mFollowerSyncErrors.Inc()
		return false, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		mFollowerSyncErrors.Inc()
		return false, fmt.Errorf("polling leader: %w", err)
	}
	defer resp.Body.Close()
	if gen, err := strconv.Atoi(resp.Header.Get(generationHeader)); err == nil {
		mFollowerLeaderGeneration.Set(float64(gen))
	}
	if e := resp.Header.Get(epochHeader); e != "" {
		f.epoch = e
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		return false, nil
	case http.StatusOK:
	default:
		// Drain before the deferred close so the connection can be reused;
		// abandoning an unread body forces a fresh TCP+TLS handshake per
		// poll during an error storm, exactly when the leader is sickest.
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxSnapshotBytes)) //nolint:errcheck
		mFollowerSyncErrors.Inc()
		return false, fmt.Errorf("polling leader: unexpected status %s", resp.Status)
	}
	gen, err := strconv.Atoi(resp.Header.Get(generationHeader))
	if err != nil {
		mFollowerSyncErrors.Inc()
		return false, fmt.Errorf("leader snapshot: bad %s header %q", generationHeader, resp.Header.Get(generationHeader))
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes+1))
	if err != nil {
		mFollowerSyncErrors.Inc()
		return false, fmt.Errorf("downloading leader snapshot: %w", err)
	}
	if len(body) > maxSnapshotBytes {
		mFollowerSyncErrors.Inc()
		return false, fmt.Errorf("leader snapshot exceeds %d bytes", maxSnapshotBytes)
	}
	if err := f.mgr.Restore(bytes.NewReader(body), gen); err != nil {
		mFollowerSyncErrors.Inc()
		return false, fmt.Errorf("restoring leader snapshot: %w", err)
	}
	mFollowerSyncs.Inc()
	f.cfg.Logger.Info("follower: adopted leader snapshot",
		slog.Int("generation", gen),
		slog.Int("previous_generation", local),
		slog.Int("bytes", len(body)))
	return true, nil
}

// maxBackoffIntervals caps the consecutive-error backoff at this many
// poll intervals, so a dead leader is polled at a gentle rate instead of
// the full tick rate (each failed poll also costs a cold connection — see
// the drain in Sync) while recovery is still noticed within ~16 ticks.
const maxBackoffIntervals = 16

// Run polls until ctx is cancelled. Sync errors are logged and retried
// with capped exponential backoff — each consecutive failure doubles the
// wait up to maxBackoffIntervals poll intervals; the first success snaps
// back to the configured interval. A follower outlives leader restarts
// and network blips without hammering a dead leader.
func (f *Follower) Run(ctx context.Context) {
	delay := f.cfg.Interval
	t := time.NewTimer(delay)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := f.Sync(ctx); err != nil && ctx.Err() == nil {
				delay *= 2
				if max := f.cfg.Interval * maxBackoffIntervals; delay > max {
					delay = max
				}
				f.cfg.Logger.Warn("follower: sync failed; will retry",
					slog.Any("error", err),
					slog.Duration("backoff", delay))
			} else {
				delay = f.cfg.Interval
			}
			t.Reset(delay)
		}
	}
}
