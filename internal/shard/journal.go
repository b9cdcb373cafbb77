package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// unroutableName is the router's arrival journal: schemas the router
// accepted (202) but could not hand to a shard — globally fresh arrivals
// (no shard's domains claimed them; they must seed a new domain at the
// next recluster, which is a topology-wide operation) and arrivals that
// hit a shard outage mid-routing. One JSON object per line; an operator
// re-drains it by replaying each line against POST /schemas once the
// topology is healthy (see docs/OPERATIONS.md).
const unroutableName = "unroutable.jsonl"

// UnroutableArrival is one journaled arrival.
type UnroutableArrival struct {
	Name       string   `json:"name"`
	Attributes []string `json:"attributes"`
	// Reason is why routing failed: "fresh" or "shard-unavailable".
	Reason string `json:"reason"`
}

// ArrivalJournal is the router-side durable holding pen for unroutable
// arrivals. Appends are fsynced before they return, so a 202 acked
// against the journal survives a router crash — the same no-lost-acks
// contract the shards' WALs give routed arrivals.
type ArrivalJournal struct {
	mu    sync.Mutex
	f     *os.File
	count int
	torn  int64
}

// OpenArrivalJournal opens (creating if needed) the journal in dir and
// counts the entries already present. A final line without its newline is
// the record a crash interrupted — never acked — so it is truncated away
// (see TornBytes); left in place, the next Append would be glued onto it
// and an acked arrival would become one unparseable line.
func OpenArrivalJournal(dir string) (*ArrivalJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating journal dir: %w", err)
	}
	path := filepath.Join(dir, unroutableName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("shard: opening arrival journal: %w", err)
	}
	j := &ArrivalJournal{f: f}
	var whole int64 // bytes in newline-terminated lines
	rd := bufio.NewReader(f)
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			j.torn = int64(len(line))
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("shard: scanning arrival journal: %w", err)
		}
		whole += int64(len(line))
		if len(line) > 1 {
			j.count++
		}
	}
	if j.torn > 0 {
		err := f.Truncate(whole)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("shard: truncating torn arrival journal tail: %w", err)
		}
	}
	return j, nil
}

// TornBytes reports how many bytes of a torn final record were dropped
// when the journal was opened (0 after a clean shutdown).
func (j *ArrivalJournal) TornBytes() int64 { return j.torn }

// Append journals one arrival, fsynced.
func (j *ArrivalJournal) Append(a UnroutableArrival) error {
	p, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("shard: encoding journaled arrival: %w", err)
	}
	p = append(p, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("shard: arrival journal closed")
	}
	if _, err := j.f.Write(p); err != nil {
		return fmt.Errorf("shard: journaling arrival: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("shard: syncing arrival journal: %w", err)
	}
	j.count++
	return nil
}

// Len returns how many arrivals are journaled (including entries that
// predate this process).
func (j *ArrivalJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Close closes the journal file. Further Appends fail.
func (j *ArrivalJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
