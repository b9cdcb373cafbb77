// Save/restore: the pay-as-you-go lifecycle across process restarts. Save
// persists the decisions Build made (clusters, domain memberships, any user
// corrections) and Load rebuilds everything derived from them — the
// classifier's tables included — without re-clustering, so queries answer
// identically before and after. On-disk snapshots go
// through SaveFile, which writes a temp file, fsyncs, and renames, so a
// crash mid-save can never leave a truncated snapshot behind.
//
//	go run ./examples/saverestore
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"schemaflow/internal/dataset"
	"schemaflow/payg"
)

func main() {
	corpus := dataset.Union(dataset.DW(1), dataset.SS(2))

	start := time.Now()
	sys, err := payg.Build(corpus, payg.Options{SkipMediation: true})
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built system over %d schemas in %s; snapshot is %d bytes\n",
		sys.NumSchemas(), buildTime.Round(time.Millisecond), buf.Len())

	start = time.Now()
	restored, err := payg.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored in %s (no re-clustering)\n",
		time.Since(start).Round(time.Millisecond))

	// The same snapshot, written to disk atomically: SaveFile stages a temp
	// file in the target directory, fsyncs, then renames into place.
	dir, err := os.MkdirTemp("", "saverestore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.snap")
	if err := sys.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("wrote %s atomically (%d bytes)\n\n", filepath.Base(path), fi.Size())

	for _, q := range []string{
		"hotel check in amenities",
		"cve severity patch",
		"grade school district",
	} {
		a := sys.Classify(q)[0]
		b := restored.Classify(q)[0]
		match := "==" // identical scores expected
		if a.Domain != b.Domain || a.LogPosterior != b.LogPosterior {
			match = "MISMATCH"
		}
		fmt.Printf("%-30q original → %3d, restored → %3d  %s\n", q, a.Domain, b.Domain, match)
	}
}
