package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A crash mid-append leaves a final line without its newline. That record
// was never acked; reopening must drop it, or the next acked arrival is
// glued onto the fragment and lost as one unparseable line.
func TestArrivalJournalDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenArrivalJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(UnroutableArrival{Name: "a", Attributes: []string{"x"}, Reason: "fresh"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, unroutableName)
	torn := []byte(`{"name":"torn","attr`)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err = OpenArrivalJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := j.TornBytes(); got != int64(len(torn)) {
		t.Errorf("TornBytes = %d, want %d", got, len(torn))
	}
	if got := j.Len(); got != 1 {
		t.Errorf("Len after reopen = %d, want 1 (the torn record was never acked)", got)
	}
	if err := j.Append(UnroutableArrival{Name: "b", Attributes: []string{"y"}, Reason: "fresh"}); err != nil {
		t.Fatal(err)
	}
	if got := j.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("journal holds %d lines, want 2:\n%s", len(lines), data)
	}
	for i, want := range []string{"a", "b"} {
		var a UnroutableArrival
		if err := json.Unmarshal(lines[i], &a); err != nil || a.Name != want {
			t.Errorf("line %d = %q (%v), want arrival %q", i, lines[i], err, want)
		}
	}
}
