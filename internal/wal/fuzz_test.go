package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frame is the on-disk encoding of one record: length, CRC, payload.
func frame(p []byte) []byte {
	buf := make([]byte, headerSize, headerSize+len(p))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(p))
	return append(buf, p...)
}

// FuzzWALOpen: whatever bytes a log file holds, Open must not panic and must
// keep a prefix of them. Size() is at most the file's length; appending the
// Recovered() records to a fresh log writes exactly the file's first Size()
// bytes, which is what Open left on disk; and opening the file again
// recovers the same records with nothing torn.
func FuzzWALOpen(f *testing.F) {
	var valid []byte
	for _, r := range testRecords() {
		valid = append(valid, frame(r)...)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	huge := frame([]byte("x"))
	binary.LittleEndian.PutUint32(huge[0:4], MaxRecordSize+1)
	f.Add(append(frame([]byte("ok")), huge...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, Options{Mode: SyncNone})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		size, recs := l.Size(), l.Recovered()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if size > int64(len(data)) || size+l.TornBytes() != int64(len(data)) {
			t.Fatalf("Size %d and %d torn bytes of a %d-byte file", size, l.TornBytes(), len(data))
		}
		if left, err := os.ReadFile(path); err != nil || !bytes.Equal(left, data[:size]) {
			t.Fatalf("Open left %d bytes on disk (%v), want the first %d of the input", len(left), err, size)
		}

		fresh := filepath.Join(dir, "fresh.wal")
		w, err := Open(fresh, Options{Mode: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if written, err := os.ReadFile(fresh); err != nil || !bytes.Equal(written, data[:size]) {
			t.Fatalf("re-appending the %d recovered records wrote %d bytes (%v), not the input's first %d", len(recs), len(written), err, size)
		}

		again, err := Open(path, Options{Mode: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		got := again.Recovered()
		if again.Size() != size || again.TornBytes() != 0 || len(got) != len(recs) {
			t.Fatalf("reopened: %d records in %d bytes, %d torn; first open %d records in %d bytes", len(got), again.Size(), again.TornBytes(), len(recs), size)
		}
		for i := range recs {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("reopened: record %d is %q, first open %q", i, got[i], recs[i])
			}
		}
	})
}
