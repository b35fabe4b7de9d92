package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

type payload struct {
	Name  string
	Count int
	Data  []byte
}

func snapPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "s.ckpt")
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := snapPath(t)
	in := payload{Name: "tp0", Count: 42, Data: []byte{1, 2, 3}}
	if err := WriteSnapshot(path, KindAnalysis, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := ReadSnapshot(path, KindAnalysis, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Count != in.Count || string(out.Data) != string(in.Data) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestSnapshotAtomicReplace(t *testing.T) {
	path := snapPath(t)
	if err := WriteSnapshot(path, KindAnalysis, payload{Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(path, KindAnalysis, payload{Count: 2}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := ReadSnapshot(path, KindAnalysis, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 {
		t.Fatalf("Count = %d, want 2", out.Count)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1 (no temp files)", len(entries))
	}
}

// TestSnapshotCorruption is the satellite-mandated matrix: truncation, a
// flipped CRC byte and a wrong version header must each yield the typed
// ErrCorruptCheckpoint, never partial data.
func TestSnapshotCorruption(t *testing.T) {
	path := snapPath(t)
	if err := WriteSnapshot(path, KindAnalysis, payload{Name: "x", Count: 7}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated header":  good[:len(Magic)-3],
		"truncated frame":   good[:len(Magic)+4],
		"truncated payload": good[:len(good)-2],
		"empty":             {},
		"wrong version":     append([]byte("tango.ckpt/9\n"), good[len(Magic):]...),
		"trailing garbage":  append(append([]byte{}, good...), 0xde, 0xad),
	}
	// Flipped payload byte (CRC mismatch).
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-1] ^= 0xff
	cases["flipped payload byte"] = flipped
	// Flipped CRC field itself.
	crcFlip := append([]byte{}, good...)
	crcFlip[len(Magic)+5] ^= 0x01
	cases["flipped crc"] = crcFlip

	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			p := snapPath(t)
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var out payload
			err := ReadSnapshot(p, KindAnalysis, &out)
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
			}
		})
	}
}

func TestSnapshotWrongKind(t *testing.T) {
	path := snapPath(t)
	if err := WriteSnapshot(path, KindBatchMeta, BatchMeta{Mode: "FULL"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := ReadSnapshot(path, KindAnalysis, &out); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}

func TestSnapshotMissingFilePassesThrough(t *testing.T) {
	var out payload
	err := ReadSnapshot(filepath.Join(t.TempDir(), "nope.ckpt"), KindAnalysis, &out)
	if err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want plain file error", err)
	}
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ckpt")
	j, err := CreateBatchLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(KindBatchMeta, BatchMeta{SpecDigest: "d", NumItems: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.append("p", payload{Name: "t", Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, truncated, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("clean journal reported truncated")
	}
	if len(recs) != 4 || recs[0].Kind != KindBatchMeta {
		t.Fatalf("got %d records, first kind %q", len(recs), recs[0].Kind)
	}
	for i, rec := range recs[1:] {
		var p payload
		if err := rec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Count != i {
			t.Fatalf("record %d: %+v", i, p)
		}
	}
}

// TestJournalTornTail simulates SIGKILL mid-append: a partial trailing record
// must be dropped (truncated=true), everything before it replayed intact, and
// compacting the batch log must leave a clean file that later appends extend.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ckpt")
	log, err := CreateBatchLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Admit(BatchMeta{NumItems: 3}); err != nil {
		t.Fatal(err)
	}
	if err := log.Row("", 0, obs.BatchItem{Trace: "t0"}); err != nil {
		t.Fatal(err)
	}
	if err := log.Row("", 1, obs.BatchItem{Trace: "t1"}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	// Tear the last record.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	recs, truncated, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(recs) != 2 {
		t.Fatalf("truncated=%v records=%d, want true/2", truncated, len(recs))
	}

	plan, err := ReplayBatchLog[BatchMeta](path)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Truncated || len(plan.Batches) != 1 || len(plan.Batches[0].Rows) != 1 {
		t.Fatalf("plan: truncated=%v batches=%d", plan.Truncated, len(plan.Batches))
	}
	log2, err := CompactBatchLog(path, plan.Batches)
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.Row("", 2, obs.BatchItem{Trace: "t2"}); err != nil {
		t.Fatal(err)
	}
	log2.Close()
	plan, err = ReplayBatchLog[BatchMeta](path)
	if err != nil {
		t.Fatal(err)
	}
	rows := plan.Batches[0].Rows
	if plan.Truncated || len(rows) != 2 || rows[0].Trace != "t0" || rows[2].Trace != "t2" {
		t.Fatalf("after repair: truncated=%v rows=%v, want false and rows 0 and 2", plan.Truncated, rows)
	}
}

// TestJournalMidFileCorruption: a flipped byte in an interior record is
// corruption, not a crash artifact — replay must refuse the whole journal.
func TestJournalMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ckpt")
	j, err := CreateBatchLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.append("p", payload{Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(Magic)+12] ^= 0x40 // inside the first record's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayJournal(path); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}
