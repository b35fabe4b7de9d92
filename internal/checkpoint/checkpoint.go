// Package checkpoint implements Tango's crash-safe on-disk progress format,
// tango.ckpt/1: a versioned, CRC-guarded container used both for single-run
// analysis snapshots (one record, written atomically) and for the batch log
// that `tango batch -checkpoint` and `tango serve` share (an append-only
// record stream that survives SIGKILL mid-write; see BatchLog).
//
// The file layout is
//
//	"tango.ckpt/1\n"                       magic version header
//	repeat:
//	  u32le  payload length
//	  u32le  CRC-32C (Castagnoli) of the payload
//	  bytes  payload (gob-encoded Record)
//
// Snapshot files contain exactly one record and are written with the
// temp-file-plus-rename idiom, so a reader never observes a half-written
// snapshot: it either sees the old file or the new one. Journals are appended
// in place and fsynced per record; the only legal crash artifact is a
// truncated final record, which replay detects and drops (crash-only design:
// the corresponding item simply re-runs on resume). Every other anomaly —
// bad magic, a flipped bit, a record whose CRC does not match — is reported
// as ErrCorruptCheckpoint and never yields a partial resume.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic is the version header every tango.ckpt/1 file starts with. The
// version component must change whenever the frame layout or the meaning of
// an existing record kind changes.
const Magic = "tango.ckpt/1\n"

// maxRecordBytes bounds one record, guarding replay against a corrupt length
// prefix asking for gigabytes.
const maxRecordBytes = 1 << 28

// ErrCorruptCheckpoint reports a checkpoint file that cannot be trusted:
// wrong or missing version header, truncated data, or a CRC mismatch.
// Resume paths must treat it as "no checkpoint" (start from scratch), never
// as partial state.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// corruptf wraps ErrCorruptCheckpoint with positional detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("checkpoint: %w: %s", ErrCorruptCheckpoint, fmt.Sprintf(format, args...))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one checkpoint entry: a kind tag naming the payload type and the
// gob encoding of the payload itself. The kinds in use:
//
//   - KindAnalysis ("analysis"): the one record of an analysis snapshot;
//   - KindAdmit ("work-batch"): a batch log's admission record, one
//     Admission (BatchMeta for the CLI, the serve request for /v1/batch);
//   - KindRow ("work-row"): one finished batch row, as JSON;
//   - KindStop ("work-stop"): the row after which a batch stopped early;
//   - KindDone ("work-done"): a batch is finished;
//   - KindBatchMeta ("batch-meta") and KindBatchItem ("batch-item"): the
//     admission and row kinds of older CLI logs, read as aliases of
//     KindAdmit and KindRow and no longer written.
type Record struct {
	Kind string
	Data []byte
}

// Decode gob-decodes the record payload into v.
func (r *Record) Decode(v any) error {
	if err := gob.NewDecoder(bytes.NewReader(r.Data)).Decode(v); err != nil {
		return corruptf("record %q payload: %v", r.Kind, err)
	}
	return nil
}

// encodeRecord frames one record: gob(Record) prefixed by length and CRC.
func encodeRecord(kind string, payload any) ([]byte, error) {
	var data bytes.Buffer
	if err := gob.NewEncoder(&data).Encode(payload); err != nil {
		return nil, fmt.Errorf("checkpoint: encode %q payload: %w", kind, err)
	}
	var rec bytes.Buffer
	if err := gob.NewEncoder(&rec).Encode(Record{Kind: kind, Data: data.Bytes()}); err != nil {
		return nil, fmt.Errorf("checkpoint: encode %q record: %w", kind, err)
	}
	frame := make([]byte, 8+rec.Len())
	binary.LittleEndian.PutUint32(frame[0:4], uint32(rec.Len()))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(rec.Bytes(), castagnoli))
	copy(frame[8:], rec.Bytes())
	return frame, nil
}

// readRecord consumes one framed record from b. It distinguishes a cleanly
// truncated tail (crash artifact: io.ErrUnexpectedEOF) from corruption
// (ErrCorruptCheckpoint), and returns the remaining bytes.
func readRecord(b []byte) (rec Record, rest []byte, err error) {
	if len(b) < 8 {
		return rec, nil, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if n == 0 || n > maxRecordBytes {
		return rec, nil, corruptf("record length %d out of range", n)
	}
	if len(b) < 8+int(n) {
		return rec, nil, io.ErrUnexpectedEOF
	}
	payload := b[8 : 8+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return rec, nil, corruptf("record CRC mismatch")
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return rec, nil, corruptf("record envelope: %v", err)
	}
	return rec, b[8+int(n):], nil
}

// ---------------------------------------------------------------------------
// Snapshot files (exactly one record, atomic replace)

// SyncDir fsyncs a directory, making a just-created or just-renamed entry in
// it durable. File-level Sync alone is not enough on journaling filesystems:
// the data can be on disk while the directory entry pointing at it is not,
// and a crash then loses the "durable" file. Callers pair this with every
// rename-into-place or create that a durability claim rests on.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteSnapshot atomically writes a one-record checkpoint file: the frame is
// written to a temp file in the same directory, fsynced, renamed over path,
// and the directory is fsynced, so a concurrent crash leaves either the
// previous snapshot or the new one — never a torn file, never a lost rename.
func WriteSnapshot(path, kind string, payload any) error {
	frame, err := encodeRecord(kind, payload)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write([]byte(Magic)); err == nil {
		_, err = tmp.Write(frame)
		if err == nil {
			err = tmp.Sync()
		}
	} else {
		tmp.Close()
		return err
	}
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// ReadSnapshot reads a one-record checkpoint written by WriteSnapshot,
// validates the version header, frame and CRC, checks the record kind, and
// decodes the payload into v. Any anomaly — truncation included — yields
// ErrCorruptCheckpoint; file-access problems pass through unchanged.
func ReadSnapshot(path, kind string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rest, err := checkMagic(b)
	if err != nil {
		return err
	}
	rec, rest, err := readRecord(rest)
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return corruptf("truncated snapshot")
		}
		return err
	}
	if len(rest) != 0 {
		return corruptf("%d trailing bytes after snapshot record", len(rest))
	}
	if rec.Kind != kind {
		return corruptf("record kind %q, want %q", rec.Kind, kind)
	}
	return rec.Decode(v)
}

func checkMagic(b []byte) (rest []byte, err error) {
	if len(b) < len(Magic) || string(b[:len(Magic)]) != Magic {
		return nil, corruptf("missing or unknown version header (want %q)", Magic[:len(Magic)-1])
	}
	return b[len(Magic):], nil
}

// ---------------------------------------------------------------------------
// Journal replay (a BatchLog's record stream, crash-tolerant tail)

// ReplayJournal reads every intact record of a journal. A truncated final
// record — the one legal crash artifact of a kill mid-append — is dropped and
// reported via truncated; any earlier anomaly (bad header, CRC mismatch, bad
// length) is ErrCorruptCheckpoint. File-access problems pass through.
func ReplayJournal(path string) (recs []Record, truncated bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	rest, err := checkMagic(b)
	if err != nil {
		return nil, false, err
	}
	for len(rest) > 0 {
		var rec Record
		rec, rest, err = readRecord(rest)
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, true, nil
			}
			return nil, false, err
		}
		recs = append(recs, rec)
	}
	return recs, false, nil
}
