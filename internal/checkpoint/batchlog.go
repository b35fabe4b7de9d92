package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
)

// The record kinds of a batch log. The names come from the serve work
// journal, the first user of the format. KindBatchMeta and KindBatchItem are
// the admission and row kinds of `tango batch -checkpoint` journals written
// before the CLI moved onto the shared log; replay reads them as aliases of
// KindAdmit and KindRow, and nothing writes them any more.
const (
	KindAdmit = "work-batch"
	KindRow   = "work-row"
	KindStop  = "work-stop"
	KindDone  = "work-done"

	KindBatchMeta = "batch-meta"
	KindBatchItem = "batch-item"
)

// Admission is the payload of a batch log's admission record: everything a
// later run needs to redo the batch, plus the ID that groups the batch's
// records.
type Admission interface {
	BatchID() string
}

// BatchLog is the exactly-once log of batch runs, shared by `tango batch
// -checkpoint/-resume` and the /v1/batch handoff of `tango serve`. A batch
// appends one admission record, one row record per finished row, at most one
// stop record (the row after which the batch stopped early) and, once its
// result is safe elsewhere, a done record. Records of concurrent batches
// interleave freely; ReplayBatchLog groups them by batch ID.
//
// Rows travel as JSON, not gob: gob omits zero values even behind pointers,
// so a mismatch row's Match=&false would replay as a nil Match.
//
// Every append holds the log's mutex and is fsynced before it returns, so a
// record an append reported durable survives SIGKILL; a kill mid-append
// leaves at most one torn final record, which replay drops. A nil *BatchLog
// discards every record.
type BatchLog struct {
	mu sync.Mutex
	f  *os.File
}

// CreateBatchLog creates (or truncates) an empty batch log at path, writes
// the version header, and fsyncs the file and its directory so the log
// itself survives a crash right after creation.
func CreateBatchLog(path string) (*BatchLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	_, err = f.Write([]byte(Magic))
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &BatchLog{f: f}, nil
}

// rowRecord is the payload of a KindRow record.
type rowRecord struct {
	ID      string
	Index   int
	RowJSON []byte
}

// loggedRow decodes row records of both kinds: a KindBatchItem record written
// before rows travelled as JSON carries its row as the gob Item instead.
type loggedRow struct {
	ID      string
	Index   int
	RowJSON []byte
	Item    obs.BatchItem
}

// stopRecord is the payload of a KindStop record.
type stopRecord struct {
	ID    string
	Index int
}

// doneRecord is the payload of a KindDone record.
type doneRecord struct {
	ID string
}

func (l *BatchLog) append(kind string, payload any) error {
	if l == nil {
		return nil
	}
	frame, err := encodeRecord(kind, payload)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	return l.f.Sync()
}

// Admit appends a batch's admission record.
func (l *BatchLog) Admit(a Admission) error { return l.append(KindAdmit, a) }

// Row appends row index of batch id.
func (l *BatchLog) Row(id string, index int, row obs.BatchItem) error {
	if l == nil {
		return nil
	}
	data, err := json.Marshal(row)
	if err != nil {
		return err
	}
	return l.append(KindRow, rowRecord{ID: id, Index: index, RowJSON: data})
}

// Stop appends that batch id stopped early after row index, so a later run
// replays up to that row and stops there too.
func (l *BatchLog) Stop(id string, index int) error {
	return l.append(KindStop, stopRecord{ID: id, Index: index})
}

// Done appends that batch id is finished: replay no longer lists it as
// unfinished.
func (l *BatchLog) Done(id string) error { return l.append(KindDone, doneRecord{ID: id}) }

// Close closes the log's file. Later appends fail.
func (l *BatchLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// LoggedBatch is one batch as ReplayBatchLog rebuilt it.
type LoggedBatch[A Admission] struct {
	Admission A
	// Rows maps row indexes to the first row logged for each.
	Rows map[int]obs.BatchItem
	// StopAt is the index of the first logged stop, -1 if none.
	StopAt int
	Done   bool
}

// BatchPlan is a replayed batch log.
type BatchPlan[A Admission] struct {
	// Batches lists every admitted batch in admission order.
	Batches []*LoggedBatch[A]
	// Truncated reports a torn final record (a crash mid-append), dropped.
	Truncated bool
}

// Unfinished returns the batches without a done record, in admission order.
func (p *BatchPlan[A]) Unfinished() []*LoggedBatch[A] {
	var out []*LoggedBatch[A]
	for _, b := range p.Batches {
		if !b.Done {
			out = append(out, b)
		}
	}
	return out
}

// ReplayBatchLog reads the batch log at path back into per-batch state,
// decoding admissions as A. Replay is crash-only and exactly-once:
//
//   - the first admission of a batch ID wins;
//   - the first row logged for an index wins, so a row is never redone once
//     logged, even if a crash landed between analysis and acknowledgement;
//   - the first stop wins;
//   - a record naming an ID with no earlier admission is dropped;
//   - a record whose payload does not decode, or whose index is negative, is
//     dropped (a dropped row is simply computed again);
//   - a torn final record is dropped and reported in Truncated.
//
// Any other damage (bad header, CRC mismatch) is ErrCorruptCheckpoint;
// file-access errors pass through unchanged.
func ReplayBatchLog[A Admission](path string) (*BatchPlan[A], error) {
	recs, truncated, err := ReplayJournal(path)
	if err != nil {
		return nil, err
	}
	plan := &BatchPlan[A]{Truncated: truncated}
	byID := make(map[string]*LoggedBatch[A])
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case KindAdmit, KindBatchMeta:
			var a A
			if rec.Decode(&a) != nil || byID[a.BatchID()] != nil {
				continue
			}
			b := &LoggedBatch[A]{Admission: a, Rows: make(map[int]obs.BatchItem), StopAt: -1}
			byID[a.BatchID()] = b
			plan.Batches = append(plan.Batches, b)
		case KindRow, KindBatchItem:
			var r loggedRow
			if rec.Decode(&r) != nil || r.Index < 0 {
				continue
			}
			b := byID[r.ID]
			if b == nil {
				continue
			}
			if _, dup := b.Rows[r.Index]; dup {
				continue
			}
			row := r.Item
			if r.RowJSON != nil {
				row = obs.BatchItem{}
				if json.Unmarshal(r.RowJSON, &row) != nil {
					continue
				}
			}
			b.Rows[r.Index] = row
		case KindStop:
			var s stopRecord
			if rec.Decode(&s) != nil || s.Index < 0 {
				continue
			}
			if b := byID[s.ID]; b != nil && b.StopAt < 0 {
				b.StopAt = s.Index
			}
		case KindDone:
			var d doneRecord
			if rec.Decode(&d) != nil {
				continue
			}
			if b := byID[d.ID]; b != nil {
				b.Done = true
			}
		}
	}
	return plan, nil
}

// CompactBatchLog replaces the log at path with one holding exactly batches
// (a plan's unfinished ones, typically) and returns it open for appends.
// Legacy records come out in the current kinds.
//
// The new log is written to a temp file beside the live one, fsynced,
// renamed into place, and the directory is fsynced. The live log is never
// truncated in place, so a crash at any instant of the compaction leaves
// either the old log or the new one intact. A temp file left by a compaction
// that died is overwritten.
func CompactBatchLog[A Admission](path string, batches []*LoggedBatch[A]) (*BatchLog, error) {
	buf := bytes.NewBufferString(Magic)
	add := func(kind string, payload any) error {
		frame, err := encodeRecord(kind, payload)
		buf.Write(frame)
		return err
	}
	for _, b := range batches {
		id := b.Admission.BatchID()
		if err := add(KindAdmit, b.Admission); err != nil {
			return nil, err
		}
		idxs := make([]int, 0, len(b.Rows))
		for i := range b.Rows {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			data, err := json.Marshal(b.Rows[i])
			if err == nil {
				err = add(KindRow, rowRecord{ID: id, Index: i, RowJSON: data})
			}
			if err != nil {
				return nil, err
			}
		}
		if b.StopAt >= 0 {
			if err := add(KindStop, stopRecord{ID: id, Index: b.StopAt}); err != nil {
				return nil, err
			}
		}
		if b.Done {
			if err := add(KindDone, doneRecord{ID: id}); err != nil {
				return nil, err
			}
		}
	}

	tmp := path + ".compacting"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	_, err = f.Write(buf.Bytes())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return nil, err
	}
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return &BatchLog{f: f}, nil
}
