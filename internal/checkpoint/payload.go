package checkpoint

import (
	"encoding/json"

	"repro/internal/obs"
)

// The record kinds written by Tango. A snapshot file holds exactly one
// KindAnalysis record; a batch journal holds one KindBatchMeta record
// followed by one KindBatchItem record per completed corpus item.
const (
	KindAnalysis  = "analysis"
	KindBatchMeta = "batch-meta"
	KindBatchItem = "batch-item"
)

// SnapshotFile is the conventional file name of a single-run analysis
// snapshot inside a checkpoint directory; JournalFile the batch journal's.
const (
	SnapshotFile = "session.ckpt"
	JournalFile  = "batch.ckpt"
)

// BatchMeta is the first record of a batch journal. It binds the journal to
// one specification, corpus and option set, so that resuming against a
// different run is rejected (as corruption of intent, not of bytes) instead
// of silently splicing verdicts from two different workloads.
type BatchMeta struct {
	// SpecDigest fingerprints the compiled specification (see
	// analysis.SpecDigest); CorpusDigest fingerprints the corpus item names
	// and expectations in order.
	SpecDigest   string
	CorpusDigest string
	// Mode is the order-checking mode string, part of the verdict contract.
	Mode     string
	NumItems int
}

// BatchEntry records the final report row of one completed corpus item.
// Restoring the row verbatim on resume is what makes a resumed run's
// tango.batch/1 report byte-identical (after Normalize) to an uninterrupted
// run: completed items are never re-analyzed, and the analyzer is
// deterministic for the rest.
//
// The row travels as JSON in RowJSON, not as a gob struct: gob omits zero
// values even behind pointers, so a mismatch row's Match=&false would replay
// as a nil Match. Build entries with NewBatchEntry and read them with Row.
type BatchEntry struct {
	Index   int
	RowJSON []byte
	// Item is the gob-encoded row of journals written before RowJSON; Row
	// falls back to it so those journals stay replayable. New entries leave
	// it zero.
	Item obs.BatchItem
}

// NewBatchEntry journals row as the index-th corpus item.
func NewBatchEntry(index int, row obs.BatchItem) (BatchEntry, error) {
	data, err := json.Marshal(row)
	if err != nil {
		return BatchEntry{}, err
	}
	return BatchEntry{Index: index, RowJSON: data}, nil
}

// Row returns the journaled row.
func (e BatchEntry) Row() (obs.BatchItem, error) {
	if e.RowJSON == nil {
		return e.Item, nil
	}
	var row obs.BatchItem
	err := json.Unmarshal(e.RowJSON, &row)
	return row, err
}
