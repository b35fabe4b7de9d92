package checkpoint

// KindAnalysis is the kind of the one record of a single-run analysis
// snapshot; the batch log's kinds are in batchlog.go.
const KindAnalysis = "analysis"

// SnapshotFile is the conventional file name of a single-run analysis
// snapshot inside a checkpoint directory; JournalFile the batch log's.
const (
	SnapshotFile = "session.ckpt"
	JournalFile  = "batch.ckpt"
)

// BatchMeta is the admission record of a `tango batch -checkpoint` log. It
// binds the log to one specification, corpus and option set, so that
// resuming against a different run is rejected (as corruption of intent, not
// of bytes) instead of silently splicing verdicts from two different
// workloads.
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

// BatchID implements Admission. A CLI log holds one batch, whose ID is "".
func (BatchMeta) BatchID() string { return "" }
