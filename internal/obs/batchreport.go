package obs

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/buildinfo"
)

// BatchSchema versions the machine-readable record of one batch analysis run
// (`tango batch`): one compiled specification checked against a corpus of
// traces by a pool of workers.
const BatchSchema = "tango.batch/1"

// BatchItem is the per-trace row of a batch report, in corpus order.
type BatchItem struct {
	Trace string `json:"trace"`
	// Verdict is the analyzer's verdict word; ExitClass the CLI exit-code
	// class it maps to (0 valid, 2 invalid, 3 inconclusive, 4 bad trace,
	// 1 operational error).
	Verdict   string `json:"verdict,omitempty"`
	ExitClass int    `json:"exit_class"`
	// StopReason is set when the search stopped early (budget, deadline,
	// cancelled, stall); Skipped marks items drained without analysis after
	// the shared context ended.
	StopReason string `json:"stop_reason,omitempty"`
	Skipped    bool   `json:"skipped,omitempty"`
	Error      string `json:"error,omitempty"`
	// Expect and Match report the manifest expectation, when one was given.
	Expect string `json:"expect,omitempty"`
	Match  *bool  `json:"match,omitempty"`

	// Quarantined marks a job the supervisor's circuit breaker removed after
	// it killed too many workers; its ExitClass is the error class. Unlike the
	// scheduling detail below it survives Normalize: quarantine is a verdict,
	// not an accident of timing.
	Quarantined bool `json:"quarantined,omitempty"`

	Search SearchStats `json:"search"`

	// Flight is the flight-recorder tail for rows whose verdict went wrong
	// (invalid, partial, panic-quarantined) — the per-trace search is
	// deterministic, so it survives Normalize.
	Flight []string `json:"flight,omitempty"`
	// CoverNew lists transitions this trace covered first (corpus order) when
	// the batch recorded coverage — the per-trace coverage delta.
	CoverNew []string `json:"cover_new,omitempty"`

	// Scheduling/timing detail; cleared by Normalize.
	Worker int   `json:"worker"`
	WallUS int64 `json:"wall_us"`
	// Attempts counts the dispatches of a job dispatched more than once (0
	// for a job dispatched once); Resumed marks a row restored verbatim from
	// a checkpoint journal. Both depend on when crashes and kills happened,
	// so Normalize clears them.
	Attempts int  `json:"attempts,omitempty"`
	Resumed  bool `json:"resumed,omitempty"`
}

// BatchCounts aggregates the per-trace outcomes of a batch run.
type BatchCounts struct {
	Valid        int `json:"valid"`
	Invalid      int `json:"invalid"`
	Inconclusive int `json:"inconclusive"`
	BadTrace     int `json:"bad_trace"`
	Errors       int `json:"errors"`
	Skipped      int `json:"skipped"`
	Mismatches   int `json:"mismatches"`
	// Supervision outcomes (`tango batch` under -supervise / -resume).
	// Quarantined survives Normalize; Resumed and Requeued are artifacts of
	// where a crash or kill happened, so Normalize clears them.
	Resumed     int `json:"resumed,omitempty"`
	Requeued    int `json:"requeued,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
}

// BatchReport is the machine-readable record of one `tango batch` run. Items
// are always in corpus (input) order, independent of worker scheduling and of
// -shuffle, so reports from runs with different -j values diff cleanly once
// Normalize has cleared the timing fields.
type BatchReport struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	// Version and Commit identify the build that produced the report
	// (internal/buildinfo); WriteFile fills them when empty.
	Version string `json:"tango_version,omitempty"`
	Commit  string `json:"tango_commit,omitempty"`

	Spec            string `json:"spec"`
	SpecTransitions int    `json:"spec_transitions"`
	Mode            string `json:"mode"`

	Workers int   `json:"workers"`
	Shuffle bool  `json:"shuffle,omitempty"`
	Seed    int64 `json:"seed,omitempty"`

	Items  []BatchItem `json:"items"`
	Counts BatchCounts `json:"counts"`

	// Coverage is the corpus-wide spec coverage when the run recorded it
	// (`tango batch -cover`): the merged tango.cover/1 report whose hit counts
	// equal the sum of the per-trace counts.
	Coverage *CoverReport `json:"coverage,omitempty"`

	// ExitCode is the aggregate CLI exit code (see README "tango batch" for
	// the aggregation rules).
	ExitCode int `json:"exit_code"`

	WallUS int64 `json:"wall_us"`
}

// Normalize clears every scheduling- and timing-dependent field, leaving only
// the deterministic content of the run: corpus order, verdicts, exit classes,
// expectations and search counters. Two batch runs over the same corpus with
// the same analysis options must be byte-identical after Normalize, whatever
// their worker counts or dispatch order — the determinism contract the test
// suite enforces.
func (r *BatchReport) Normalize() {
	r.Workers = 0
	r.Shuffle = false
	r.Seed = 0
	r.WallUS = 0
	r.Counts.Resumed = 0
	r.Counts.Requeued = 0
	for i := range r.Items {
		r.Items[i].Normalize()
	}
}

// Normalize clears the row's scheduling- and timing-dependent fields: which
// worker ran it, how long it took, how often it was dispatched and whether a
// resume restored it. Every normalized report, tango.batch/1 and the stored
// /v1/batch one alike, clears its rows through this method.
func (it *BatchItem) Normalize() {
	it.Worker = 0
	it.WallUS = 0
	it.Search.TransPerSec = 0
	it.Attempts = 0
	it.Resumed = false
}

// WriteFile marshals the report (indented, trailing newline) to path.
func (r *BatchReport) WriteFile(path string) error {
	if r.Schema == "" {
		r.Schema = BatchSchema
	}
	if r.Version == "" {
		r.Version = buildinfo.Version
	}
	if r.Commit == "" {
		r.Commit = buildinfo.Commit()
	}
	return writeJSON(path, r)
}

// ReadBatchReport loads and validates a report written by WriteFile.
func ReadBatchReport(path string) (*BatchReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BatchReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("obs: parse batch report %s: %w", path, err)
	}
	if r.Schema != BatchSchema {
		return nil, fmt.Errorf("obs: batch report %s has schema %q, want %q", path, r.Schema, BatchSchema)
	}
	return &r, nil
}
