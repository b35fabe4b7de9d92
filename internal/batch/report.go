package batch

import (
	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/obs"
)

// BuildReport assembles the tango.batch/1 record of one run. Items are in
// corpus order; run Normalize on the result before comparing reports across
// worker counts or dispatch orders.
func BuildReport(specPath, mode string, spec *efsm.Spec, opts Options, res *Result) *obs.BatchReport {
	rep := &obs.BatchReport{
		Schema:          obs.BatchSchema,
		Tool:            "tango batch",
		Spec:            specPath,
		SpecTransitions: spec.TransitionCount(),
		Mode:            mode,
		Workers:         res.Workers,
		Shuffle:         opts.Shuffle,
		Seed:            opts.Seed,
		ExitCode:        res.ExitCode,
		WallUS:          res.Wall.Microseconds(),
		Counts:          res.Counts,
		Items:           make([]obs.BatchItem, len(res.Items)),
	}
	for i := range res.Items {
		rep.Items[i] = ReportItem(&res.Items[i])
	}
	if res.Coverage != nil {
		if cov, err := res.CoverReport(specPath, spec); err == nil {
			rep.Coverage = cov
		}
	}
	return rep
}

// CoverReport builds the merged tango.cover/1 report of a run that recorded
// coverage (Result.Coverage non-nil): its counts are the sum of the
// per-trace snapshots Run folded, over the traces that were analyzed.
func (res *Result) CoverReport(specPath string, spec *efsm.Spec) (*obs.CoverReport, error) {
	analyzed := 0
	for i := range res.Items {
		if r := res.Items[i].Res; r != nil && r.Coverage != nil {
			analyzed++
		}
	}
	return analysis.BuildCoverReport(specPath, spec, res.Coverage, analyzed)
}

// ReportItem converts one item result into its tango.batch/1 row; a restored
// item's row is the journal's, verbatim. serve's /v1/batch uses it too, so
// every batch row has exactly one serializer — the byte-identity contract
// between resumed and uninterrupted reports depends on that.
func ReportItem(r *ItemResult) obs.BatchItem {
	if r.Restored != nil {
		return *r.Restored
	}
	bi := obs.BatchItem{
		Trace:       r.Item.name(),
		ExitClass:   r.Class,
		Skipped:     r.Skipped,
		Expect:      r.Item.Expect,
		Match:       r.Match,
		Quarantined: r.Quarantined,
		Worker:      r.Worker,
		WallUS:      r.Elapsed.Microseconds(),
	}
	if r.Attempts > 1 {
		bi.Attempts = r.Attempts
	}
	switch {
	case r.Err != nil:
		bi.Error = r.Err.Error()
		bi.Flight = r.Flight // panic path: the rescued ring tail
	case r.Res != nil:
		bi.Verdict = r.Res.Verdict.String()
		bi.Search = r.Res.Stats.Report()
		bi.Flight = r.Res.Flight
		if s := r.Res.Stop; s != nil {
			bi.StopReason = string(s.Reason)
		}
	}
	bi.CoverNew = r.CoverNew
	return bi
}
