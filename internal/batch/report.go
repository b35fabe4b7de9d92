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
		// The merged tango.cover/1 section: row counts are the sum of the
		// per-trace snapshots folded by Run.
		analyzed := 0
		for i := range res.Items {
			if res.Items[i].Res != nil && res.Items[i].Res.Coverage != nil {
				analyzed++
			}
		}
		if cov, err := analysis.BuildCoverReport(specPath, spec, res.Coverage, analyzed); err == nil {
			rep.Coverage = cov
		}
	}
	return rep
}

// ReportItem converts one item result into its tango.batch/1 row. The
// supervisor reuses it so supervised and plain runs serialize rows
// identically — the byte-identity contract between resumed and uninterrupted
// reports depends on there being exactly one serializer.
func ReportItem(r *ItemResult) obs.BatchItem {
	bi := obs.BatchItem{
		Trace:     r.Item.name(),
		ExitClass: r.Class,
		Skipped:   r.Skipped,
		Expect:    r.Item.Expect,
		Match:     r.Match,
		Worker:    r.Worker,
		WallUS:    r.Elapsed.Microseconds(),
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
