package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/tango"
)

// runCover implements `tango cover`: measure which parts of a specification a
// trace corpus exercises. It runs the corpus like `tango batch` with coverage
// recording on, then answers the questions batch does not: which transitions
// never fired, which are hot, and (with -heatmap) what the spec source looks
// like with hit counts in the gutter.
//
// Unlike analyze/batch the exit code does not grade the traces: cover is a
// measurement tool, and a corpus full of invalid traces still measures
// coverage. Only operational failures exit non-zero.
//
// With -merge the subcommand instead folds previously written tango.cover/1
// reports (from -cover runs on shards of a corpus, or from CI runs over time)
// into one; merging reports from different specifications is rejected by the
// embedded spec digest.
func runCover(args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("cover", flag.ContinueOnError)
	merge := fs.String("merge", "", "merge tango.cover/1 reports into this file instead of running traces")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "worker count (analyzers running concurrently)")
	order := fs.String("order", "FULL", "relative order checking mode: NR, IO, IP or FULL")
	disable := fs.String("disable", "", "comma-separated IPs whose outputs are not checked")
	unobserved := fs.String("unobserved", "", "comma-separated IPs whose inputs are missing (partial trace)")
	stateSearch := fs.Bool("statesearch", false, "retry from every initial FSM state")
	hash := fs.Bool("hash", false, "prune revisited states with a hash table")
	memo := fs.Bool("memo", false, "memoize refuted (cursor, state) pairs and prune their revisits")
	memoMB := fs.Int64("memo-mb", 0, "dead-state memo budget in MiB per worker (with -memo; 0 = auto-size)")
	budget := fs.Int64("budget", 0, "per-trace transition budget (0 = default)")
	reportPath := fs.String("report", "", "write the merged tango.cover/1 report to this file")
	heatmap := fs.Bool("heatmap", false, "print the spec source annotated with per-line transition hit counts")
	top := fs.Int("top", 5, "hottest transitions to list (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()

	if *merge != "" {
		return runCoverMerge(*merge, rest, w)
	}
	if len(rest) < 2 {
		return usageError{}
	}
	spec, err := compileArg(rest[0])
	if err != nil {
		return err
	}
	mode, err := parseOrder(*order)
	if err != nil {
		return err
	}
	items, err := batch.Collect(rest[1:])
	if err != nil {
		return err
	}
	if len(items) == 0 {
		return fmt.Errorf("no traces found in %v", rest[1:])
	}

	bopts := batch.Options{
		Workers: *jobs,
		Analysis: tango.Options{
			Order:              mode,
			DisabledIPs:        splitList(*disable),
			UnobservedIPs:      splitList(*unobserved),
			InitialStateSearch: *stateSearch,
			StateHashing:       *hash,
			Memo:               *memo,
			MemoBytes:          *memoMB << 20,
			MaxTransitions:     *budget,
			Coverage:           true,
		},
	}

	ctx, stopSignals := shutdownContext(context.Background(), ew)
	defer stopSignals()

	res, err := batch.Run(ctx, spec.Internal(), items, bopts)
	if err != nil {
		return err
	}
	if res.Coverage == nil {
		return fmt.Errorf("cover: no coverage collected")
	}
	cr, err := res.CoverReport(rest[0], spec.Internal())
	if err != nil {
		return err
	}

	printCover(w, cr, res, *top)
	if *heatmap {
		src, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		fmt.Fprint(w, obs.RenderHeatmap(string(src), cr))
	}
	if *reportPath != "" {
		if err := cr.WriteFile(*reportPath); err != nil {
			return err
		}
	}
	if res.Counts.Errors > 0 {
		return fmt.Errorf("cover: %d traces failed with operational errors", res.Counts.Errors)
	}
	return nil
}

// runCoverMerge folds tango.cover/1 reports into one: `tango cover -merge
// out.json in1.json in2.json ...`.
func runCoverMerge(out string, ins []string, w io.Writer) error {
	if len(ins) == 0 {
		return fmt.Errorf("cover -merge needs at least one input report")
	}
	total, err := obs.ReadCoverReport(ins[0])
	if err != nil {
		return err
	}
	for _, path := range ins[1:] {
		next, err := obs.ReadCoverReport(path)
		if err != nil {
			return err
		}
		if err := total.Merge(next); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if err := total.WriteFile(out); err != nil {
		return err
	}
	fmt.Fprintf(w, "merged %d reports (%d traces): %s\n", len(ins), total.Traces, coverSummaryLine(total))
	return nil
}

// printCover renders the human summary: totals, the never-fired list (the
// corpus gap the fuzzing roadmap item wants to close), and the hot spots.
func printCover(w io.Writer, cr *obs.CoverReport, res *batch.Result, top int) {
	c := res.Counts
	fmt.Fprintf(w, "cover: %d traces (%d valid, %d invalid, %d inconclusive, %d bad, %d errors)\n",
		len(res.Items), c.Valid, c.Invalid, c.Inconclusive, c.BadTrace, c.Errors)
	fmt.Fprintf(w, "coverage: %s\n", coverSummaryLine(cr))
	if never := cr.NeverFired(); len(never) > 0 {
		fmt.Fprintf(w, "never fired (%d): %s\n", len(never), strings.Join(never, ", "))
	}
	if top > 0 {
		if hot := cr.Hottest(top); len(hot) > 0 {
			fmt.Fprintf(w, "hottest transitions:\n")
			for _, row := range hot {
				fmt.Fprintf(w, "  %8d  %s\n", row.Hits, row.Name)
			}
		}
	}
}

// coverSummaryLine renders a CoverReport's covered/total tallies on one line.
func coverSummaryLine(cr *obs.CoverReport) string {
	s := cr.Summary()
	return fmt.Sprintf("%d/%d transitions, %d/%d states, %d/%d ips",
		s.TransCovered, s.TransTotal, s.StatesCovered, s.StatesTotal, s.IPsCovered, s.IPsTotal)
}
