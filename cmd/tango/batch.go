package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/tango"
)

// runBatch implements `tango batch`: analyze a corpus of traces concurrently
// against one compiled specification. The specification is compiled once;
// each worker owns a private analyzer. Per-trace verdicts print in corpus
// order whatever the worker count, and the exit code aggregates the per-trace
// classes (see README "tango batch").
//
// -supervise (or any of -job-timeout, -max-attempts, -breaker, -backoff,
// -throttle, -checkpoint, -resume) turns on the pool's crash-only limits:
// panicking or wedged workers' jobs are requeued with backoff and bounded
// attempts, and repeat offenders quarantined. -checkpoint journals every
// sealed row so a killed run can continue with -resume, which restores the
// finished rows verbatim and exits 6 when the completed run is clean.
func runBatch(args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "worker count (analyzers running concurrently)")
	order := fs.String("order", "FULL", "relative order checking mode: NR, IO, IP or FULL")
	disable := fs.String("disable", "", "comma-separated IPs whose outputs are not checked")
	unobserved := fs.String("unobserved", "", "comma-separated IPs whose inputs are missing (partial trace)")
	stateSearch := fs.Bool("statesearch", false, "retry from every initial FSM state")
	hash := fs.Bool("hash", false, "prune revisited states with a hash table")
	memo := fs.Bool("memo", false, "memoize refuted (cursor, state) pairs and prune their revisits")
	memoMB := fs.Int64("memo-mb", 0, "dead-state memo budget in MiB per worker (with -memo; 0 = auto-size)")
	budget := fs.Int64("budget", 0, "per-trace transition budget (0 = default)")
	deadline := fs.Duration("deadline", 0, "wall-clock budget for the whole batch; expiry drains gracefully (exit 3)")
	shuffle := fs.Bool("shuffle", false, "randomize dispatch order (results stay in corpus order)")
	seed := fs.Int64("seed", 1, "dispatch shuffle seed (with -shuffle)")
	reportPath := fs.String("report", "", "write a machine-readable batch report (tango.batch/1) to this file")
	progress := fs.Bool("progress", false, "print per-worker heartbeats on stderr")
	progressEvery := fs.Duration("progress-every", 0, "heartbeat interval for -progress (default 1s)")
	traceJSONL := fs.String("trace-jsonl", "", "write structured search events (tango.trace/1 JSONL) to this file")
	coverOut := fs.String("cover", "", "record spec coverage and write the merged tango.cover/1 report to this file")
	flight := fs.Int("flight", 64, "per-worker flight recorder size; bad verdicts dump the tail into report rows (0 = off)")
	supPool := fs.Bool("supervise", false, "requeue jobs whose worker panicked or wedged, and quarantine repeat offenders")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job watchdog deadline under -supervise (0 = none)")
	maxAttempts := fs.Int("max-attempts", 0, "dispatch attempts per job under -supervise (default 3)")
	breaker := fs.Int("breaker", 0, "worker kills before a job is quarantined (default 3)")
	backoff := fs.Duration("backoff", 0, "base requeue backoff, doubled per attempt (0 = immediate)")
	throttle := fs.Duration("throttle", 0, "artificial delay before each analysis (crash drills)")
	ckptDir := fs.String("checkpoint", "", "journal every completed item (tango.ckpt/1) into this directory")
	resumeDir := fs.String("resume", "", "resume from a -checkpoint directory: restore finished rows, run the rest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) < 2 {
		return usageError{}
	}
	if *coverOut != "" && *resumeDir != "" {
		return fmt.Errorf("-cover is not supported with -resume: restored rows carry no coverage counts (use -cover on a fresh run, or tango cover)")
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
	if *ckptDir != "" && *resumeDir != "" {
		return fmt.Errorf("-checkpoint and -resume are mutually exclusive (-resume keeps journaling into its directory)")
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
			Coverage:           *coverOut != "",
			FlightRecorder:     *flight,
		},
		Shuffle:        *shuffle,
		Seed:           *seed,
		HeartbeatEvery: *progressEvery,
		JobTimeout:     *jobTimeout,
		MaxAttempts:    *maxAttempts,
		BreakerKills:   *breaker,
		Backoff:        *backoff,
	}
	if *supPool || *jobTimeout > 0 || *throttle > 0 || *maxAttempts > 0 || *breaker > 0 ||
		*backoff > 0 || *ckptDir != "" || *resumeDir != "" {
		if bopts.MaxAttempts <= 0 {
			bopts.MaxAttempts = 3
		}
		if bopts.BreakerKills <= 0 {
			bopts.BreakerKills = 3
		}
	}
	if *progress {
		bopts.OnHeartbeat = func(hb batch.Heartbeat) { fmt.Fprintln(ew, "progress:", hb) }
	}
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			return err
		}
		// Deferred close runs on every exit path — including the graceful
		// drain after SIGINT/SIGTERM — so the sink is always flushed.
		defer f.Close()
		sink := obs.NewJSONLSink(f)
		defer func() {
			if err := sink.Err(); err != nil {
				fmt.Fprintln(ew, "tango: trace-jsonl:", err)
			}
		}()
		bopts.Tracer = sink
	}

	// SIGINT/SIGTERM cancel the shared context: nothing more is dispatched,
	// in-flight analyses stop at their next expansion, remaining items drain
	// as skipped, the journal keeps every row sealed before the signal, and
	// the deferred sinks flush. A second signal forces exit.
	ctx, stopSignals := shutdownContext(context.Background(), ew)
	defer stopSignals()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	if d := *throttle; d > 0 {
		// Widen the kill window for crash drills and the kill-resume test.
		bopts.FaultHook = func(int, batch.Item) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
	}

	meta := checkpoint.BatchMeta{
		SpecDigest:   analysis.SpecDigest(spec.Internal()),
		CorpusDigest: corpusDigest(items),
		Mode:         mode.String(),
		NumItems:     len(items),
	}
	switch {
	case *resumeDir != "":
		bopts.Journal, bopts.Done, err = openResume(filepath.Join(*resumeDir, checkpoint.JournalFile), meta, ew)
		if err != nil {
			return err
		}
	case *ckptDir != "":
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		bopts.Journal, err = checkpoint.CreateBatchLog(filepath.Join(*ckptDir, checkpoint.JournalFile))
		if err != nil {
			return err
		}
		if err := bopts.Journal.Admit(meta); err != nil {
			bopts.Journal.Close()
			return err
		}
	}
	if bopts.Journal != nil {
		defer bopts.Journal.Close()
	}

	res, err := batch.Run(ctx, spec.Internal(), items, bopts)
	if err != nil {
		return err
	}
	if res.JournalFailures > 0 {
		fmt.Fprintf(ew, "tango: warning: checkpoint journal failed to record %d rows (first error: %v); -resume will analyze them again\n",
			res.JournalFailures, res.JournalErr)
	}
	printBatch(w, res)
	if *reportPath != "" {
		rep := batch.BuildReport(rest[0], mode.String(), spec.Internal(), bopts, res)
		if err := rep.WriteFile(*reportPath); err != nil {
			return err
		}
	}
	if *coverOut != "" {
		cr, err := res.CoverReport(rest[0], spec.Internal())
		if err != nil {
			return err
		}
		if err := cr.WriteFile(*coverOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "coverage: %s\n", coverSummaryLine(cr))
	}
	return batchExitError(res, *resumeDir != "")
}

// corpusDigest fingerprints the corpus identity (names and expectations, in
// order) so a resume against a different corpus is rejected.
func corpusDigest(items []batch.Item) string {
	h := sha256.New()
	for _, it := range items {
		name := it.Name
		if name == "" {
			name = it.Path
		}
		fmt.Fprintf(h, "%s\x00%s\x00", name, it.Expect)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// openResume replays a batch journal, checks that it belongs to this run,
// and compacts it into a log open for appending (which also drops a torn
// tail left by a crash). It returns the log and the verbatim rows of
// finished items.
func openResume(path string, meta checkpoint.BatchMeta, ew io.Writer) (*checkpoint.BatchLog, map[int]obs.BatchItem, error) {
	plan, err := checkpoint.ReplayBatchLog[checkpoint.BatchMeta](path)
	if err != nil {
		return nil, nil, fmt.Errorf("resume: %w", err)
	}
	if len(plan.Batches) == 0 {
		return nil, nil, fmt.Errorf("resume: %s is not a batch journal (no readable meta record)", path)
	}
	b := plan.Batches[0]
	if b.Admission != meta {
		return nil, nil, fmt.Errorf("resume: journal belongs to a different run (specification, corpus or order mode changed)")
	}
	journal, err := checkpoint.CompactBatchLog(path, plan.Batches)
	if err != nil {
		return nil, nil, fmt.Errorf("resume: %w", err)
	}
	fmt.Fprintf(ew, "tango: resume: restored %d finished rows from %s\n", len(b.Rows), path)
	return journal, b.Rows, nil
}

// printBatch renders the per-item lines (corpus order) and the summary. A
// restored row prints from its journal record, marked [resumed]; a job
// dispatched more than once is marked with its attempt count.
func printBatch(w io.Writer, res *batch.Result) {
	for i := range res.Items {
		r := &res.Items[i]
		fmt.Fprintf(w, "%-5s %-40s ", itemStatus(r), r.Item.Name)
		unexplained := ""
		switch row := r.Restored; {
		case row != nil && row.Error != "":
			fmt.Fprint(w, row.Error)
		case row != nil:
			fmt.Fprintf(w, "%s (TE=%d, %s)", row.Verdict, row.Search.TE,
				(time.Duration(row.WallUS) * time.Microsecond).Round(time.Microsecond))
		case r.Err != nil:
			fmt.Fprint(w, r.Err)
		case r.Skipped:
			fmt.Fprint(w, r.Res.Reason)
		default:
			fmt.Fprintf(w, "%s (TE=%d, %s)", r.Res.Verdict, r.Res.Stats.TE, r.Elapsed.Round(time.Microsecond))
			if d := r.Res.Diagnosis; d != nil && d.FirstUnexplained != "" && (r.Match == nil || !*r.Match) {
				unexplained = d.FirstUnexplained
			}
		}
		switch {
		case r.Restored != nil:
			fmt.Fprint(w, " [resumed]")
		case r.Attempts > 1:
			fmt.Fprintf(w, " [attempt %d]", r.Attempts)
		}
		fmt.Fprintln(w)
		if unexplained != "" {
			fmt.Fprintf(w, "        first unexplained: %s\n", unexplained)
		}
	}
	c := res.Counts
	fmt.Fprintf(w, "batch: %d traces, %d workers, %s: %d valid, %d invalid, %d inconclusive, %d bad, %d errors",
		len(res.Items), res.Workers, res.Wall.Round(time.Millisecond),
		c.Valid, c.Invalid, c.Inconclusive, c.BadTrace, c.Errors)
	if c.Skipped > 0 {
		fmt.Fprintf(w, ", %d skipped", c.Skipped)
	}
	if c.Mismatches > 0 {
		fmt.Fprintf(w, ", %d expectation mismatches", c.Mismatches)
	}
	if c.Resumed > 0 {
		fmt.Fprintf(w, ", %d resumed", c.Resumed)
	}
	if c.Requeued > 0 {
		fmt.Fprintf(w, ", %d requeued", c.Requeued)
	}
	if c.Quarantined > 0 {
		fmt.Fprintf(w, ", %d quarantined", c.Quarantined)
	}
	if res.Restarts > 0 {
		fmt.Fprintf(w, ", %d worker restarts", res.Restarts)
	}
	fmt.Fprintf(w, " (exit %d)\n", res.ExitCode)
}

// itemStatus labels one result line: QUAR for a quarantined job, PASS/FAIL
// against a manifest expectation, otherwise the verdict class.
func itemStatus(r *batch.ItemResult) string {
	if r.Quarantined {
		return "QUAR"
	}
	if r.Match != nil {
		if *r.Match {
			return "PASS"
		}
		return "FAIL"
	}
	return classStatus(r.Class)
}

func classStatus(class int) string {
	switch class {
	case batch.ClassOK:
		return "VALID"
	case batch.ClassInvalid:
		return "INVAL"
	case batch.ClassInconclusive:
		return "INCON"
	case batch.ClassBadTrace:
		return "BAD"
	default:
		return "ERROR"
	}
}

// batchExitError maps the aggregate exit code to the CLI error taxonomy; a
// clean run that restored rows from a -resume checkpoint exits 6 instead of
// 0.
func batchExitError(res *batch.Result, resumed bool) error {
	switch res.ExitCode {
	case batch.ClassOK:
		if resumed {
			return errResumedOK
		}
		return nil
	case batch.ClassInvalid:
		return errNotValid
	case batch.ClassInconclusive:
		return errInconclusive
	case batch.ClassBadTrace:
		return &codeError{exitBadTrace, fmt.Errorf("batch: %d malformed traces", res.Counts.BadTrace)}
	default:
		if res.Counts.Quarantined > 0 {
			return fmt.Errorf("batch: %d jobs quarantined, %d operational errors",
				res.Counts.Quarantined, res.Counts.Errors)
		}
		return fmt.Errorf("batch: %d traces failed with operational errors", res.Counts.Errors)
	}
}
