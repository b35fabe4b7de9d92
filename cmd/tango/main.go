// Command tango is the command-line face of the trace-analysis tool
// generator: given an Estelle specification it checks it, prints its static
// model, analyzes traces against it (off-line or on-line), or runs it
// forward as an implementation to record traces.
//
// Usage:
//
//	tango check <spec.estelle>
//	tango info  <spec.estelle>
//	tango analyze [flags] <spec.estelle> <trace file|-->
//	tango batch   [flags] <spec.estelle> <trace files|dir|manifest>
//	tango generate [flags] <spec.estelle> <script file|-->
//
// Analyze flags select the runtime options of the paper (§2.4): relative
// order checking (-order NR|IO|IP|FULL), disabled IPs (-disable A,B),
// unobserved IPs for partial traces (-unobserved A), initial-state search
// (-statesearch), visited-state hashing (-hash), and on-line mode (-online)
// which reads the trace incrementally as a dynamic trace file.
//
// Generate reads a script of environment inputs, one per line:
//
//	feed U TCONreq
//	feed N DT d=5
//	run            # fire transitions until quiescent
//
// and writes the recorded trace to stdout.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sort"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/tango"
)

// Exit codes. Scripts can branch on the failure category without parsing
// output; see README "Exit codes".
const (
	exitOK        = 0 // trace valid (or valid so far)
	exitError     = 1 // usage or operational error
	exitInvalid   = 2 // analysis completed: trace is not valid
	exitPartial   = 3 // analysis inconclusive: budget, deadline, cancellation or stall
	exitBadTrace  = 4 // malformed or unresolvable trace input
	exitBadSpec   = 5 // specification does not compile
	exitResumedOK = 6 // valid, and the run completed from a -resume checkpoint
)

// errNotValid distinguishes "the analysis ran and the trace is not valid"
// (exit code 2, nothing printed to stderr) from operational errors (exit 1).
var errNotValid = fmt.Errorf("trace is not valid")

// errInconclusive reports that the analysis stopped without a verdict (exit
// code 3); the partial verdict was already printed.
var errInconclusive = fmt.Errorf("analysis inconclusive")

// errResumedOK reports a successful run that restored prior progress from a
// -resume checkpoint (exit code 6): the outcome is as good as exit 0, but
// scripts driving checkpoint/resume cycles can tell the two apart.
var errResumedOK = fmt.Errorf("completed from resume")

// codeError carries a specific exit code for an operator-facing failure
// category (malformed spec, malformed trace).
type codeError struct {
	code int
	err  error
}

func (e *codeError) Error() string { return e.err.Error() }
func (e *codeError) Unwrap() error { return e.err }

// exitCode maps a run error to the process exit code.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	if errors.Is(err, errNotValid) {
		return exitInvalid
	}
	if errors.Is(err, errInconclusive) {
		return exitPartial
	}
	if errors.Is(err, errResumedOK) {
		return exitResumedOK
	}
	var ce *codeError
	if errors.As(err, &ce) {
		return ce.code
	}
	return exitError
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	code := exitCode(err)
	if code == exitOK {
		return
	}
	// The verdict sentinels already reported themselves on stdout.
	if !errors.Is(err, errNotValid) && !errors.Is(err, errInconclusive) && !errors.Is(err, errResumedOK) {
		fmt.Fprintln(os.Stderr, "tango:", err)
	}
	os.Exit(code)
}

// run dispatches a CLI invocation. w is stdout (the machine-parsable result
// channel); ew is stderr (progress heartbeats, -stats-json, incidental notes).
func run(args []string, w, ew io.Writer) error {
	if len(args) < 1 {
		return usageError{}
	}
	switch args[0] {
	case "check":
		return runCheck(args[1:], w)
	case "info":
		return runInfo(args[1:], w)
	case "analyze":
		return runAnalyze(args[1:], w, ew)
	case "batch":
		return runBatch(args[1:], w, ew)
	case "cover":
		return runCover(args[1:], w, ew)
	case "generate":
		return runGenerate(args[1:], w, ew)
	case "lint":
		return runLint(args[1:], w)
	case "explore":
		return runExplore(args[1:], w)
	case "format":
		return runFormat(args[1:], w, ew, false)
	case "normalform":
		return runFormat(args[1:], w, ew, true)
	case "fuzz":
		return runFuzz(args[1:], w, ew)
	case "serve":
		return runServe(args[1:], w, ew)
	case "version", "-version", "--version":
		return runVersion(w)
	case "help", "-h", "--help":
		return usageError{}
	default:
		return fmt.Errorf("unknown subcommand %q (want check, info, analyze, batch or generate)", args[0])
	}
}

type usageError struct{}

func (usageError) Error() string {
	return `usage:
  tango check <spec.estelle>
  tango info  <spec.estelle>
  tango analyze [-order NR|IO|IP|FULL] [-disable ips] [-unobserved ips]
                [-statesearch] [-hash] [-memo] [-memo-mb N]
                [-online] [-budget N] [-deadline D] [-stall-timeout D]
                [-report out.json] [-stats-json] [-progress]
                [-cover out.json] [-flight N]
                [-trace-jsonl out.jsonl] [-trace-chrome out.json]
                [-checkpoint dir] [-checkpoint-interval D] [-resume dir]
                <spec> <trace|->
  tango batch   [-j N] [-order ...] [-memo] [-memo-mb N]
                [-shuffle] [-seed S] [-deadline D]
                [-report out.json] [-progress] [-trace-jsonl out.jsonl]
                [-cover out.json] [-flight N]
                [-supervise] [-job-timeout D] [-max-attempts N] [-breaker N]
                [-backoff D] [-throttle D] [-checkpoint dir] [-resume dir]
                <spec> <trace ...|dir|manifest>
  tango cover   [-j N] [-order ...] [-hash] [-memo] [-budget N]
                [-report out.json] [-heatmap] [-top N]
                <spec> <trace ...|dir|manifest>
  tango cover -merge out.json <in.json ...>
                                 (merge tango.cover/1 reports from prior runs)
  tango generate <spec> <script|->
  tango format <spec>            (pretty-print the specification)
  tango normalform <spec>        (§5.3 rewrite: lift if/case into provided clauses)
  tango lint <spec>              (non-progress cycles, unreachable states, ...)
  tango explore [-max N] <spec>  (bounded closed-system state-space exploration)
  tango fuzz -spec <spec> [-n N] [-seed S] [-budget D] [-cover-target F]
             [-order NR|IO|IP|FULL] [-max-events N] [-out dir]
             [-minimize trace]
                                 (coverage-guided generation + differential
                                  oracle; -out writes tango.fuzz/1 report,
                                  cover.json and the surviving corpus;
                                  -minimize ddmin-shrinks one disagreeing
                                  trace and exits 2 with the artifact)
  tango serve [-addr host:port] [-j N] [-queue N] [-spec-cache N]
              [-budget N] [-deadline D] [-max-deadline D] [-stall-timeout D]
              [-breaker N] [-heartbeat D] [-drain-timeout D] [-metrics-out f]
              [-pprof] [-store dir] [-tenants file.json]
                                 (HTTP/JSON analysis daemon; -store makes it
                                  crash-only: specs persist, killed batches
                                  hand off to the next generation; -tenants
                                  sets per-tenant quotas + fair queuing;
                                  see README "Serving" and "Hardening")
  tango version                  (build identity: version, commit, toolchain)

exit codes: 0 valid, 1 error, 2 invalid, 3 inconclusive (budget, deadline,
cancellation or stall), 4 malformed trace, 5 malformed specification,
6 valid after completing from a -resume checkpoint`
}

func compileArg(path string) (*tango.Spec, error) {
	spec, err := tango.CompileFile(path)
	if err != nil {
		var pe *os.PathError
		if errors.As(err, &pe) {
			return nil, err // file access problem (exit 1), not a spec problem
		}
		return nil, &codeError{exitBadSpec, err}
	}
	return spec, nil
}

// traceError classifies an error as malformed trace input (exit 4).
func traceError(err error) error { return &codeError{exitBadTrace, err} }

func runCheck(args []string, w io.Writer) error {
	if len(args) != 1 {
		return usageError{}
	}
	spec, err := compileArg(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: specification %s is valid Tango input (%d transitions, %d states, %d ips)\n",
		args[0], spec.Name(), spec.TransitionCount(), len(spec.States()), len(spec.IPs()))
	return nil
}

func runInfo(args []string, w io.Writer) error {
	if len(args) != 1 {
		return usageError{}
	}
	spec, err := compileArg(args[0])
	if err != nil {
		return err
	}
	inner := spec.Internal()
	fmt.Fprintf(w, "specification %s\n", spec.Name())
	fmt.Fprintf(w, "  states (%d): %s\n", len(spec.States()), strings.Join(spec.States(), ", "))
	fmt.Fprintf(w, "  interaction points (%d):\n", len(spec.IPs()))
	for i, name := range spec.IPs() {
		g := inner.Prog.IPs[i].Group
		fmt.Fprintf(w, "    %-8s channel %s, role %s\n", name, g.Channel.Name, g.Role)
	}
	fmt.Fprintf(w, "  transition declarations (%d):\n", spec.TransitionCount())
	for _, ti := range inner.Prog.Trans {
		var parts []string
		if len(ti.FromStates) > 0 {
			names := make([]string, len(ti.FromStates))
			for i, s := range ti.FromStates {
				names[i] = inner.StateName(s)
			}
			parts = append(parts, "from "+strings.Join(names, ","))
		}
		if ti.To >= 0 {
			parts = append(parts, "to "+inner.StateName(ti.To))
		}
		if ti.WhenInter != nil {
			parts = append(parts, fmt.Sprintf("when %s.%s",
				inner.IPName(ti.WhenIPIndex), ti.WhenInter.Name))
		}
		if ti.Provided != nil {
			parts = append(parts, "provided <expr>")
		}
		fmt.Fprintf(w, "    %-8s %s\n", ti.Name, strings.Join(parts, " "))
	}
	return nil
}

func parseOrder(s string) (tango.OrderOpts, error) {
	switch strings.ToUpper(s) {
	case "NR", "NONE", "":
		return tango.OrderNone, nil
	case "IO":
		return tango.OrderIO, nil
	case "IP":
		return tango.OrderIP, nil
	case "FULL":
		return tango.OrderFull, nil
	}
	return tango.OrderOpts{}, fmt.Errorf("unknown order mode %q (want NR, IO, IP or FULL)", s)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func runAnalyze(args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	order := fs.String("order", "FULL", "relative order checking mode: NR, IO, IP or FULL")
	disable := fs.String("disable", "", "comma-separated IPs whose outputs are not checked")
	unobserved := fs.String("unobserved", "", "comma-separated IPs whose inputs are missing (partial trace)")
	stateSearch := fs.Bool("statesearch", false, "retry from every initial FSM state")
	hash := fs.Bool("hash", false, "prune revisited states with a hash table")
	memo := fs.Bool("memo", false, "memoize refuted (cursor, state) pairs and prune their revisits")
	memoMB := fs.Int64("memo-mb", 0, "dead-state memo budget in MiB (with -memo; 0 = auto-size)")
	online := fs.Bool("online", false, "on-line analysis: read the trace incrementally (MDFS)")
	budget := fs.Int64("budget", 0, "transition budget (0 = default)")
	deadline := fs.Duration("deadline", 0, "wall-clock analysis budget (0 = none); expiry yields a partial verdict, exit 3")
	stallTimeout := fs.Duration("stall-timeout", 0, "on-line mode: give up with a partial verdict when the trace source is silent this long (0 = wait forever)")
	showSolution := fs.Bool("solution", false, "print the accepting transition sequence")
	reportPath := fs.String("report", "", "write a machine-readable run report (tango.report/1) to this file")
	statsJSON := fs.Bool("stats-json", false, "print the final search stats as one JSON line on stderr")
	progress := fs.Bool("progress", false, "print periodic progress heartbeats on stderr")
	progressEvery := fs.Duration("progress-every", 0, "heartbeat interval for -progress (default 1s)")
	traceJSONL := fs.String("trace-jsonl", "", "write structured search events (tango.trace/1 JSONL) to this file")
	traceChrome := fs.String("trace-chrome", "", "write a Chrome trace_event file (load in chrome://tracing or Perfetto) to this file")
	coverOut := fs.String("cover", "", "record spec coverage and write a tango.cover/1 report to this file")
	flight := fs.Int("flight", 0, "keep the last N search events in a flight recorder; a bad verdict dumps them into the report (0 = off)")
	ckptDir := fs.String("checkpoint", "", "write crash-safe checkpoints (tango.ckpt/1) to this directory on an interval and on SIGINT/SIGTERM")
	ckptEvery := fs.Duration("checkpoint-interval", 5*time.Second, "minimum interval between -checkpoint snapshots")
	resumeDir := fs.String("resume", "", "resume from the checkpoint directory of an interrupted run (exit 6 when the resumed run is valid)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) < 2 {
		return usageError{}
	}
	start := time.Now()
	spec, err := compileArg(rest[0])
	if err != nil {
		return err
	}
	mode, err := parseOrder(*order)
	if err != nil {
		return err
	}
	opts := tango.Options{
		Order:              mode,
		DisabledIPs:        splitList(*disable),
		UnobservedIPs:      splitList(*unobserved),
		InitialStateSearch: *stateSearch,
		StateHashing:       *hash,
		Memo:               *memo,
		MemoBytes:          *memoMB << 20,
		MaxTransitions:     *budget,
		StallTimeout:       *stallTimeout,
		Coverage:           *coverOut != "",
		FlightRecorder:     *flight,
	}

	// Observability wiring: a metrics registry backs the report's transition
	// histogram, trace sinks stream search events, and -progress heartbeats
	// go to stderr so stdout stays machine-parsable.
	var reg *obs.Registry
	if *reportPath != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}
	var tracers []obs.Tracer
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			return err
		}
		defer f.Close()
		sink := obs.NewJSONLSink(f)
		defer func() {
			if err := sink.Err(); err != nil {
				fmt.Fprintln(ew, "tango: trace-jsonl:", err)
			}
		}()
		tracers = append(tracers, sink)
	}
	if *traceChrome != "" {
		f, err := os.Create(*traceChrome)
		if err != nil {
			return err
		}
		defer f.Close()
		sink := obs.NewChromeSink(f)
		defer sink.Close()
		tracers = append(tracers, sink)
	}
	if len(tracers) > 0 {
		opts.Tracer = obs.Multi(tracers...)
	}
	if *progress {
		opts.OnProgress = func(p analysis.Progress) { fmt.Fprintln(ew, "progress:", p) }
		opts.ProgressEvery = *progressEvery
	}

	// Checkpointing: the analyzer captures its verified prefix on the
	// interval (and, forced, when the run is interrupted); every capture is
	// written to disk atomically, so a SIGKILL at any moment leaves either
	// the previous or the new snapshot, never a torn one.
	if *ckptDir != "" {
		if *online {
			return fmt.Errorf("-checkpoint is not supported with -online")
		}
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		ckPath := filepath.Join(*ckptDir, checkpoint.SnapshotFile)
		opts.CheckpointEvery = *ckptEvery
		opts.OnCheckpoint = func(ck *analysis.CheckpointState) {
			if err := checkpoint.WriteSnapshot(ckPath, checkpoint.KindAnalysis, ck); err != nil {
				fmt.Fprintln(ew, "tango: checkpoint:", err)
			}
		}
	}

	an, err := spec.NewAnalyzer(opts)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel the context: the analyzer checkpoints its final
	// progress (when -checkpoint is set), reports a partial verdict, and the
	// deferred sinks above flush on the way out. A second signal forces exit.
	ctx, stopSignals := shutdownContext(context.Background(), ew)
	defer stopSignals()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	// Several trace files run as a conformance campaign with a summary.
	if len(rest) > 2 {
		if *online {
			return fmt.Errorf("-online accepts a single trace")
		}
		if *reportPath != "" {
			return fmt.Errorf("-report accepts a single trace")
		}
		if *coverOut != "" {
			return fmt.Errorf("-cover accepts a single trace (use tango cover for a corpus)")
		}
		if *ckptDir != "" || *resumeDir != "" {
			return fmt.Errorf("-checkpoint/-resume accept a single trace")
		}
		return runCampaign(ctx, w, an, rest[1:])
	}

	var in io.Reader = os.Stdin
	if rest[1] != "-" {
		f, err := os.Open(rest[1])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	var res *tango.Result
	resumed := false
	if *online {
		res, err = an.AnalyzeSourceContext(ctx, trace.NewReaderSource(in))
		if err != nil {
			return traceError(err)
		}
	} else {
		var tr *trace.Trace
		tr, err = trace.Read(in)
		if err != nil {
			return traceError(err)
		}
		if *resumeDir != "" {
			// A corrupt or mismatched checkpoint is an operational error
			// (exit 1), never a partial resume.
			sess, serr := analysis.NewSession(spec.Internal(), opts)
			if serr != nil {
				return serr
			}
			res, resumed, err = sess.ResumeFrom(ctx, filepath.Join(*resumeDir, checkpoint.SnapshotFile), tr)
			if err != nil {
				return fmt.Errorf("resume: %w", err)
			}
		} else {
			res, err = an.AnalyzeTraceContext(ctx, tr)
			if err != nil {
				return traceError(err)
			}
		}
	}
	fmt.Fprintf(w, "verdict: %s\n", res.Verdict)
	if resumed {
		fmt.Fprintf(w, "resumed: search restarted below the checkpointed prefix\n")
	} else if *resumeDir != "" {
		fmt.Fprintf(w, "resumed: checkpoint subtree was not accepting; re-ran the full search\n")
	}
	if res.Reason != "" {
		fmt.Fprintf(w, "reason: %s\n", res.Reason)
	}
	if res.Stop != nil {
		fmt.Fprintf(w, "stop: %s\n", res.Stop)
	}
	s := res.Stats
	fmt.Fprintf(w, "stats: TE=%d GE=%d RE=%d SA=%d depth=%d cpu=%s (%.0f trans/s)\n",
		s.TE, s.GE, s.RE, s.SA, s.MaxDepth, s.CPUTime, s.TransitionsPerSecond())
	if s.PGNodes > 0 || s.Regens > 0 {
		fmt.Fprintf(w, "mdfs: pg-nodes=%d re-generates=%d\n", s.PGNodes, s.Regens)
	}
	if s.Faults > 0 {
		fmt.Fprintf(w, "faults: %d contained execution faults (faulting branches treated as infeasible)\n", s.Faults)
	}
	if *showSolution && res.Verdict == analysis.Valid {
		fmt.Fprintf(w, "solution: %s\n", res.SolutionString())
	}
	if d := res.Diagnosis; d != nil {
		fmt.Fprintf(w, "diagnosis: best path explains %d/%d events, ending in state %s\n",
			d.Explained, d.Total, d.State)
		if d.FirstUnexplained != "" {
			fmt.Fprintf(w, "  first unexplained interaction: %s\n", d.FirstUnexplained)
		}
		for _, f := range d.Faults {
			fmt.Fprintf(w, "  fault: %s\n", f)
		}
	}
	if len(res.Flight) > 0 {
		fmt.Fprintf(w, "flight recorder (last %d events before the verdict):\n", *flight)
		for _, line := range res.Flight {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	if *statsJSON {
		b, err := json.Marshal(res.Stats)
		if err != nil {
			return err
		}
		fmt.Fprintln(ew, string(b))
	}
	if *reportPath != "" {
		rep := buildReport(rest[0], rest[1], mode.String(), *online, spec, res, reg, time.Since(start))
		if err := rep.WriteFile(*reportPath); err != nil {
			return err
		}
	}
	if *coverOut != "" && res.Coverage != nil {
		cr, err := analysis.BuildCoverReport(rest[0], spec.Internal(), res.Coverage, 1)
		if err != nil {
			return err
		}
		if err := cr.WriteFile(*coverOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "coverage: %s\n", coverSummaryLine(cr))
	}
	switch res.Verdict {
	case analysis.Valid, analysis.ValidSoFar:
		if *resumeDir != "" {
			return errResumedOK
		}
		return nil
	case analysis.Exhausted, analysis.Partial:
		return errInconclusive
	default:
		return errNotValid
	}
}

// verdictExit maps a verdict to the CLI exit-code taxonomy, the same mapping
// runAnalyze's final switch applies through the error sentinels.
func verdictExit(v analysis.Verdict) int {
	switch v {
	case analysis.Valid, analysis.ValidSoFar:
		return exitOK
	case analysis.Exhausted, analysis.Partial:
		return exitPartial
	default:
		return exitInvalid
	}
}

// buildReport assembles the tango.report/1 record for one analysis run.
func buildReport(specPath, tracePath, mode string, online bool, spec *tango.Spec,
	res *tango.Result, reg *obs.Registry, wall time.Duration) *obs.Report {
	rep := &obs.Report{
		Tool:            "tango analyze",
		Spec:            specPath,
		SpecTransitions: spec.TransitionCount(),
		Trace:           tracePath,
		Mode:            mode,
		Online:          online,
		Verdict:         res.Verdict.String(),
		ExitCode:        verdictExit(res.Verdict),
		Reason:          res.Reason,
		Timing: obs.Timing{
			ParseUS:   res.Stats.ParseTime.Microseconds(),
			CompileUS: res.Stats.CompileTime.Microseconds(),
			SearchUS:  res.Stats.SearchTime.Microseconds(),
			WallUS:    wall.Microseconds(),
		},
		Search: res.Stats.Report(),
	}
	if s := res.Stop; s != nil {
		rep.Stop = &obs.StopDetail{Reason: string(s.Reason), VerifiedPrefix: s.VerifiedPrefix,
			Nodes: s.Nodes, Transitions: s.Transitions}
	}
	if d := res.Diagnosis; d != nil {
		rep.Faults = d.Faults
		if rep.Reason == "" {
			rep.Reason = fmt.Sprintf("explained %d/%d events", d.Explained, d.Total)
			if d.FirstUnexplained != "" {
				rep.Reason += "; first unexplained: " + d.FirstUnexplained
			}
		}
	}
	if reg != nil {
		fired := map[string]int64{}
		metrics := map[string]int64{}
		for k, v := range reg.Scalars() {
			if name, ok := strings.CutPrefix(k, "fired."); ok {
				fired[name] = v
			} else {
				metrics[k] = v
			}
		}
		rep.SetTransitions(fired)
		if len(metrics) > 0 {
			rep.Metrics = metrics
		}
	}
	rep.Flight = res.Flight
	if res.Coverage != nil {
		if cr, err := analysis.BuildCoverReport(specPath, spec.Internal(), res.Coverage, 1); err == nil {
			s := cr.Summary()
			rep.Coverage = &s
		}
	}
	return rep
}

func runLint(args []string, w io.Writer) error {
	if len(args) != 1 {
		return usageError{}
	}
	spec, err := compileArg(args[0])
	if err != nil {
		return err
	}
	findings := lint.Check(spec.Internal())
	if len(findings) == 0 {
		fmt.Fprintf(w, "%s: no findings\n", args[0])
		return nil
	}
	for _, f := range findings {
		fmt.Fprintf(w, "%s: %s\n", args[0], f)
	}
	return nil
}

func runExplore(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	max := fs.Int("max", 10000, "maximum distinct composite states to visit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 1 {
		return usageError{}
	}
	spec, err := compileArg(rest[0])
	if err != nil {
		return err
	}
	res, err := sim.Explore(spec.Internal(), *max)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "explored %d composite states, %d transitions, %d deadlock states",
		res.States, res.Transitions, res.Deadlocks)
	if res.Truncated {
		fmt.Fprintf(w, " (truncated at -max %d)", *max)
	}
	fmt.Fprintln(w)
	var names []string
	for st := range res.FSMStates {
		names = append(names, spec.Internal().StateName(st))
	}
	sort.Strings(names)
	fmt.Fprintf(w, "reachable FSM states (closed system): %s\n", strings.Join(names, ", "))
	return nil
}

func runFormat(args []string, w, ew io.Writer, normal bool) error {
	if len(args) != 1 {
		return usageError{}
	}
	out, stats, err := tango.NormalForm(args[0], normal)
	if err != nil {
		var pe *os.PathError
		if errors.As(err, &pe) {
			return err
		}
		return &codeError{exitBadSpec, err}
	}
	if normal {
		fmt.Fprintf(ew, "# normal form: %d -> %d transitions (%d ifs, %d cases lifted, %d passes)\n",
			stats.Before, stats.After, stats.IfsLifted, stats.CasesLifted, stats.Passes)
	}
	_, err = io.WriteString(w, out)
	return err
}

// runCampaign analyzes each trace file as one test case of a conformance
// campaign and prints a per-case verdict plus a summary, failing (exit 2)
// when any case is not valid.
func runCampaign(ctx context.Context, w io.Writer, an *tango.Analyzer, files []string) error {
	pass, fail := 0, 0
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return traceError(fmt.Errorf("%s: %w", file, err))
		}
		res, err := an.AnalyzeTraceContext(ctx, tr)
		if err != nil {
			return traceError(fmt.Errorf("%s: %w", file, err))
		}
		status := "PASS"
		if res.Verdict != analysis.Valid {
			status = "FAIL"
			fail++
		} else {
			pass++
		}
		fmt.Fprintf(w, "%-4s %-40s %s (TE=%d, %s)\n",
			status, file, res.Verdict, res.Stats.TE, res.Stats.CPUTime)
		if d := res.Diagnosis; d != nil && d.FirstUnexplained != "" {
			fmt.Fprintf(w, "       first unexplained: %s\n", d.FirstUnexplained)
		}
	}
	fmt.Fprintf(w, "campaign: %d passed, %d failed\n", pass, fail)
	if fail > 0 {
		return errNotValid
	}
	return nil
}

func runGenerate(args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "scheduler seed (0 = deterministic declaration order)")
	maxSteps := fs.Int("maxsteps", 10000, "maximum transitions per run directive")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return usageError{}
	}
	spec, err := compileArg(rest[0])
	if err != nil {
		return err
	}
	var sched tango.Scheduler
	if *seed != 0 {
		sched = tango.Seeded(*seed)
	}
	g, err := spec.NewGenerator(sched)
	if err != nil {
		return err
	}

	var in io.Reader = os.Stdin
	if rest[1] != "-" {
		f, err := os.Open(rest[1])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "feed":
			if len(fields) < 3 {
				return fmt.Errorf("script line %d: feed needs IP and INTERACTION", lineno)
			}
			params := map[string]string{}
			for _, f := range fields[3:] {
				eq := strings.IndexByte(f, '=')
				if eq <= 0 {
					return fmt.Errorf("script line %d: malformed parameter %q", lineno, f)
				}
				params[f[:eq]] = f[eq+1:]
			}
			if err := g.Feed(fields[1], fields[2], params); err != nil {
				return fmt.Errorf("script line %d: %w", lineno, err)
			}
		case "run":
			if _, err := g.Run(*maxSteps); err != nil {
				return fmt.Errorf("script line %d: %w", lineno, err)
			}
		case "state":
			fmt.Fprintf(ew, "# state: %s\n", g.FSMState())
		default:
			return fmt.Errorf("script line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if _, err := g.Run(*maxSteps); err != nil {
		return err
	}
	return trace.Write(w, g.Trace())
}
