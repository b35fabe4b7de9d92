// Package tango is the public API of this reproduction of Tango, the
// automatic trace-analysis tool generator for Estelle specifications
// (Ezust & Bochmann, SIGCOMM 1995).
//
// The workflow mirrors the original tool chain:
//
//  1. Compile an Estelle specification (the job of Pet + Dingo):
//
//     spec, err := tango.Compile("tp0.estelle", source)
//
//  2. Generate a trace analyzer for it and analyze traces (the generated
//     TAM's job):
//
//     an, err := spec.NewAnalyzer(tango.Options{Order: tango.OrderFull})
//     res, err := an.AnalyzeTrace(tr)
//     if res.Verdict == tango.Valid { ... }
//
//  3. Or run the specification forward as an implementation and record a
//     trace (implementation generation mode):
//
//     g, err := spec.NewGenerator(tango.Seeded(1))
//     g.Feed("U", "TCONreq", map[string]string{"dst": "3"})
//     g.Run(100)
//     tr := g.Trace()
//
// On-line (dynamic-trace) analysis uses AnalyzeSource with a trace.Source;
// see the examples/online example.
package tango

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/estelle/parser"
	"repro/internal/estelle/printer"
	"repro/internal/gen"
	"repro/internal/normalform"
	"repro/internal/trace"
)

// Re-exported analysis types: options, order-checking modes, verdicts,
// statistics and results. See package analysis for field documentation.
type (
	// Options configures a trace analyzer.
	Options = analysis.Options
	// OrderOpts selects relative order checking (§2.4.2 of the paper).
	OrderOpts = analysis.OrderOpts
	// Verdict is an analysis outcome.
	Verdict = analysis.Verdict
	// Stats holds the search counters (TE, GE, RE, SA, CPU time).
	Stats = analysis.Stats
	// Result is the outcome of one analysis.
	Result = analysis.Result
	// Step is one edge of an accepting path.
	Step = analysis.Step
	// Diagnosis explains an invalid or interrupted verdict: deepest verified
	// prefix, first unexplained event, and any contained execution faults.
	Diagnosis = analysis.Diagnosis
	// StopInfo describes why an analysis stopped early (budget, deadline,
	// cancellation, stall) and how far it verified the trace before stopping.
	StopInfo = analysis.StopInfo
	// StopReason is the machine-readable early-stop reason in StopInfo.
	StopReason = analysis.StopReason
)

// The relative order checking modes of the paper's evaluation.
var (
	OrderNone = analysis.OrderNone // NR
	OrderIO   = analysis.OrderIO   // I/O and O/I only
	OrderIP   = analysis.OrderIP   // IP order only
	OrderFull = analysis.OrderFull // all options
)

// Verdicts.
const (
	Invalid       = analysis.Invalid
	Valid         = analysis.Valid
	ValidSoFar    = analysis.ValidSoFar
	LikelyInvalid = analysis.LikelyInvalid
	Exhausted     = analysis.Exhausted
	Partial       = analysis.Partial
)

// Early-stop reasons carried by Result.Stop.
const (
	StopBudget    = analysis.StopBudget
	StopDeadline  = analysis.StopDeadline
	StopCancelled = analysis.StopCancelled
	StopStall     = analysis.StopStall
)

// Re-exported trace types.
type (
	// Trace is a static execution trace.
	Trace = trace.Trace
	// Event is one trace interaction.
	Event = trace.Event
	// Source is a dynamic (growing) trace source for on-line analysis.
	Source = trace.Source
)

// ParseTrace parses trace-file text.
func ParseTrace(text string) (*Trace, error) { return trace.ReadString(text) }

// FormatTrace renders a trace as trace-file text.
func FormatTrace(tr *Trace) string { return trace.Format(tr) }

// Spec is a compiled Estelle specification, ready to generate analyzers and
// implementations.
type Spec struct {
	inner *efsm.Spec
}

// Compile parses, type-checks and compiles specification source text. The
// name is used in error positions only.
func Compile(name, source string) (*Spec, error) {
	s, err := efsm.Compile(name, source)
	if err != nil {
		return nil, err
	}
	return &Spec{inner: s}, nil
}

// CompileFile compiles a specification from a file.
func CompileFile(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Compile(filepath.Base(path), string(b))
}

// Name returns the specification name.
func (s *Spec) Name() string { return s.inner.Prog.Name }

// TransitionCount returns the number of transition declarations, the paper's
// measure of specification size.
func (s *Spec) TransitionCount() int { return s.inner.TransitionCount() }

// States returns the FSM state names.
func (s *Spec) States() []string { return append([]string(nil), s.inner.Prog.States...) }

// IPs returns the interaction point instance names.
func (s *Spec) IPs() []string {
	out := make([]string, s.inner.NumIPs())
	for i := range out {
		out[i] = s.inner.IPName(i)
	}
	return out
}

// Internal exposes the compiled model to sibling internal packages (the CLI
// and benchmark harness); external users should not need it.
func (s *Spec) Internal() *efsm.Spec { return s.inner }

// Analyzer is a generated trace-analysis module (TAM) for one specification.
// It may analyze several traces in turn; a reused Analyzer keeps the trace
// and search-node storage of the largest trace it has analyzed, and reuses it
// for the next.
type Analyzer struct {
	inner *analysis.Analyzer
}

// NewAnalyzer generates a trace analyzer with the given options.
func (s *Spec) NewAnalyzer(opts Options) (*Analyzer, error) {
	a, err := analysis.New(s.inner, opts)
	if err != nil {
		return nil, err
	}
	return &Analyzer{inner: a}, nil
}

// AnalyzeTrace analyzes a static trace.
func (a *Analyzer) AnalyzeTrace(tr *Trace) (*Result, error) { return a.inner.AnalyzeTrace(tr) }

// AnalyzeTraceContext analyzes a static trace under a context: on
// cancellation or deadline expiry the search stops gracefully and returns a
// Partial verdict whose Stop field records the reason and the deepest
// verified trace prefix.
func (a *Analyzer) AnalyzeTraceContext(ctx context.Context, tr *Trace) (*Result, error) {
	return a.inner.AnalyzeTraceContext(ctx, tr)
}

// AnalyzeSource performs on-line analysis of a dynamic trace source using
// multi-threaded depth-first search (§3 of the paper).
func (a *Analyzer) AnalyzeSource(src Source) (*Result, error) { return a.inner.AnalyzeSource(src) }

// AnalyzeSourceContext is AnalyzeSource under a context. With
// Options.StallTimeout set, a source that stops answering polls yields a
// Partial verdict with reason "stall" instead of hanging the analysis.
func (a *Analyzer) AnalyzeSourceContext(ctx context.Context, src Source) (*Result, error) {
	return a.inner.AnalyzeSourceContext(ctx, src)
}

// Scheduler resolves nondeterminism in implementation generation mode.
type Scheduler = gen.Scheduler

// Seeded returns a reproducible uniform-random scheduler.
func Seeded(seed int64) Scheduler { return gen.NewSeededScheduler(seed) }

// Deterministic returns the declaration-order scheduler.
func Deterministic() Scheduler { return gen.FirstScheduler{} }

// Generator runs the specification forward as an implementation, recording a
// trace (implementation generation mode).
type Generator struct {
	inner *gen.Generator
}

// NewGenerator builds an implementation of the specification. A nil
// scheduler picks transitions in declaration order.
func (s *Spec) NewGenerator(sched Scheduler) (*Generator, error) {
	g, err := gen.New(s.inner, sched)
	if err != nil {
		return nil, err
	}
	return &Generator{inner: g}, nil
}

// Feed enqueues an environment input at the named IP; parameter values use
// trace-file syntax.
func (g *Generator) Feed(ip, interaction string, params map[string]string) error {
	return g.inner.Feed(ip, interaction, params)
}

// Step fires one fireable transition; it returns false when quiescent.
func (g *Generator) Step() (bool, error) {
	rec, err := g.inner.Step()
	return rec != nil, err
}

// Run fires transitions until quiescent or maxSteps, returning the count.
func (g *Generator) Run(maxSteps int) (int, error) { return g.inner.Run(maxSteps) }

// Outputs returns output events recorded at or after sequence number afterSeq.
func (g *Generator) Outputs(afterSeq int) []Event { return g.inner.Outputs(afterSeq) }

// Seq returns the number of recorded events so far.
func (g *Generator) Seq() int { return g.inner.Seq() }

// FSMState names the implementation's current FSM state.
func (g *Generator) FSMState() string { return g.inner.FSMState() }

// Trace returns the recorded trace (with EOF marker).
func (g *Generator) Trace() *Trace { return g.inner.Trace() }

// NormalFormStats reports what the §5.3 rewrite did.
type NormalFormStats = normalform.Stats

// NormalForm parses the specification file, optionally applies the §5.3
// normal-form transformation (lifting head-position if/case statements into
// provided clauses), verifies the result still type-checks, and returns the
// pretty-printed source. With transform=false it only formats.
func NormalForm(path string, transform bool) (string, NormalFormStats, error) {
	var stats NormalFormStats
	b, err := os.ReadFile(path)
	if err != nil {
		return "", stats, err
	}
	astSpec, err := parser.Parse(filepath.Base(path), string(b))
	if err != nil {
		return "", stats, err
	}
	if transform {
		astSpec, stats, err = normalform.Transform(astSpec, normalform.Options{})
		if err != nil {
			return "", stats, err
		}
	}
	out := printer.Print(astSpec)
	// The printed result must remain a valid Tango input.
	if _, err := efsm.Compile(filepath.Base(path)+"#printed", out); err != nil {
		return "", stats, fmt.Errorf("internal error: printed output does not compile: %w", err)
	}
	return out, stats, nil
}

// MustCompile is Compile for tests and examples with known-good sources.
func MustCompile(name, source string) *Spec {
	s, err := Compile(name, source)
	if err != nil {
		panic(fmt.Sprintf("tango: MustCompile(%s): %v", name, err))
	}
	return s
}
