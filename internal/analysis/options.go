// Package analysis implements Tango's trace analyzers: the backtracking
// depth-first search over the specification's state space that decides
// whether a trace could have been produced by a conforming implementation
// (§2 of the paper), and the multi-threaded depth-first search (MDFS) used
// for on-line analysis of dynamic traces (§3).
package analysis

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/estelle/sema"
	"repro/internal/obs"
)

// OrderOpts selects the relative order checking options of §2.4.2. The order
// of interactions in the same direction through the same IP is always
// enforced; these options add cross-direction and cross-IP constraints,
// shrinking the search space when the implementation's queues permit it.
type OrderOpts struct {
	// InBeforeOut ("inputs with respect to outputs"): the next input
	// consumed must precede any unverified output at the same IP in the
	// trace. Usable under most circumstances.
	InBeforeOut bool
	// OutBeforeIn ("outputs with respect to inputs"): the next output
	// generated must precede any unconsumed input at the same IP in the
	// trace. Not usable when the implementation has input queues.
	OutBeforeIn bool
	// IPOrder: the next input consumed must precede any other unconsumed
	// input in the trace, and the next output generated must precede any
	// other unverified output — with the special case that outputs emitted
	// by a single transition block to different IPs may appear permuted.
	IPOrder bool
}

// The four checking modes used in the paper's evaluation (Figures 3 and 4).
var (
	// OrderNone disables all relative order checking (mode NR).
	OrderNone = OrderOpts{}
	// OrderIO enables input/output and output/input checking (mode IO).
	OrderIO = OrderOpts{InBeforeOut: true, OutBeforeIn: true}
	// OrderIP enables IP relative order checking only (mode IP).
	OrderIP = OrderOpts{IPOrder: true}
	// OrderFull enables every option (mode FULL).
	OrderFull = OrderOpts{InBeforeOut: true, OutBeforeIn: true, IPOrder: true}
)

// String names the mode as in the paper's tables.
func (o OrderOpts) String() string {
	switch o {
	case OrderNone:
		return "NR"
	case OrderIO:
		return "IO"
	case OrderIP:
		return "IP"
	case OrderFull:
		return "FULL"
	}
	var parts []string
	if o.InBeforeOut {
		parts = append(parts, "I/O")
	}
	if o.OutBeforeIn {
		parts = append(parts, "O/I")
	}
	if o.IPOrder {
		parts = append(parts, "IP")
	}
	return strings.Join(parts, "+")
}

// Options configures an analyzer run.
type Options struct {
	Order OrderOpts

	// DisabledIPs lists IPs whose outputs are not checked (§2.4.3); their
	// trace output events are ignored and outputs the specification sends
	// there are always considered valid.
	DisabledIPs []string

	// UnobservedIPs lists IPs whose inputs are missing from the trace
	// (partial traces, §5.2): when-clauses on them are always enabled and
	// synthesize interactions with undefined parameters. Setting this
	// implies partial-trace (undefined-value) semantics.
	UnobservedIPs []string

	// Partial enables undefined-value semantics (§5.1) even without
	// unobserved IPs, e.g. together with UndefineGlobals.
	Partial bool

	// UndefineGlobals marks every module variable undefined after the
	// initialize transition, for analyzing traces whose initial variable
	// state is unknown (§2.4.1, §5.1). Implies Partial.
	UndefineGlobals bool

	// InitialStateSearch retries the analysis from every FSM state when it
	// fails from the default initial state (§2.4.1). Static mode only.
	InitialStateSearch bool

	// StateHashing prunes states already visited during the search, the
	// extension proposed at the end of §4.2 ("keep information about which
	// states were reached during the search in a hash table, to prevent the
	// analysis of the same state twice").
	StateHashing bool

	// Parallelism once set the worker count of a work-stealing search
	// (DESIGN.md §15).
	//
	// Deprecated: ignored; the search runs on one goroutine.
	Parallelism int

	// Memo enables the dead-state memo: a bounded set of (trace-cursor,
	// state-fingerprint) pairs proven non-accepting, consulted before
	// expanding a node so backtracking never re-explores a refuted subtree.
	// Unlike StateHashing it is bounded (MemoBytes) and only ever records
	// fully-refuted subtrees, which keeps verdicts and diagnoses identical
	// to an unmemoized run (see DESIGN.md §10 for the soundness argument).
	// Ignored in partial-trace mode, whose synthesized-input budget truncates
	// subtrees in ways the memo cannot see.
	Memo bool

	// MemoBytes bounds the dead-state memo's memory. Zero picks an automatic
	// budget proportional to the root state's ApproxBytes. Entries beyond the
	// budget are evicted generationally (Stats.MemoEvictions counts them).
	MemoBytes int64

	// CollisionCheck makes visited-state pruning and the dead-state memo key
	// by full canonical fingerprint strings instead of their 64-bit hashes,
	// counting hash collisions in Stats.Collisions. It trades the memory
	// savings of hashed fingerprints for immunity to collisions — a test and
	// paranoia mode.
	CollisionCheck bool

	// MaxDepth bounds the search-tree depth, protecting against
	// non-progress cycles (default 4 * trace length + 64).
	MaxDepth int

	// MaxTransitions bounds the number of transition executions (TE) before
	// the search gives up with an Exhausted verdict (default 5,000,000).
	MaxTransitions int64

	// MaxHeapCells bounds live dynamic-memory cells per VM state (default
	// 1<<20, vm.Limits). A transition allocating past the bound faults, and
	// the faulting branch is treated as infeasible — the request-scoped heap
	// budget the serving layer maps tenant limits onto.
	MaxHeapCells int

	// SynthInputBudget bounds, per search path and unobserved IP, the number
	// of synthesized inputs, preventing the infinite-depth trees of §5.4
	// (default 8).
	SynthInputBudget int

	// Reorder enables MDFS dynamic node reordering (§3.1.3): whenever new
	// input arrives, PG-nodes are searched first. Default true. Without it
	// the analyzer runs basic MDFS (§3.1.1): PG-nodes are revisited oldest
	// first only after the rest of the tree is exhausted.
	Reorder bool

	// PGAVPrune drops non-PGAV nodes whenever a PGAV node is found
	// (footnote 2 of the paper): a memory/time optimization that may report
	// invalid on some valid traces.
	PGAVPrune bool

	// PollEvery is the number of node expansions between polls of a dynamic
	// source (default 32).
	PollEvery int

	// MaxIdlePolls bounds consecutive polls that yield no events before
	// on-line analysis returns its in-progress verdict (default 64).
	MaxIdlePolls int

	// StallTimeout bounds how long on-line analysis waits for a dynamic
	// source that has stopped answering (as opposed to answering "no events
	// yet", which MaxIdlePolls governs). When set, the source is polled from
	// a dedicated goroutine so even a Poll blocked inside a read cannot hang
	// the analyzer: once no answer arrives for this long, the search stops
	// with a partial verdict whose stop reason is StopStall. Zero disables
	// stall detection and polls the source directly on the search goroutine.
	StallTimeout time.Duration

	// Tracer, when non-nil, receives a structured event for every search
	// happening (expand, fire, backtrack, prune, save, restore, fork, fault,
	// poll) — see package obs for the schema and the JSONL/Chrome sinks. Nil
	// costs nothing: every hook is guarded by a nil check.
	Tracer obs.Tracer

	// Coverage records per-spec hit counts (transition/state/interaction-point
	// ids) during the search; the snapshot lands in Result.Coverage after each
	// run. Off by default: the fire path then pays only a nil check.
	Coverage bool

	// CoverageSink, when non-nil, accumulates every run's coverage snapshot
	// into the given long-lived recorder (which must be sized to the same
	// spec): after each analysis the per-run counts are folded in before the
	// next run resets them. Implies Coverage. This is the live feedback
	// channel a coverage-guided fuzzer steers by — it sees cumulative
	// campaign coverage without re-summing per-trace snapshots itself.
	CoverageSink *obs.Coverage

	// FlightRecorder, when positive, keeps the last N search events in a ring
	// buffer and attaches the rendered tail to Result.Flight whenever the
	// verdict goes wrong (invalid, likely-invalid, exhausted, partial) — every
	// bad verdict ships its own last-N-steps explanation. Zero disables it.
	FlightRecorder int

	// Metrics, when non-nil, receives live gauges and counters during the
	// search: current depth, heap cells, queue lag, per-transition fire
	// counts, and approximate snapshot bytes. The registry can be published
	// via expvar or embedded in a run report; see obs.Registry.
	Metrics *obs.Registry

	// OnProgress, when non-nil, receives a periodic heartbeat while the
	// search runs, so a long backtracking analysis is not a black box. The
	// callback runs on the search goroutine and must return quickly.
	OnProgress func(Progress)

	// ProgressEvery is the minimum interval between heartbeats (default 1s
	// when OnProgress is set).
	ProgressEvery time.Duration

	// CheckpointEvery enables durable-progress capture during static-trace
	// analysis: at most once per interval (and always when the search is
	// interrupted) the analyzer snapshots its deepest verified prefix into a
	// CheckpointState, retrievable via Analyzer.LastCheckpoint or
	// Session.Checkpoint and restartable via Session.ResumeFrom. Zero
	// disables capture entirely; the search loop then never touches the
	// serializer.
	CheckpointEvery time.Duration

	// OnCheckpoint, when non-nil, receives every captured CheckpointState on
	// the search goroutine (so a CLI can write it to disk as it is taken).
	// Requires CheckpointEvery > 0.
	OnCheckpoint func(*CheckpointState)
}

// Progress is one heartbeat of a running analysis. VerifiedPrefix is
// monotone non-decreasing over the lifetime of one analysis run (including
// initial-state-search retries): it only ever reports the best verified
// prefix seen so far, so a consumer can treat it as committed progress.
type Progress struct {
	// Elapsed is the wall time since the analysis started.
	Elapsed time.Duration
	// Depth is the depth of the node being expanded; MaxDepth the deepest
	// expanded so far.
	Depth, MaxDepth int
	// VerifiedPrefix counts trace events explained by the best verified
	// search path so far; TotalEvents counts events ingested. For a static
	// trace TotalEvents is fixed; on-line it grows.
	VerifiedPrefix, TotalEvents int
	// Nodes and TE are the search-effort counters so far.
	Nodes, TE int64
	// PrunedByMemo counts subtrees skipped by the dead-state memo so far, so
	// heartbeats do not silently understate explored work when the memo is
	// active.
	PrunedByMemo int64
	// TPS is the mean transition-execution throughput since the start.
	TPS float64
	// EOF reports whether the trace end has been seen (on-line mode).
	EOF bool
}

// String renders the heartbeat as the CLI's -progress line.
func (p Progress) String() string {
	s := fmt.Sprintf("t=%.1fs depth=%d/%d verified=%d/%d nodes=%d TE=%d (%.0f trans/s)",
		p.Elapsed.Seconds(), p.Depth, p.MaxDepth, p.VerifiedPrefix, p.TotalEvents,
		p.Nodes, p.TE, p.TPS)
	if p.PrunedByMemo > 0 {
		s += fmt.Sprintf(" memo-pruned=%d", p.PrunedByMemo)
	}
	return s
}

func (o Options) withDefaults(traceLen int) Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4*traceLen + 64
	}
	if o.MaxTransitions <= 0 {
		o.MaxTransitions = 5_000_000
	}
	if o.SynthInputBudget <= 0 {
		o.SynthInputBudget = 8
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 32
	}
	if o.MaxIdlePolls <= 0 {
		o.MaxIdlePolls = 64
	}
	if len(o.UnobservedIPs) > 0 || o.UndefineGlobals {
		o.Partial = true
	}
	if o.OnProgress != nil && o.ProgressEvery <= 0 {
		o.ProgressEvery = time.Second
	}
	return o
}

// Verdict is the outcome of an analysis.
type Verdict int

// The possible verdicts. Valid and Invalid are conclusive. ValidSoFar and
// LikelyInvalid are the on-line verdicts of §3.1.2: ValidSoFar means a
// PGAV-node exists (every interaction seen so far is explained);
// LikelyInvalid means only non-AV PG-nodes remain. Exhausted means a resource
// bound (MaxTransitions/MaxDepth everywhere) stopped the search first.
// Partial means the run itself was interrupted — deadline, cancellation or a
// stalled dynamic source — before the search could decide; Result.Stop
// carries the machine-readable details.
const (
	Invalid Verdict = iota
	Valid
	ValidSoFar
	LikelyInvalid
	Exhausted
	Partial
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	case ValidSoFar:
		return "valid so far"
	case LikelyInvalid:
		return "likely invalid"
	case Exhausted:
		return "search budget exhausted"
	case Partial:
		return "partial (analysis interrupted)"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Conclusive reports whether the verdict is definitive.
func (v Verdict) Conclusive() bool { return v == Valid || v == Invalid }

// StopReason says which resource or interruption stopped a search before it
// reached a conclusive verdict. The values are stable machine-readable
// strings (part of the CLI's documented output).
type StopReason string

// The stop reasons.
const (
	// StopBudget: the MaxTransitions budget ran out (verdict Exhausted).
	StopBudget StopReason = "budget"
	// StopDeadline: the context deadline expired (verdict Partial).
	StopDeadline StopReason = "deadline"
	// StopCancelled: the context was cancelled (verdict Partial).
	StopCancelled StopReason = "cancelled"
	// StopStall: the dynamic source stopped answering for longer than
	// Options.StallTimeout (verdict Partial).
	StopStall StopReason = "stall"
)

// StopInfo describes an interrupted search: how far it verifiably got and
// why it stopped. It is the "die gracefully" half of on-line analysis — a run
// that cannot finish still reports a structured account of its progress
// instead of an error or a hang.
type StopInfo struct {
	Reason StopReason
	// VerifiedPrefix is the number of trace events explained by the deepest
	// verified search path found before the stop (the same measure as
	// Diagnosis.Explained).
	VerifiedPrefix int
	// Nodes and Transitions record the search effort spent before the stop.
	Nodes       int64
	Transitions int64
}

// String renders the stop info compactly.
func (s *StopInfo) String() string {
	return fmt.Sprintf("reason=%s verified-prefix=%d nodes=%d transitions=%d",
		s.Reason, s.VerifiedPrefix, s.Nodes, s.Transitions)
}

// Stats are the search counters reported in the paper's tables (Figure 3/4):
// transitions executed (TE), generate operations (GE), restores/backtracks
// (RE) and state saves (SA), plus CPU time.
type Stats struct {
	TE int64 // transitions executed during search
	GE int64 // generate operations
	RE int64 // restores (backtracks) performed
	SA int64 // state saves

	MaxDepth int   // deepest node expanded
	Nodes    int64 // nodes created
	PGNodes  int64 // nodes that became partially-generated (MDFS)
	Regens   int64 // re-generate operations on PG nodes (MDFS)
	Forks    int64 // partial-trace decision forks taken
	HashHits int64 // visited-state prunes
	SynthIn  int64 // synthesized undefined inputs consumed
	Faults   int64 // contained VM execution faults (panics) treated as infeasible

	PrunedByMemo  int64 // subtrees skipped by the dead-state memo
	MemoEvictions int64 // dead-state memo entries evicted under the byte budget
	Collisions    int64 // hash collisions caught in CollisionCheck mode

	// Events is the number of trace events ingested (fixed for a static
	// trace; the final count for an on-line source).
	Events int

	// The timing breakdown. ParseTime and CompileTime are the tool-generation
	// phases (copied from efsm.Spec.Timing when the spec was built with
	// Compile); SearchTime is the analysis run itself. CPUTime is kept as an
	// alias of SearchTime for backward compatibility with the paper-facing
	// tables.
	ParseTime   time.Duration
	CompileTime time.Duration
	SearchTime  time.Duration
	CPUTime     time.Duration
}

// TransitionsPerSecond is the paper's §4 throughput measure.
func (s Stats) TransitionsPerSecond() float64 {
	if s.CPUTime <= 0 {
		return 0
	}
	return float64(s.TE) / s.CPUTime.Seconds()
}

// AverageFanout estimates the mean number of children per expanded node, the
// measure discussed in §4.2 (2.6 without order checking vs 1.5 under full
// checking for invalid TP0 traces).
func (s Stats) AverageFanout() float64 {
	if s.GE == 0 {
		return 0
	}
	return float64(s.TE) / float64(s.GE)
}

// Report converts the counters to the run-report mirror in package obs
// (obs cannot import this package, so the report schema carries its own
// struct).
func (s Stats) Report() obs.SearchStats {
	return obs.SearchStats{
		TE: s.TE, GE: s.GE, RE: s.RE, SA: s.SA,
		MaxDepth: s.MaxDepth, Nodes: s.Nodes, PGNodes: s.PGNodes,
		Regens: s.Regens, Forks: s.Forks, HashHits: s.HashHits,
		SynthIn: s.SynthIn, Faults: s.Faults, Events: s.Events,
		PrunedByMemo: s.PrunedByMemo, MemoEvictions: s.MemoEvictions,
		Collisions:  s.Collisions,
		TransPerSec: s.TransitionsPerSecond(), AvgFanout: s.AverageFanout(),
	}
}

// Step is one edge of the solution path.
type Step struct {
	Trans *sema.TransInfo
	// EventSeq is the global trace position of the consumed input, or -1
	// for spontaneous transitions and synthesized (unobserved) inputs.
	EventSeq int
	// Synthesized marks inputs invented for unobserved IPs.
	Synthesized bool
}

// String renders the step as "name" or "name<seq".
func (s Step) String() string {
	switch {
	case s.Synthesized:
		return s.Trans.Name + "<?"
	case s.EventSeq >= 0:
		return fmt.Sprintf("%s<%d", s.Trans.Name, s.EventSeq)
	default:
		return s.Trans.Name
	}
}

// Diagnosis explains a non-valid verdict: the best partial explanation the
// search found. This is the information the paper's interoperability-arbiter
// use case needs — not just "invalid" but which observed interaction no
// conforming implementation could have produced.
type Diagnosis struct {
	// Explained counts trace events accounted for on the best path; Total is
	// the number of events in the trace.
	Explained, Total int
	// State names the FSM state reached at the end of the best path.
	State string
	// FirstUnexplained is the earliest trace event (in global order) the
	// best path could not consume or verify; empty when everything was
	// explained (the trace failed for another reason, e.g. missing events).
	FirstUnexplained string
	// Path is the best partial transition sequence.
	Path []Step
	// Faults lists contained VM execution faults encountered during the
	// search (capped), so a verdict influenced by a crashing transition is
	// visibly flagged.
	Faults []string
}

// Result is the outcome of one analysis run.
type Result struct {
	Verdict Verdict
	Stats   Stats
	// Solution is the accepting transition sequence when Verdict is Valid
	// (or ValidSoFar), from the root.
	Solution []Step
	// InitialState is the FSM state ordinal the accepted run started from
	// (differs from the default under InitialStateSearch).
	InitialState int
	// Reason describes why an inconclusive verdict was returned.
	Reason string
	// Diagnosis is set for Invalid (and Exhausted/Partial) verdicts.
	Diagnosis *Diagnosis
	// Stop is set when the search stopped early (budget, deadline,
	// cancellation, stall); it carries the verified-prefix length and a
	// machine-readable reason.
	Stop *StopInfo
	// Coverage is the run's spec-coverage snapshot (Options.Coverage).
	Coverage *obs.CoverageCounts
	// Flight is the flight-recorder tail (Options.FlightRecorder), rendered
	// oldest-first; set only when the verdict went wrong.
	Flight []string
}

// SolutionString renders the accepting path compactly.
func (r *Result) SolutionString() string {
	parts := make([]string, len(r.Solution))
	for i, s := range r.Solution {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}
