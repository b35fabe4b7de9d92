package analysis

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Analyzer is a trace analysis module (TAM) generated from a specification:
// it decides the validity of traces against the spec by backtracking search.
// An Analyzer is not safe for concurrent use, but may be reused for several
// traces sequentially. A reused Analyzer keeps the trace and search-node
// storage of the largest trace it has analyzed, and reuses it for the next.
type Analyzer struct {
	spec *efsm.Spec
	opts Options
	exec *vm.Exec

	// Trace storage: events in arrival order, plus per-IP input/output lists
	// holding indexes into events. Lists only grow (dynamic traces); reset
	// truncates them, so a Session reuses their arrays from trace to trace.
	events  []efsm.ResolvedEvent
	inputs  [][]int
	outputs [][]int

	disabled   []bool
	unobserved []bool

	dynamic bool
	eofSeen bool
	// autoDepth records that MaxDepth was not set by the caller, so reset
	// recomputes it from each trace's length (a reused Session must not keep
	// the first trace's cap) and on-line ingestion grows it as events arrive
	// (an on-line run starts with zero events, which would otherwise pin the
	// cap at the floor and refute any deeper stream).
	autoDepth bool

	stats Stats
	// The search's visited table (StateHashing) and dead-state memo (Memo),
	// made when a search starts and dropped by foldPruneStats.
	seen   *seenTable
	memo   *memoStore
	faults []string

	// Search-node storage, kept across reset (see newNode and recycle): free
	// holds nodes nothing can read any more, with their candidate and
	// cursor arrays; stack is the backing array of the DFS stack; nodeSeq
	// numbers the nodes in order of creation. params is the buffer each
	// Execute call's interaction parameters are copied into, and tis the
	// one computeCandidates looks an input's transitions up into.
	free    []*node
	stack   []*node
	nodeSeq uint64
	params  []vm.Value
	tis     []*sema.TransInfo

	// Observability (all optional; nil costs nothing on the hot path).
	tracer obs.Tracer
	// cov records spec coverage (Options.Coverage); flight keeps the last-N
	// search events (Options.FlightRecorder) and is also fanned into tracer.
	cov    *obs.Coverage
	flight *obs.FlightRecorder
	// Pre-resolved metric handles, nil when Options.Metrics is nil, so the
	// search never does a name lookup.
	mDepth, mHeap, mLag *obs.Gauge
	mDepthHist          *obs.Histogram
	mSnapBytes          *obs.Counter
	mMemoPrunes         *obs.Counter
	mMemoEvict          *obs.Counter
	fireCounters        map[*sema.TransInfo]*obs.Counter

	// Heartbeat state. progressBest is the monotone verified prefix across
	// the whole run, including initial-state-search retries.
	progressBest       int
	runStart, lastBeat time.Time

	// Checkpoint state (see checkpoint.go). All inert unless
	// Options.CheckpointEvery is set.
	typeTable       *vm.TypeTable
	lastCkpt        *CheckpointState
	lastCkptAt      time.Time
	traceDigest     string
	specDigestCache string
}

// maxRecordedFaults caps how many contained execution faults are kept for the
// diagnosis; Stats.Faults still counts them all.
const maxRecordedFaults = 8

// node is one node of the search tree: a saved or live TAM state plus queue
// cursors (§2.3), its generated transition list, and MDFS bookkeeping.
type node struct {
	parent *node
	via    Step
	// seq is the creation number newNode stamps from Analyzer.nodeSeq.
	seq uint64

	// live is the state the node represents; saved is a private snapshot
	// taken when the node may need to be restored (several candidates, or a
	// PG-node that must be revisited).
	live  *vm.State
	saved *vm.State

	inCur, outCur []int
	synth         []int // synthesized-input counts per IP (partial mode)
	depth         int

	cands []candidate
	next  int

	// seeds are pre-built children from partial-mode forked execution, each
	// holding its forked state; adoptSeed counts and checks them.
	seeds []*node

	// MDFS state.
	pg       bool
	deferred []candidate
	genLen   int // len(events) at last (re-)generate

	// Dead-state memo bookkeeping. fp is the node's fingerprint hash (state
	// + cursors), valid when hashed is set; canon is the canonical string,
	// kept only in CollisionCheck mode. truncated marks a node whose subtree
	// was not fully explored — a depth prune, a parked PG descendant — and
	// which therefore must never be memoized as dead, nor any ancestor.
	fp        uint64
	hashed    bool
	canon     string
	truncated bool
}

type candidate struct {
	ti *sema.TransInfo
	// eventIdx indexes a.events for consumed inputs; -1 for spontaneous
	// transitions; -2 for synthesized inputs at unobserved IPs.
	eventIdx int
	params   []vm.Value
}

const (
	evSpontaneous = -1
	evSynthesized = -2
)

// New builds an analyzer over a compiled specification.
func New(spec *efsm.Spec, opts Options) (*Analyzer, error) {
	a := &Analyzer{spec: spec, opts: opts}
	nIPs := spec.NumIPs()
	a.disabled = make([]bool, nIPs)
	a.unobserved = make([]bool, nIPs)
	a.inputs = make([][]int, nIPs)
	a.outputs = make([][]int, nIPs)
	for _, name := range opts.DisabledIPs {
		id, ok := spec.IPByName(name)
		if !ok {
			return nil, fmt.Errorf("disable ip: unknown interaction point %q", name)
		}
		a.disabled[id] = true
	}
	for _, name := range opts.UnobservedIPs {
		id, ok := spec.IPByName(name)
		if !ok {
			return nil, fmt.Errorf("unobserved ip: unknown interaction point %q", name)
		}
		a.unobserved[id] = true
	}
	a.exec = vm.New(spec.Code)
	if opts.MaxHeapCells > 0 {
		a.exec.Limits.MaxHeapCells = opts.MaxHeapCells
	}
	a.tracer = opts.Tracer
	if opts.Coverage || opts.CoverageSink != nil {
		a.cov = obs.NewCoverage(len(spec.Prog.Trans), spec.NumStates(), nIPs)
	}
	if opts.FlightRecorder > 0 {
		a.flight = obs.NewFlightRecorder(opts.FlightRecorder)
		a.tracer = obs.Multi(a.tracer, a.flight)
	}
	if m := opts.Metrics; m != nil {
		a.mDepth = m.Gauge("search.depth")
		a.mDepthHist = m.Histogram("search.depth_hist", 4, 16, 64, 256, 1024)
		a.mHeap = m.Gauge("vm.heap_cells")
		a.mLag = m.Gauge("source.queue_lag")
		a.mSnapBytes = m.Counter("save.snapshot_bytes")
		a.mMemoPrunes = m.Counter("memo.prunes")
		a.mMemoEvict = m.Counter("memo.evictions")
		a.fireCounters = make(map[*sema.TransInfo]*obs.Counter, len(spec.Prog.Trans))
		for _, ti := range spec.Prog.Trans {
			a.fireCounters[ti] = m.Counter("fired." + ti.Name)
		}
	}
	return a, nil
}

// Spec returns the specification under analysis.
func (a *Analyzer) Spec() *efsm.Spec { return a.spec }

// Stats returns the counters of the last analysis.
func (a *Analyzer) Stats() Stats { return a.stats }

// SetOnProgress replaces the heartbeat callback for subsequent analyses, so a
// harness reusing one analyzer across traces (the batch engine) can re-target
// each trace's heartbeats. Must not be called while an analysis is running.
func (a *Analyzer) SetOnProgress(fn func(Progress)) { a.opts.OnProgress = fn }

func (a *Analyzer) reset(traceLen int) {
	if a.opts.MaxDepth <= 0 {
		a.autoDepth = true
	}
	if a.autoDepth {
		a.opts.MaxDepth = 0 // recompute from this trace's length
	}
	a.opts = a.opts.withDefaults(traceLen)
	a.exec.Partial = a.opts.Partial
	// Entries past the new length would pin the last trace's value array.
	clear(a.events[:cap(a.events)])
	a.events = a.events[:0]
	for p := range a.inputs {
		a.inputs[p], a.outputs[p] = a.inputs[p][:0], a.outputs[p][:0]
	}
	a.eofSeen = false
	a.stats = Stats{ParseTime: a.spec.Timing.Parse, CompileTime: a.spec.Timing.Check}
	a.faults = nil
	a.seen, a.memo = nil, nil
	if a.cov != nil {
		a.cov.Reset() // per-run counts, so a reused Session snapshots per trace
	}
	if a.flight != nil {
		a.flight.Reset()
	}
	a.progressBest = 0
	a.runStart = time.Now()
	a.lastBeat = a.runStart
	a.lastCkpt = nil
	a.lastCkptAt = a.runStart
	a.traceDigest = ""
}

// finishRun is the single place the analysis clock stops: it stamps the
// search-time split and attaches the final counters to the result (when the
// run produced one). Deferred from every Analyze entry point.
func (a *Analyzer) finishRun(start time.Time, res **Result) {
	a.foldPruneStats()
	a.stats.SearchTime = time.Since(start)
	a.stats.CPUTime = a.stats.SearchTime
	a.stats.Events = len(a.events)
	if *res != nil {
		(*res).Stats = a.stats
		if a.cov != nil {
			(*res).Coverage = a.cov.Snapshot()
			if sink := a.opts.CoverageSink; sink != nil {
				// Fold the run's counts into the caller's campaign recorder
				// before the next reset zeroes them. A shape mismatch means the
				// sink was sized to a different spec; surface it loudly rather
				// than silently dropping coverage.
				if err := sink.AddCounts((*res).Coverage); err != nil {
					panic(err)
				}
			}
		}
		if a.flight != nil {
			switch (*res).Verdict {
			case Invalid, LikelyInvalid, Exhausted, Partial:
				(*res).Flight = a.flight.TailStrings()
			}
		}
	}
}

// FlightTail returns the flight recorder's current rendered tail (oldest
// first), or nil when Options.FlightRecorder is off. It is what a supervisor
// dumps when the analyzer dies mid-run — a panicking search never reaches
// finishRun's verdict-gated attachment, but the ring still holds its last
// steps.
func (a *Analyzer) FlightTail() []string {
	if a.flight == nil {
		return nil
	}
	return a.flight.TailStrings()
}

// foldPruneStats moves the eviction and collision counts of the memo and the
// visited table into Stats and drops both tables, so the next search starts
// with fresh ones. Called before each initial-state retry and once at the end
// of the run.
func (a *Analyzer) foldPruneStats() {
	if a.memo != nil {
		a.addPruneCounts(a.memo.counts())
	}
	if a.seen != nil {
		a.addPruneCounts(0, a.seen.Collisions())
	}
	a.seen, a.memo = nil, nil
}

// addPruneCounts adds memo evictions and fingerprint collisions to Stats.
func (a *Analyzer) addPruneCounts(evictions, collisions int64) {
	a.stats.MemoEvictions += evictions
	a.stats.Collisions += collisions
	if a.mMemoEvict != nil {
		a.mMemoEvict.Add(evictions)
	}
}

// ingest resolves and stores newly arrived trace events: one ResolveEvents
// call per batch, into a.events grown once (amortised, so an on-line run of
// many small polls stays linear).
func (a *Analyzer) ingest(events []trace.Event) error {
	start := len(a.events)
	resolved, err := a.spec.ResolveEvents(slices.Grow(a.events, len(events)), events)
	// Keep the resolved events in trace order, so an input at an unobserved
	// IP is reported before a later event's resolution error.
	kept := start
	for _, re := range resolved[start:] {
		if re.Dir == trace.Out && a.disabled[re.IP] {
			continue // §2.4.3: outputs at disabled IPs are not checked
		}
		if re.Dir == trace.In && a.unobserved[re.IP] {
			err = fmt.Errorf("trace contains input at unobserved ip %s", a.spec.IPName(re.IP))
			break
		}
		resolved[kept] = re
		if re.Dir == trace.In {
			a.inputs[re.IP] = append(a.inputs[re.IP], kept)
		} else {
			a.outputs[re.IP] = append(a.outputs[re.IP], kept)
		}
		kept++
	}
	a.events = resolved[:kept]
	if err != nil {
		return err
	}
	// On-line runs start from an empty trace; keep the auto depth cap in
	// step with what has actually arrived, or a stream deeper than the
	// zero-length floor would be spuriously refuted at the cap.
	if a.autoDepth {
		if d := 4*len(a.events) + 64; d > a.opts.MaxDepth {
			a.opts.MaxDepth = d
		}
	}
	return nil
}

// AnalyzeTrace analyzes a fully loaded (static) trace.
func (a *Analyzer) AnalyzeTrace(tr *trace.Trace) (*Result, error) {
	return a.AnalyzeTraceContext(context.Background(), tr)
}

// AnalyzeTraceContext analyzes a static trace under a context: when ctx is
// cancelled or its deadline passes, the search stops at the next expansion and
// returns a Partial verdict carrying the deepest verified prefix (the paper's
// "die gracefully" requirement) instead of an error.
func (a *Analyzer) AnalyzeTraceContext(ctx context.Context, tr *trace.Trace) (res *Result, err error) {
	a.dynamic = false
	a.reset(tr.Len())
	a.eofSeen = true
	if a.opts.CheckpointEvery > 0 {
		a.traceDigest = TraceDigest(tr)
	}
	if err := a.ingest(tr.Events); err != nil {
		return nil, err
	}
	defer a.finishRun(time.Now(), &res)
	res, err = a.search(ctx, nil, a.spec.Prog.InitTo, nil)
	if err != nil {
		return nil, err
	}
	// §2.4.1 initial FSM state search: backtrack to just after initialize and
	// retry from every other state.
	if res.Verdict == Invalid && a.opts.InitialStateSearch {
		for st := 0; st < a.spec.NumStates() && res.Verdict == Invalid; st++ {
			if st == a.spec.Prog.InitTo {
				continue
			}
			// Dead-state entries are forward-sound across retries, but a
			// fresh memo keeps each retry's exploration (and therefore its
			// diagnosis) byte-identical to a standalone run from that state.
			a.foldPruneStats()
			res2, err := a.search(ctx, nil, st, nil)
			if err != nil {
				return nil, err
			}
			if res2.Verdict != Invalid {
				res = res2
			}
		}
	}
	return res, nil
}

// AnalyzeSource performs on-line (MDFS) analysis of a dynamic trace source.
func (a *Analyzer) AnalyzeSource(src trace.Source) (*Result, error) {
	return a.AnalyzeSourceContext(context.Background(), src)
}

// AnalyzeSourceContext performs on-line analysis under a context. With
// Options.StallTimeout set, the source is polled from a dedicated goroutine so
// that a blocked read cannot hang the analyzer: a source silent for longer
// than the timeout yields a Partial verdict with reason "stall". Without a
// stall timeout the source is polled directly on this goroutine (fully
// deterministic, but a Poll that blocks forever blocks the analysis).
func (a *Analyzer) AnalyzeSourceContext(ctx context.Context, src trace.Source) (res *Result, err error) {
	a.dynamic = true
	a.reset(0)
	p := newSourcePoller(src, a.opts.StallTimeout > 0)
	defer p.close()
	defer a.finishRun(time.Now(), &res)
	r, answered := p.poll(ctx, a.opts.StallTimeout)
	if !answered {
		return a.stopResult(a.spec.Prog.InitTo, nil, 0, a.interruptReason(ctx), Partial,
			"trace source did not answer the initial poll"), nil
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := a.ingest(r.events); err != nil {
		return nil, err
	}
	a.eofSeen = r.eof
	return a.search(ctx, p, a.spec.Prog.InitTo, nil)
}

// interruptReason maps a context/stall interruption to its StopReason.
func (a *Analyzer) interruptReason(ctx context.Context) StopReason {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return StopDeadline
	case ctx.Err() != nil:
		return StopCancelled
	default:
		return StopStall
	}
}

// stopResult builds the structured partial verdict for an interrupted search.
// bestFSM is the FSM ordinal captured when best last advanced (see searchLoop).
func (a *Analyzer) stopResult(initState int, best *node, bestFSM int, reason StopReason, v Verdict, why string) *Result {
	stop := &StopInfo{Reason: reason, Nodes: a.stats.Nodes, Transitions: a.stats.TE}
	if best != nil {
		stop.VerifiedPrefix = a.explained(best)
	}
	var d *Diagnosis
	if best != nil {
		d = a.diagnoseWithFSM(best, bestFSM)
	}
	return &Result{
		Verdict:      v,
		InitialState: initState,
		Reason:       why,
		Diagnosis:    d,
		Stop:         stop,
	}
}

// ---------------------------------------------------------------------------
// The search

// search wraps searchLoop with the observability boundary: the whole loop
// runs under the tango_phase=search pprof label, and the tracer (when set)
// sees a search_start/search_end pair bracketing the run. start, when
// non-nil, is a pre-built node (with parent chain) to search from instead of
// a fresh root — the checkpoint-resume entry point.
func (a *Analyzer) search(ctx context.Context, src *sourcePoller, initState int, start *node) (res *Result, err error) {
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.KindSearchStart, N: int64(len(a.events)),
			Detail: a.spec.StateName(initState)})
		defer func() {
			detail := "error"
			if res != nil {
				detail = res.Verdict.String()
			}
			a.tracer.Event(obs.Event{Kind: obs.KindSearchEnd, Detail: detail})
		}()
	}
	pprof.Do(ctx, pprof.Labels("tango_phase", "search"), func(ctx context.Context) {
		res, err = a.searchLoop(ctx, src, initState, start)
	})
	return res, err
}

// searchLoop runs (M)DFS from the given initial FSM state. src is nil in
// static mode. The context is checked once per expansion, alongside the
// transition budget; an interrupted search returns a structured Partial
// result, never an error.
func (a *Analyzer) searchLoop(ctx context.Context, src *sourcePoller, initState int, start *node) (*Result, error) {
	root := start
	if root == nil {
		var err error
		root, err = a.makeRoot(initState)
		if err != nil {
			return nil, err
		}
	}
	if a.opts.StateHashing && a.seen == nil {
		a.seen = newSeenTable(a.opts.CollisionCheck)
	}
	if a.opts.Memo && !a.opts.Partial && a.memo == nil {
		a.memo = newMemoStore(a.memoBudget(root), a.opts.CollisionCheck)
	}
	stack := append(a.stack[:0], root)
	defer func() {
		// By now the Result is built, and Solution and Diagnosis.Path are
		// copies. In a static run, hand back the states of the nodes still
		// on the stack, top first so that a state shared in place is
		// released once, then recycle the nodes.
		if !a.dynamic {
			for i := len(stack) - 1; i >= 0; i-- {
				releaseNode(stack[i])
			}
			for _, n := range stack {
				a.recycle(n)
			}
		}
		clear(stack[:cap(stack)])
		a.stack = stack[:0]
	}()
	var pgSaved []*node // MDFS: fully-explored PG-nodes awaiting new input
	var pgav *node      // best PGAV node seen (dynamic mode)

	// best tracks the node explaining the most trace events, for the
	// diagnosis attached to invalid verdicts. bestFSM is the FSM ordinal of
	// the best node's state, captured when the best advances: a node explored
	// in place shares its live *vm.State with deeper nodes, so reading the
	// FSM at diagnosis time would report wherever later exploration left the
	// shared state, not the state the best path actually reached.
	best := root
	bestScore := a.explained(root)
	bestFSM := a.stateOf(root).FSM
	// While a static run takes checkpoints, bestState is a snapshot of the
	// best node's state, taken when best advances, for maybeCheckpoint to
	// serialize: by the time a capture is due, the best node has usually
	// been popped and has handed its own states back. It is not a Save, so
	// SA does not count it.
	var bestState *vm.State
	if a.opts.CheckpointEvery > 0 && !a.dynamic {
		bestState = a.stateOf(root).Snapshot()
		defer func() { vm.ReleaseState(bestState) }()
	}
	a.noteProgress(bestScore)
	note := func(n *node) {
		sc := a.explained(n)
		if sc > bestScore {
			best, bestScore, bestFSM = n, sc, a.stateOf(n).FSM
			if bestState != nil {
				vm.ReleaseState(bestState)
				bestState = a.stateOf(n).Snapshot()
			}
		}
		a.noteProgress(sc)
	}

	// curOwner tracks which node's live state the shared mutable state
	// belongs to; executing in place is only legal from that node.
	curOwner := root

	if done := a.complete(root); done && a.eofSeen {
		return a.accept(root, initState), nil
	} else if done {
		pgav = root
	}
	if err := a.generate(root); err != nil {
		return nil, err
	}
	a.maybeSave(root)
	a.notePush(root)

	expansions := 0
	idlePolls := 0

	// poll asks the source for news. wait only matters in async mode (see
	// sourcePoller.poll); arrived=false covers both "answered empty" (which
	// counts as an idle poll) and "no answer yet" (which does not).
	poll := func(wait time.Duration) (bool, error) {
		if src == nil || a.eofSeen {
			return false, nil
		}
		r, answered := src.poll(ctx, wait)
		if !answered {
			return false, nil
		}
		if r.err != nil {
			return false, r.err
		}
		if err := a.ingest(r.events); err != nil {
			return false, err
		}
		if r.eof {
			a.eofSeen = true
		}
		if a.tracer != nil {
			detail := ""
			if r.eof {
				detail = "eof"
			}
			a.tracer.Event(obs.Event{Kind: obs.KindPoll, N: int64(len(r.events)), Detail: detail})
		}
		if a.mLag != nil {
			a.mLag.Set(int64(len(a.events) - a.progressBest))
		}
		arrived := len(r.events) > 0 || r.eof
		if arrived {
			idlePolls = 0
			if a.seen != nil {
				// New events change what "failure" means; visited-state
				// pruning must start over (hashing is a static-mode
				// optimization, kept sound here by clearing). The dead-state
				// memo needs no clearing: it only ever records nodes proven
				// dead after EOF, when the event lists are final.
				a.addPruneCounts(0, a.seen.Collisions())
				a.seen = newSeenTable(a.opts.CollisionCheck)
			}
			if a.opts.Reorder && len(pgSaved) > 0 {
				// §3.1.3 dynamic node reordering: PG-nodes move to where
				// they are searched immediately, the rest goes on hold.
				for i := len(pgSaved) - 1; i >= 0; i-- {
					n := pgSaved[i]
					if err := a.regenerate(n); err != nil {
						return false, err
					}
					a.notePush(n)
					stack = append(stack, n)
				}
				pgSaved = pgSaved[:0]
			}
		} else {
			idlePolls++
		}
		return arrived, nil
	}

	for {
		if a.stats.TE > a.opts.MaxTransitions {
			a.maybeCheckpoint(initState, best, bestState, true)
			return a.stopResult(initState, best, bestFSM, StopBudget, Exhausted,
				fmt.Sprintf("transition budget %d exceeded", a.opts.MaxTransitions)), nil
		}
		if ctx.Err() != nil {
			a.maybeCheckpoint(initState, best, bestState, true)
			return a.stopResult(initState, best, bestFSM, a.interruptReason(ctx), Partial,
				"analysis interrupted: "+ctx.Err().Error()), nil
		}
		expansions++
		if expansions&63 == 0 {
			if a.opts.OnProgress != nil {
				d := 0
				if len(stack) > 0 {
					d = stack[len(stack)-1].depth
				}
				a.maybeBeat(d)
			}
			a.maybeCheckpoint(initState, best, bestState, false)
		}
		if a.dynamic && expansions%a.opts.PollEvery == 0 {
			if _, err := poll(0); err != nil {
				return nil, err
			}
		}

		if len(stack) == 0 {
			if !a.dynamic {
				return &Result{Verdict: Invalid, InitialState: initState,
					Diagnosis: a.diagnoseWithFSM(best, bestFSM)}, nil
			}
			// MDFS idle handling: revive PG-nodes, wait for input, or stop.
			if a.eofSeen {
				// Queues are final (§3.1.2 forced termination): PG-nodes
				// become fully generated; revisit them all.
				progressed := false
				for len(pgSaved) > 0 {
					n := pgSaved[0]
					pgSaved = pgSaved[1:]
					if a.complete(n) {
						return a.accept(n, initState), nil
					}
					if n.genLen < len(a.events) || len(n.deferred) > 0 {
						if err := a.regenerate(n); err != nil {
							return nil, err
						}
						n.pg = false
						a.notePush(n)
						stack = append(stack, n)
						progressed = true
						break
					}
				}
				if !progressed {
					return &Result{Verdict: Invalid, InitialState: initState,
						Diagnosis: a.diagnoseWithFSM(best, bestFSM)}, nil
				}
				continue
			}
			// Not EOF: try the oldest PG-node that can make progress
			// (basic MDFS, §3.1.1).
			revived := false
			for i, n := range pgSaved {
				if n.genLen < len(a.events) {
					pgSaved = append(pgSaved[:i], pgSaved[i+1:]...)
					if err := a.regenerate(n); err != nil {
						return nil, err
					}
					a.notePush(n)
					stack = append(stack, n)
					revived = true
					break
				}
			}
			if revived {
				continue
			}
			if src != nil && src.async() {
				// Async mode: wait out the remaining stall budget for an
				// answer instead of busy-polling; a source silent past the
				// budget has stalled and the search dies gracefully.
				wait := a.opts.StallTimeout - src.idleFor()
				if wait <= 0 {
					return a.stopResult(initState, best, bestFSM, StopStall, Partial,
						fmt.Sprintf("trace source stalled for over %v", a.opts.StallTimeout)), nil
				}
				arrived, err := poll(wait)
				if err != nil {
					return nil, err
				}
				if arrived {
					continue
				}
				if ctx.Err() != nil {
					continue // the loop top reports the interruption
				}
				if src.idleFor() >= a.opts.StallTimeout {
					return a.stopResult(initState, best, bestFSM, StopStall, Partial,
						fmt.Sprintf("trace source stalled for over %v", a.opts.StallTimeout)), nil
				}
			} else if arrived, err := poll(0); err != nil {
				return nil, err
			} else if arrived {
				continue
			}
			if idlePolls > a.opts.MaxIdlePolls {
				// §3.1.2: no conclusive result can be given while PG-nodes
				// remain; report the in-progress verdict.
				switch {
				case pgav != nil:
					res := a.accept(pgav, initState)
					res.Verdict = ValidSoFar
					return res, nil
				case len(pgSaved) > 0:
					return &Result{Verdict: LikelyInvalid, InitialState: initState,
						Reason:    "only non-AV PG-nodes remain in the search tree",
						Diagnosis: a.diagnoseWithFSM(best, bestFSM)}, nil
				default:
					return &Result{Verdict: Invalid, InitialState: initState,
						Diagnosis: a.diagnoseWithFSM(best, bestFSM)}, nil
				}
			}
			continue
		}

		n := stack[len(stack)-1]
		if n.depth > a.stats.MaxDepth {
			a.stats.MaxDepth = n.depth
		}
		// Events may have arrived since this node generated its transition
		// list; refresh it so no newly-fireable transition is missed.
		if a.dynamic && n.genLen < len(a.events) {
			if err := a.regenerate(n); err != nil {
				return nil, err
			}
		}

		// Partial-mode seeds first.
		if len(n.seeds) > 0 {
			child := n.seeds[0]
			n.seeds = n.seeds[1:]
			if !a.adoptSeed(child) {
				continue
			}
			note(child)
			if done := a.complete(child); done && a.eofSeen {
				return a.accept(child, initState), nil
			} else if done {
				if pgav == nil || child.depth > pgav.depth {
					pgav = child
				}
				if a.opts.PGAVPrune {
					a.notePrune(child.depth, viaName(child), "pgav")
					a.notePopAll(stack)
					stack = stack[:0]
					pgSaved = pgSaved[:0]
					a.savePG(child, &pgSaved)
					continue
				}
			}
			if err := a.generate(child); err != nil {
				return nil, err
			}
			a.maybeSave(child)
			a.notePush(child)
			curOwner = child
			stack = append(stack, child)
			continue
		}

		if n.next >= len(n.cands) {
			// Node fully explored for now.
			stack = stack[:len(stack)-1]
			a.notePop(n)
			if n.truncated && n.parent != nil {
				// A cut-off subtree does not prove the parent dead either.
				n.parent.truncated = true
			}
			if a.dynamic && (n.pg || a.complete(n)) && !a.eofSeen {
				a.savePG(n, &pgSaved)
			} else {
				a.memoizeDead(n)
				if !a.dynamic {
					releaseNode(n)
					// Every node made while n was on the stack descends
					// from n, so a best made before n is neither n nor
					// below it: nothing reads n any more.
					if best.seq < n.seq {
						a.recycle(n)
					}
				}
			}
			continue
		}

		c := n.cands[n.next]
		n.next++

		child, ok, err := a.executeCandidate(n, c, &curOwner)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if child == nil {
			continue // partial mode stored seeds on n
		}
		note(child)
		if done := a.complete(child); done && a.eofSeen {
			return a.accept(child, initState), nil
		} else if done {
			if pgav == nil || child.depth > pgav.depth {
				pgav = child
			}
			if a.opts.PGAVPrune {
				a.notePrune(child.depth, viaName(child), "pgav")
				a.notePopAll(stack)
				stack = stack[:0]
				pgSaved = pgSaved[:0]
				a.savePG(child, &pgSaved)
				continue
			}
		}
		if err := a.generate(child); err != nil {
			return nil, err
		}
		a.maybeSave(child)
		a.notePush(child)
		curOwner = child
		stack = append(stack, child)
	}
}

func (a *Analyzer) makeRoot(initState int) (*node, error) {
	st, outs, err := a.exec.RunInit()
	if err != nil {
		return nil, fmt.Errorf("initialize transition: %w", err)
	}
	st.FSM = initState
	if a.cov != nil {
		a.cov.HitState(initState)
	}
	if a.opts.UndefineGlobals {
		for i, gv := range a.spec.Prog.GlobalVars {
			st.Globals[i] = vm.Zero(gv.Type, true)
		}
	}
	nIPs := a.spec.NumIPs()
	root := a.newNode(nil)
	root.live = st
	root.inCur = append(root.inCur[:0], make([]int, nIPs)...)
	root.outCur = append(root.outCur[:0], make([]int, nIPs)...)
	if a.opts.Partial {
		root.synth = make([]int, nIPs)
	}
	// Outputs produced by the initialize block must be verified like any
	// other outputs.
	if len(outs) > 0 {
		status := a.matchOutputsWith(outs, root.inCur, root.outCur)
		if status != matchOK {
			return nil, fmt.Errorf("initialize transition outputs do not match the trace")
		}
	}
	a.stats.Nodes++
	return root, nil
}

func (a *Analyzer) accept(n *node, initState int) *Result {
	return &Result{Verdict: Valid, Solution: pathTo(n), InitialState: initState}
}

// pathTo returns the steps from the root to n, root first; nil at the root.
// A node's depth counts the steps above it, so the path is filled from its
// end while walking up. It checks the chain it walks: each parent sits one
// level above its child and was made before it, and the walk ends at depth 0.
// A chain that breaks this holds a recycled node, so pathTo panics rather
// than read it.
func pathTo(n *node) []Step {
	var steps []Step
	if n.depth > 0 {
		steps = make([]Step, n.depth)
	}
	x := n
	for ; x.parent != nil; x = x.parent {
		if p := x.parent; p.depth != x.depth-1 || p.seq >= x.seq {
			panic(fmt.Sprintf("analysis: search path broken at depth %d (node %d, parent %d at depth %d)",
				x.depth, x.seq, p.seq, p.depth))
		}
		steps[x.depth-1] = x.via
	}
	if x.depth != 0 {
		panic(fmt.Sprintf("analysis: search path ends at depth %d, not at the root", x.depth))
	}
	return steps
}

// newNode returns a node for a child of parent, or for a root when parent is
// nil: a recycled one from the free list when there is one, else a new one.
// Every node of the search comes from here, stamped with its creation number.
func (a *Analyzer) newNode(parent *node) *node {
	var n *node
	if k := len(a.free); k > 0 {
		n = a.free[k-1]
		a.free[k-1] = nil
		a.free = a.free[:k-1]
	} else {
		n = new(node)
	}
	a.nodeSeq++
	n.parent, n.seq = parent, a.nodeSeq
	if parent != nil {
		n.depth = parent.depth + 1
	}
	return n
}

// recycle puts a node that nothing can read any more on the free list, reset
// to its zero value except for its candidate, cursor and synthesized-input
// arrays, which it keeps at length 0 for the next node. The candidate array
// is cleared to its capacity, so a recycled node cannot pin the last trace's
// parameter values. On-line runs recycle nothing: a parked PG-node keeps its
// parent chain, and it can be revived and accepted after its ancestors have
// popped.
func (a *Analyzer) recycle(n *node) {
	if a.dynamic {
		return
	}
	clear(n.cands[:cap(n.cands)])
	*n = node{cands: n.cands[:0], inCur: n.inCur[:0], outCur: n.outCur[:0], synth: n.synth[:0]}
	a.free = append(a.free, n)
}

// complete reports whether every known input was consumed and every known
// output verified at node n (the accepting condition; for dynamic traces
// before EOF this is the PGAV condition of §3.1.2).
func (a *Analyzer) complete(n *node) bool {
	for p := 0; p < a.spec.NumIPs(); p++ {
		if n.inCur[p] < len(a.inputs[p]) || n.outCur[p] < len(a.outputs[p]) {
			return false
		}
	}
	return true
}

// maybeSave snapshots the node when it may be revisited: more than one
// pending alternative, or PG status in dynamic mode (§3.1.1: "it is
// necessary to save the PG-node"). This is the Save operation.
func (a *Analyzer) maybeSave(n *node) {
	if n.saved != nil {
		return
	}
	remaining := len(n.cands) - n.next + len(n.seeds)
	if remaining > 1 || n.pg || (a.dynamic && !a.eofSeen) {
		n.saved = n.live.Snapshot()
		a.stats.SA++
		a.noteSave(n)
	}
}

func (a *Analyzer) savePG(n *node, pgSaved *[]*node) {
	if n.saved == nil {
		n.saved = n.live.Snapshot()
		a.stats.SA++
		a.noteSave(n)
	}
	// A parked subtree is unresolved: until it is revived and refuted, no
	// ancestor's pop proves anything, so poison the chain for the memo.
	if n.parent != nil {
		n.parent.truncated = true
	}
	a.stats.PGNodes++
	*pgSaved = append(*pgSaved, n)
}

// releaseNode hands a popped node's states back to the vm pool: its saved
// snapshot, and its live state unless the parent shares that state in place.
// An in-place chain shares one *vm.State and the topmost node holding it owns
// it; its descendants were popped before it. The fields are cleared, so a
// stale read of a released container fails loudly; checkpoints serialize the
// best node from searchLoop's own snapshot, and diagnoses read the FSM
// captured when the best node advanced. Only static runs release: an on-line
// (MDFS) node can be parked as a PG-node, revived and popped again.
func releaseNode(n *node) {
	vm.ReleaseState(n.saved)
	if n.parent == nil || n.parent.live != n.live {
		vm.ReleaseState(n.live)
	}
	n.saved, n.live = nil, nil
}

// memoBudget is the dead-state memo's byte budget: Options.MemoBytes, or
// room for ~4096 states of the root state's footprint, clamped to
// [1 MiB, 64 MiB].
func (a *Analyzer) memoBudget(root *node) int64 {
	if a.opts.MemoBytes > 0 {
		return a.opts.MemoBytes
	}
	return min(max(4096*a.stateOf(root).ApproxBytes(), 1<<20), 64<<20)
}

// memoizeDead records a popped node in the memo when the fully explored node
// proves its subtree non-accepting: its candidate list was complete for the
// final trace (post-EOF in dynamic mode), and no part of the subtree was
// truncated, deferred, or parked. See DESIGN.md §10.3.
func (a *Analyzer) memoizeDead(n *node) {
	if a.memo != nil && n.hashed && !n.truncated && !n.pg && len(n.deferred) == 0 &&
		!(a.dynamic && !a.eofSeen) && n.genLen == len(a.events) {
		a.memo.insert(n.fp, n.canon)
	}
}

// ---------------------------------------------------------------------------
// Observability hooks. Every helper is nil-safe and inlines to almost nothing
// when neither a tracer nor a metrics registry is attached.

// viaName is the transition that led to n, empty for the root.
func viaName(n *node) string {
	if n.parent == nil {
		return ""
	}
	return n.via.Trans.Name
}

// notePush records a node entering the search stack (an expand).
func (a *Analyzer) notePush(n *node) {
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.KindExpand, Depth: n.depth, Trans: viaName(n),
			N: int64(len(n.cands) - n.next + len(n.seeds))})
	}
	if a.mDepth != nil {
		a.mDepth.Set(int64(n.depth))
		a.mDepthHist.Observe(int64(n.depth))
		a.mHeap.Set(int64(n.live.Heap.Len()))
	}
}

// notePop records a node leaving the stack (a backtrack). The event carries
// the node's via transition so duration sinks can pair it with the expand.
func (a *Analyzer) notePop(n *node) {
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.KindBacktrack, Depth: n.depth, Trans: viaName(n)})
	}
}

// notePopAll unwinds tracer slices for a wholesale stack clear (PGAV prune).
func (a *Analyzer) notePopAll(stack []*node) {
	if a.tracer == nil {
		return
	}
	for i := len(stack) - 1; i >= 0; i-- {
		a.notePop(stack[i])
	}
}

// noteFire records one transition execution.
func (a *Analyzer) noteFire(n *node, c candidate, seq int) {
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.KindFire, Depth: n.depth + 1, Trans: c.ti.Name, EventSeq: seq})
	}
	if a.cov != nil {
		a.cov.HitTrans(c.ti.Index)
		if c.eventIdx >= 0 {
			a.cov.HitIP(a.events[c.eventIdx].IP)
		}
	}
	if a.fireCounters != nil {
		if ctr := a.fireCounters[c.ti]; ctr != nil {
			ctr.Inc()
		}
	}
}

// notePrune records a rejected search edge with its reason
// (mismatch/blocked/depth/hash/infeasible/pgav).
func (a *Analyzer) notePrune(depth int, trans, why string) {
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.KindPrune, Depth: depth, Trans: trans, Detail: why})
	}
}

// noteSave records a state snapshot and its approximate byte cost.
func (a *Analyzer) noteSave(n *node) {
	if a.tracer == nil && a.mSnapBytes == nil {
		return
	}
	b := n.live.ApproxBytes()
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.KindSave, Depth: n.depth, N: b})
	}
	if a.mSnapBytes != nil {
		a.mSnapBytes.Add(b)
	}
}

// noteProgress advances the monotone verified prefix and the queue-lag gauge.
func (a *Analyzer) noteProgress(sc int) {
	if sc > a.progressBest {
		a.progressBest = sc
		if a.mLag != nil {
			a.mLag.Set(int64(len(a.events) - sc))
		}
	}
}

// maybeBeat emits a heartbeat when ProgressEvery has elapsed since the last.
func (a *Analyzer) maybeBeat(depth int) {
	now := time.Now()
	if now.Sub(a.lastBeat) < a.opts.ProgressEvery {
		return
	}
	a.lastBeat = now
	elapsed := now.Sub(a.runStart)
	p := Progress{
		Elapsed:        elapsed,
		Depth:          depth,
		MaxDepth:       max(a.stats.MaxDepth, depth),
		VerifiedPrefix: a.progressBest,
		TotalEvents:    len(a.events),
		Nodes:          a.stats.Nodes,
		TE:             a.stats.TE,
		PrunedByMemo:   a.stats.PrunedByMemo,
		EOF:            a.eofSeen,
	}
	if s := elapsed.Seconds(); s > 0 {
		p.TPS = float64(a.stats.TE) / s
	}
	a.opts.OnProgress(p)
}

// ---------------------------------------------------------------------------
// Generate

// generate computes the fireable-transition list of a node (§2.2 Generate).
// It also determines PG status: in dynamic mode, a node whose transition list
// is incomplete because an input queue is empty is partially generated.
func (a *Analyzer) generate(n *node) error {
	a.stats.GE++
	cands, pg, err := a.computeCandidates(n, n.cands[:0])
	if err != nil {
		return err
	}
	n.cands = cands
	n.next = 0
	n.pg = pg && a.dynamic && !a.eofSeen
	n.genLen = len(a.events)
	return nil
}

// regenerate recomputes the candidate list of a PG node after new input
// arrived, keeping already-tried candidates skipped (§3.1.1 re-generate).
func (a *Analyzer) regenerate(n *node) error {
	a.stats.GE++
	a.stats.Regens++
	// A fresh list: merging below reads the tried prefix of n.cands.
	cands, pg, err := a.computeCandidates(n, nil)
	if err != nil {
		return err
	}
	// Preserve the tried prefix: candidates are generated deterministically
	// and the list only grows, but previously deferred (blocked) candidates
	// must be retried, so rebuild as tried-prefix + untried.
	tried := make(map[candKey]bool, n.next)
	for _, c := range n.cands[:n.next] {
		tried[keyOf(c)] = true
	}
	for _, c := range n.deferred {
		tried[keyOf(c)] = false // force retry
	}
	n.deferred = nil
	newCands := n.cands[:n.next:n.next]
	for _, c := range cands {
		if done, seen := tried[keyOf(c)]; !seen || !done {
			newCands = append(newCands, c)
		}
	}
	n.cands = newCands
	n.pg = pg && a.dynamic && !a.eofSeen
	n.genLen = len(a.events)
	return nil
}

type candKey struct {
	ti  *sema.TransInfo
	evt int
}

func keyOf(c candidate) candKey { return candKey{c.ti, c.eventIdx} }

// computeCandidates appends n's fireable candidates to cands and reports
// whether n is partially generated.
func (a *Analyzer) computeCandidates(n *node, cands []candidate) ([]candidate, bool, error) {
	pg := false
	// Use the node's authoritative state: a failed in-place execution leaves
	// n.live past the transition, while n.saved still holds the node's state.
	state := a.stateOf(n)
	fsm := state.FSM

	// Spontaneous transitions.
	for _, ti := range a.spec.Spontaneous(fsm) {
		ok, err := a.provided(state, ti, nil)
		if err != nil {
			return nil, false, err
		}
		if ok {
			cands = append(cands, candidate{ti: ti, eventIdx: evSpontaneous})
		}
	}

	// When-clause transitions, one IP at a time.
	for p := 0; p < a.spec.NumIPs(); p++ {
		if a.unobserved[p] {
			// §5.2: undefined input queues always offer a synthesized
			// interaction, bounded per path to avoid infinite trees (§5.4).
			if n.synth != nil && n.synth[p] >= a.opts.SynthInputBudget {
				continue
			}
			for _, ti := range a.spec.When(fsm, p) {
				params := make([]vm.Value, len(ti.WhenInter.Params))
				for i, ip := range ti.WhenInter.Params {
					params[i] = vm.UndefValue(ip.Type)
				}
				ok, err := a.provided(state, ti, params)
				if err != nil {
					return nil, false, err
				}
				if ok {
					cands = append(cands, candidate{ti: ti, eventIdx: evSynthesized, params: params})
				}
			}
			continue
		}
		if n.inCur[p] >= len(a.inputs[p]) {
			// Input queue empty: transitions here may become fireable when
			// new input arrives — the PG criterion. Disabled IPs are exempt:
			// §3.2.1 prescribes disable_ip exactly to stop every node from
			// becoming PG when an IP will never see input.
			if a.spec.HasWhenOn(fsm, p) && !a.disabled[p] {
				pg = true
			}
			continue
		}
		evIdx := a.inputs[p][n.inCur[p]]
		ev := &a.events[evIdx]
		if a.inputBlocked(n, p, ev) {
			continue
		}
		a.tis = a.spec.WhenInput(a.tis[:0], fsm, p, ev.Inter, ev.Params)
		for _, ti := range a.tis {
			ok, err := a.provided(state, ti, ev.Params)
			if err != nil {
				return nil, false, err
			}
			if ok {
				cands = append(cands, candidate{ti: ti, eventIdx: evIdx, params: ev.Params})
			}
		}
	}

	// Estelle priority: only minimal-priority transitions are offered.
	cands = filterPriority(cands)
	return cands, pg, nil
}

// provided evaluates a transition guard; a runtime error inside the guard
// (e.g. a nil dereference in a condition lifted there by the normal-form
// transformation) means the guard cannot hold, so the transition is simply
// not enabled.
func (a *Analyzer) provided(st *vm.State, ti *sema.TransInfo, params []vm.Value) (bool, error) {
	ok, err := a.exec.EvalProvided(st, ti, params)
	if err != nil {
		if a.containedErr(err) {
			return false, nil
		}
		return false, err
	}
	return ok, nil
}

// containedErr reports whether err is a per-transition failure that the
// search absorbs as an infeasible branch: a diagnosed Estelle runtime error,
// or a contained VM panic (an execution fault). Faults are counted and
// recorded for the diagnosis; runtime errors are expected search events and
// are not.
func (a *Analyzer) containedErr(err error) bool {
	switch e := err.(type) {
	case *vm.RuntimeError:
		return true
	case *vm.FaultError:
		a.stats.Faults++
		if len(a.faults) < maxRecordedFaults {
			a.faults = append(a.faults, e.Error())
		}
		if a.tracer != nil {
			a.tracer.Event(obs.Event{Kind: obs.KindFault, Detail: e.Error()})
		}
		return true
	}
	return false
}

// inputBlocked applies the §2.4.2 order-checking constraints to the front
// input of IP p.
func (a *Analyzer) inputBlocked(n *node, p int, ev *efsm.ResolvedEvent) bool {
	if a.opts.Order.InBeforeOut {
		// The consumed input must precede any unverified output at this IP.
		if n.outCur[p] < len(a.outputs[p]) &&
			a.events[a.outputs[p][n.outCur[p]]].Seq < ev.Seq {
			return true
		}
	}
	if a.opts.Order.IPOrder {
		// The consumed input must be the globally earliest remaining input.
		for q := 0; q < a.spec.NumIPs(); q++ {
			if q == p || n.inCur[q] >= len(a.inputs[q]) {
				continue
			}
			if a.events[a.inputs[q][n.inCur[q]]].Seq < ev.Seq {
				return true
			}
		}
	}
	return false
}

func filterPriority(cands []candidate) []candidate {
	if len(cands) < 2 {
		return cands
	}
	min := cands[0].ti.Priority
	mixed := false
	for _, c := range cands[1:] {
		if c.ti.Priority != min {
			mixed = true
			if c.ti.Priority < min {
				min = c.ti.Priority
			}
		}
	}
	if !mixed {
		return cands
	}
	out := cands[:0]
	for _, c := range cands {
		if c.ti.Priority == min {
			out = append(out, c)
		}
	}
	return out
}

// stateOf returns the node's current state for read-only evaluation,
// preferring the live state (which equals saved when untouched).
func (a *Analyzer) stateOf(n *node) *vm.State {
	if n.saved != nil {
		return n.saved
	}
	return n.live
}

// ---------------------------------------------------------------------------
// Update (candidate execution) and output verification

type matchStatus int

const (
	matchOK matchStatus = iota
	matchFail
	matchBlocked // output list exhausted before EOF (dynamic mode)
)

// executeCandidate performs the Update operation for candidate c of node n.
// It returns the child node, or ok=false if the edge failed (mismatch,
// blocked, depth limit, or hash prune); a child refuted here is recycled. In
// partial mode, forked results are stored as seeds on n and (nil, true) is
// returned.
func (a *Analyzer) executeCandidate(n *node, c candidate, curOwner **node) (*node, bool, error) {
	if n.depth+1 > a.opts.MaxDepth {
		a.notePrune(n.depth+1, c.ti.Name, "depth")
		n.truncated = true // the cut-off branch might have accepted
		return nil, false, nil
	}
	via := a.stepFor(c)

	if a.opts.Partial {
		// Forked execution: every feasible decision vector yields a seed.
		a.stats.TE++
		a.noteFire(n, c, via.EventSeq)
		results, err := a.exec.ExecuteForked(a.stateOf(n), c.ti, a.paramsFor(c.params))
		if err != nil {
			if a.containedErr(err) {
				a.notePrune(n.depth+1, c.ti.Name, "infeasible")
				return nil, false, nil // branch dies, path fails
			}
			return nil, false, err
		}
		if len(results) > 1 {
			a.stats.Forks += int64(len(results) - 1)
			if a.tracer != nil {
				a.tracer.Event(obs.Event{Kind: obs.KindFork, Depth: n.depth + 1,
					Trans: c.ti.Name, N: int64(len(results) - 1)})
			}
		}
		for _, r := range results {
			child := a.newNode(n)
			child.via, child.live = via, r.State
			a.setCursors(child, c)
			if why := a.matchChild(child, c, r.Outputs); why != "" {
				a.notePrune(child.depth, c.ti.Name, why)
				vm.ReleaseState(r.State) // forked states are exclusively ours
				a.recycle(child)
				continue
			}
			n.seeds = append(n.seeds, child)
		}
		return nil, true, nil
	}

	// Normal mode: execute on the live state, restoring from the snapshot
	// when the live state has moved on (§2.2 Restore). A restored state is
	// exclusively ours until the child adopts it, so every failure path
	// below hands it back to the snapshot pool.
	var st *vm.State
	restored := false
	if *curOwner == n && n.live != nil {
		st = n.live
		if n.saved == nil && n.next < len(n.cands) {
			// More candidates will need this state later.
			n.saved = st.Snapshot()
			a.stats.SA++
			a.noteSave(n)
		}
	} else {
		if n.saved == nil {
			// Should not happen: nodes that can be revisited are saved.
			n.saved = n.live.Snapshot()
			a.stats.SA++
			a.noteSave(n)
		}
		st = n.saved.Snapshot()
		restored = true
		a.stats.RE++
		if a.tracer != nil {
			a.tracer.Event(obs.Event{Kind: obs.KindRestore, Depth: n.depth})
		}
	}
	*curOwner = nil // state in flux during execution

	a.stats.TE++
	a.noteFire(n, c, via.EventSeq)
	outs, err := a.exec.Execute(st, c.ti, a.paramsFor(c.params))
	if err != nil {
		if a.containedErr(err) {
			a.notePrune(n.depth+1, c.ti.Name, "infeasible")
			if restored {
				vm.ReleaseState(st)
			}
			return nil, false, nil
		}
		return nil, false, err
	}
	child := a.newNode(n)
	child.via, child.live = via, st
	a.setCursors(child, c)
	why := a.matchChild(child, c, outs)
	if why == "" {
		a.stats.Nodes++
		why = a.checkChild(child, st)
	}
	if why != "" {
		a.notePrune(child.depth, c.ti.Name, why)
		if restored {
			vm.ReleaseState(st)
		}
		a.recycle(child)
		return nil, false, nil
	}
	return child, true, nil
}

// stepFor is the search edge that candidate c makes.
func (a *Analyzer) stepFor(c candidate) Step {
	via := Step{Trans: c.ti, EventSeq: evSpontaneous}
	if c.eventIdx >= 0 {
		via.EventSeq = a.events[c.eventIdx].Seq
	} else if c.eventIdx == evSynthesized {
		via.Synthesized = true
	}
	return via
}

// matchChild verifies outs, the outputs of the candidate c that made child,
// against the trace, advancing child's output cursors. It returns "" when
// they match, else the prune reason; a blocked candidate is deferred on
// child's parent, which becomes a PG-node.
func (a *Analyzer) matchChild(child *node, c candidate, outs []vm.Output) string {
	switch a.matchOutputsWith(outs, child.inCur, child.outCur) {
	case matchFail:
		return "mismatch"
	case matchBlocked:
		n := child.parent
		n.pg = true
		n.deferred = append(n.deferred, c)
		return "blocked"
	}
	return ""
}

// checkChild applies visited-state (seen) and dead-state (memo) pruning to a
// freshly created child, computing its fingerprint hash exactly once and
// caching it on the node for memoization at pop time. It returns the reason
// tag for the trace event when the child must be pruned, else "".
func (a *Analyzer) checkChild(child *node, st *vm.State) string {
	if a.cov != nil {
		a.cov.HitState(st.FSM) // the state was reached even if pruned below
	}
	if a.seen == nil && a.memo == nil {
		return ""
	}
	a.fingerprintNode(st, child)
	if a.seen != nil && a.seen.visit(child.fp, child.canon, child.depth) {
		a.stats.HashHits++
		return "hash"
	}
	if a.memo == nil {
		return ""
	}
	if a.memo.lookup(child.fp, child.canon) {
		a.stats.PrunedByMemo++
		if a.mMemoPrunes != nil {
			a.mMemoPrunes.Inc()
		}
		return "memo"
	}
	return ""
}

// fingerprintNode stamps child, whose state is st, with its fingerprint: the
// hash, and under CollisionCheck the canonical string. Both must outlive st,
// because the memo records the node when it is popped, when the live state
// may have moved on.
func (a *Analyzer) fingerprintNode(st *vm.State, child *node) {
	child.fp = a.hashNode(st, child)
	child.hashed = true
	if a.opts.CollisionCheck {
		child.canon = a.fingerprintState(st, child)
	}
}

// hashNode extends the state's fingerprint hash with the node's trace
// cursors and synthesized-input counts — the hashed counterpart of
// fingerprintState.
func (a *Analyzer) hashNode(st *vm.State, n *node) uint64 {
	h := vm.NewHasher()
	h.Mix64(st.Hash64())
	for p := 0; p < a.spec.NumIPs(); p++ {
		h.Byte(':')
		h.Int(int64(n.inCur[p]))
		h.Byte(',')
		h.Int(int64(n.outCur[p]))
		h.Byte(';')
	}
	if n.synth != nil {
		h.Byte('|')
		for _, s := range n.synth {
			h.Int(int64(s))
			h.Byte(',')
		}
	}
	return h.Sum64()
}

// paramsFor deep-copies an event's parameters into the Analyzer's parameter
// buffer, for one Execute call. The next call reuses the buffer: nothing reads
// it after the call returns, because sema makes interaction parameters
// read-only (no assignment, no var argument) and the vm drops them when the
// call ends.
func (a *Analyzer) paramsFor(ps []vm.Value) []vm.Value {
	a.params = a.params[:0]
	for i := range ps {
		a.params = append(a.params, ps[i].Copy())
	}
	return a.params
}

// adoptSeed counts a partial-mode seed, a child that executeCandidate built
// from a forked result, and applies the seen-set and the memo to it. A pruned
// seed hands back its state and is recycled.
func (a *Analyzer) adoptSeed(child *node) bool {
	a.stats.Nodes++
	why := a.checkChild(child, child.live)
	if why == "" {
		return true
	}
	a.notePrune(child.depth, child.via.Trans.Name, why)
	vm.ReleaseState(child.live) // forked seed states are exclusively ours
	a.recycle(child)
	return false
}

// setCursors writes into child's own arrays its parent's trace cursors and
// synthesized-input counts, advanced past the input that c consumes.
func (a *Analyzer) setCursors(child *node, c candidate) {
	n := child.parent
	child.inCur = append(child.inCur[:0], n.inCur...)
	child.outCur = append(child.outCur[:0], n.outCur...)
	if n.synth != nil {
		child.synth = append(child.synth[:0], n.synth...)
	}
	switch {
	case c.eventIdx >= 0:
		child.inCur[a.events[c.eventIdx].IP]++
	case c.eventIdx == evSynthesized:
		if n.synth != nil {
			child.synth[c.ti.WhenIPIndex]++
		}
		a.stats.SynthIn++
	}
}

// matchOutputsWith verifies the outputs of one transition block against the
// trace, advancing outCur in place on success. It implements the §2.4.2
// output-side checks, including the multi-output permutation special case
// under IP-order checking.
func (a *Analyzer) matchOutputsWith(outs []vm.Output, inCur, outCur []int) matchStatus {
	if len(outs) == 0 {
		return matchOK
	}
	if !a.opts.Order.IPOrder {
		for _, o := range outs {
			if a.disabled[o.IP] {
				continue
			}
			st := a.matchOne(o, inCur, outCur)
			if st != matchOK {
				return st
			}
		}
		return matchOK
	}
	// IP-order mode: the block's outputs must be exactly the next outputs in
	// global trace order, as a set — outputs of one block to different IPs
	// may be permuted in the trace (§2.4.2 special case).
	var short [8]vm.Output // most blocks send a few outputs: no allocation
	pending := short[:0]
	for _, o := range outs {
		if !a.disabled[o.IP] {
			pending = append(pending, o)
		}
	}
	for len(pending) > 0 {
		// Any pending output whose trace list is exhausted blocks (dynamic)
		// or fails (static/EOF).
		for _, o := range pending {
			if outCur[o.IP] >= len(a.outputs[o.IP]) {
				if a.dynamic && !a.eofSeen {
					return matchBlocked
				}
				return matchFail
			}
		}
		// Find the globally earliest unverified trace output.
		gIP, gSeq := -1, int(1)<<62
		for q := 0; q < a.spec.NumIPs(); q++ {
			if outCur[q] >= len(a.outputs[q]) {
				continue
			}
			if s := a.events[a.outputs[q][outCur[q]]].Seq; s < gSeq {
				gSeq, gIP = s, q
			}
		}
		if gIP < 0 {
			return matchFail
		}
		// It must be produced by this block (first pending output at gIP, to
		// preserve same-IP emission order).
		matched := -1
		for i, o := range pending {
			if o.IP == gIP {
				matched = i
				break
			}
		}
		if matched < 0 {
			return matchFail
		}
		if st := a.matchOne(pending[matched], inCur, outCur); st != matchOK {
			return st
		}
		pending = append(pending[:matched], pending[matched+1:]...)
	}
	return matchOK
}

// matchOne verifies a single output against the front of its IP's trace
// output list.
func (a *Analyzer) matchOne(o vm.Output, inCur, outCur []int) matchStatus {
	p := o.IP
	if outCur[p] >= len(a.outputs[p]) {
		if a.dynamic && !a.eofSeen {
			return matchBlocked
		}
		return matchFail
	}
	ev := &a.events[a.outputs[p][outCur[p]]]
	if ev.Inter != o.Inter {
		return matchFail
	}
	for i := range o.Params {
		if !vm.MatchParam(o.Params[i], ev.Params[i]) {
			return matchFail
		}
	}
	if a.opts.Order.OutBeforeIn {
		// The generated output must precede any unconsumed input at this IP.
		if inCur[p] < len(a.inputs[p]) &&
			a.events[a.inputs[p][inCur[p]]].Seq < ev.Seq {
			return matchFail
		}
	}
	if a.cov != nil {
		a.cov.HitIP(p) // output verified at this interaction point
	}
	outCur[p]++
	return matchOK
}

// fingerprintState is the canonical string form of a node fingerprint
// (state + trace cursors + synth counts): collision-free, stable across
// processes, and therefore what checkpoints and CollisionCheck mode use.
// The search hot path uses hashNode, the 64-bit digest of the same data.
func (a *Analyzer) fingerprintState(st *vm.State, n *node) string {
	fp := st.Fingerprint()
	var extra []byte
	for p := 0; p < a.spec.NumIPs(); p++ {
		extra = append(extra, byte('0'+n.inCur[p]%10))
		extra = fmt.Appendf(extra, ":%d,%d;", n.inCur[p], n.outCur[p])
	}
	if n.synth != nil {
		extra = fmt.Appendf(extra, "|%v", n.synth)
	}
	return fp + string(extra)
}

// ---------------------------------------------------------------------------
// Diagnostics

// explained counts the trace events accounted for at node n.
func (a *Analyzer) explained(n *node) int {
	sc := 0
	for p := 0; p < a.spec.NumIPs(); p++ {
		sc += n.inCur[p] + n.outCur[p]
	}
	return sc
}

// diagnoseWithFSM builds the invalid-verdict diagnosis from the best partial
// path. The caller supplies the FSM ordinal it captured when best advanced:
// best's state may since have been released, or moved on in place (see
// searchLoop).
func (a *Analyzer) diagnoseWithFSM(best *node, fsm int) *Diagnosis {
	if best == nil {
		return nil
	}
	d := &Diagnosis{
		Explained: a.explained(best),
		Total:     len(a.events),
		State:     a.spec.StateName(fsm),
		Faults:    append([]string(nil), a.faults...),
	}
	// Earliest unexplained event across all queues.
	bestSeq := int(1) << 62
	var ev *efsm.ResolvedEvent
	for p := 0; p < a.spec.NumIPs(); p++ {
		if best.inCur[p] < len(a.inputs[p]) {
			if e := &a.events[a.inputs[p][best.inCur[p]]]; e.Seq < bestSeq {
				bestSeq, ev = e.Seq, e
			}
		}
		if best.outCur[p] < len(a.outputs[p]) {
			if e := &a.events[a.outputs[p][best.outCur[p]]]; e.Seq < bestSeq {
				bestSeq, ev = e.Seq, e
			}
		}
	}
	if ev != nil {
		d.FirstUnexplained = a.renderEvent(ev)
	}
	d.Path = pathTo(best)
	return d
}

// renderEvent formats a resolved event like a trace line, with its global
// position.
func (a *Analyzer) renderEvent(ev *efsm.ResolvedEvent) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "#%d %s %s %s", ev.Seq, ev.Dir, a.spec.IPName(ev.IP), ev.Inter.Name)
	for i, p := range ev.Inter.Params {
		fmt.Fprintf(&sb, " %s=%s", p.Name, ev.Params[i])
	}
	return sb.String()
}
