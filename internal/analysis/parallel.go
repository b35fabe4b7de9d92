package analysis

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Work-stealing parallel backtracking for static-trace analysis.
//
// The search tree is cut into TASKS: a task is a generated node together with
// its not-yet-issued candidate suffix (n.next..len(n.cands)) and the node's
// state in n.saved. Exactly one goroutine owns a task at a time — ownership
// transfers only through a wsDeque push/pop/steal, whose atomics provide the
// happens-before edge the vm.Heap COW contract requires. The owner issues the
// next candidate (snapshotting the saved state, or consuming it for the last
// candidate), re-publishes the task, and descends into the child — plain DFS
// per worker, while idle workers steal root-most tasks from the top of other
// workers' deques.
//
// Determinism. Every node carries a DFS RANK KEY (parNode.rkey): the
// concatenation, along its path, of "\x02" + the 4-byte big-endian candidate
// index. Lexicographic order on rank keys is exactly the sequential engine's
// chronological visit order. All cross-worker reductions are rank-ordered
// folds — minimum-rank accepting node, (max explained score, min rank) best
// diagnosis node, rank-sorted fault list — and the shared seen/memo tables
// only prune a node against a witness of strictly smaller rank (see
// tables.go), so conclusive verdicts, solutions, and diagnoses are
// byte-identical to the sequential engine's at any worker count. Interrupted
// runs (budget, deadline) stop at a schedule-dependent frontier, exactly as a
// deadline already makes sequential runs time-dependent. DESIGN.md §15 gives
// the full argument.
//
// Completion. parNode.pending counts a node's unresolved candidates; each
// issued edge resolves exactly once (failed, pruned, accepted, abandoned, or
// its child subtree finalized). A node whose count hits zero finalizes:
// dead-state memoization (unless truncated), state release, and resolution of
// its parent edge. Finalizing the root closes the engine's done latch — a
// counting-network termination detector with no idle-scan.
type parNode struct {
	rkey    string       // DFS rank key; "" for the root
	pending atomic.Int32 // unresolved candidate edges
	trunc   atomic.Bool  // subtree not fully explored: never memoize as dead
}

// Rank-key suffixes order a node's own fault classes before its descendants
// and later siblings, matching sequential chronology: execution faults of the
// edge into a node sort before the node's generate-time faults, which sort
// before anything in its subtree ("\x02"...).
const (
	rankExecFault = "\x00"
	rankGenFault  = "\x01"
)

func rankSeg(i int) string {
	return string([]byte{0x02, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)})
}

// parFault is a contained execution fault with its rank position, so the
// merged fault list reads in sequential chronological order.
type parFault struct {
	key string
	seq int // index within the op that produced it
	msg string
}

// maxCollectedFaults bounds the engine-side fault buffer; Stats.Faults still
// counts every fault. Only the first maxRecordedFaults in rank order are
// reported, so the bound is only observable when thousands of faults race in
// before the rank-minimal ones — and then only reorders the reported tail.
const maxCollectedFaults = 4096

const (
	parStopNone int32 = iota
	parStopBudget
	parStopCtx
	parStopErr
)

type parEngine struct {
	a         *Analyzer
	initState int
	nWorkers  int

	deques []*wsDeque
	seen   *sharedSeen
	memo   *sharedMemo

	stop       atomic.Bool
	stopReason atomic.Int32
	done       chan struct{}
	doneOnce   sync.Once

	errMu sync.Mutex
	err   error

	// Reduction state: the canonical (minimum-rank) accepting node and the
	// (max score, min rank) diagnosis node. acceptPtr mirrors acceptKey for
	// lock-free abandonment checks; scoreHint lets noteBest skip the mutex
	// for nodes that cannot improve the best. While CheckpointEvery > 0,
	// bestState is a snapshot of the best node's state, for the forced
	// capture at a stop: finalized nodes hand their own states back.
	mu         sync.Mutex
	acceptNode *node
	acceptKey  string
	acceptPtr  atomic.Pointer[string]
	best       *node
	bestScore  int
	bestKey    string
	bestFSM    int
	bestState  *vm.State
	scoreHint  atomic.Int64

	faultsMu sync.Mutex
	faults   []parFault

	// Heartbeat and budget aggregates, flushed from worker-private stats
	// every ~64 expansions. The final Stats merge reads the worker stats
	// directly (post-WaitGroup, so exact); these are only for progress
	// callbacks and the transition-budget check.
	gTE, gNodes atomic.Int64
	gMemoPrunes atomic.Int64
	gDepth      atomic.Int64
	gScore      atomic.Int64
	steals      atomic.Int64

	ckptMu sync.Mutex
}

func (e *parEngine) requestStop(reason int32) {
	if e.stopReason.CompareAndSwap(parStopNone, reason) {
		e.stop.Store(true)
	}
}

func (e *parEngine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.requestStop(parStopErr)
}

func (e *parEngine) forceDone() {
	e.doneOnce.Do(func() { close(e.done) })
}

// abandoned reports whether a subtree rooted at a node with this rank key can
// no longer affect the canonical outcome: an accept is recorded, the node
// ranks after it, and the node is not an ancestor of it (a prefix of the
// accept key may still contain a smaller accept). Nodes ranking before the
// accept run to completion — the same work the sequential engine does before
// reaching its first accept.
func (e *parEngine) abandoned(key string) bool {
	p := e.acceptPtr.Load()
	return p != nil && key > *p && !strings.HasPrefix(*p, key)
}

func (e *parEngine) recordAccept(n *node) {
	key := n.par.rkey
	e.mu.Lock()
	if e.acceptNode == nil || key < e.acceptKey {
		e.acceptNode, e.acceptKey = n, key
		k := key
		e.acceptPtr.Store(&k)
	}
	e.mu.Unlock()
}

// noteBest folds a surviving child into the diagnosis reduction. st is the
// node's owned state; its FSM ordinal is captured here because the state is
// released back to the pool when the subtree finalizes.
func (e *parEngine) noteBest(n *node, st *vm.State) {
	sc := e.a.explained(n)
	if int64(sc) < e.scoreHint.Load() {
		return
	}
	e.mu.Lock()
	improved := sc > e.bestScore || (sc == e.bestScore && n.par.rkey < e.bestKey)
	if improved {
		e.best, e.bestScore, e.bestKey, e.bestFSM = n, sc, n.par.rkey, st.FSM
		if e.bestState != nil {
			vm.ReleaseState(e.bestState)
			e.bestState = st.Snapshot()
		}
		e.scoreHint.Store(int64(sc))
		atomicMax(&e.gScore, int64(sc))
	}
	e.mu.Unlock()
	if improved {
		e.maybeCapture(n, st)
	}
}

// resolve retires k candidate edges of n, finalizing up the parent chain as
// pending counts reach zero.
func (e *parEngine) resolve(n *node, k int32) {
	for n != nil {
		if n.par.pending.Add(-k) != 0 {
			return
		}
		n = e.finalizeOne(n)
		k = 1
	}
}

// finalizeLeaf retires a node that never became a task (no candidates, or an
// accepting node) and resolves its parent edge.
func (e *parEngine) finalizeLeaf(n *node) {
	if p := e.finalizeOne(n); p != nil {
		e.resolve(p, 1)
	}
}

// finalizeOne retires one fully-resolved node and returns its parent (nil for
// the root, which closes the done latch). A node proven dead is a complete
// refutation, usable by any later-ranked node, and goes into the memo.
func (e *parEngine) finalizeOne(n *node) *node {
	trunc := n.par.trunc.Load()
	if e.memo != nil && e.a.provenDead(n, trunc) {
		e.memo.insert(n.fp, n.canon, n.par.rkey)
	}
	if n.saved != nil {
		vm.ReleaseState(n.saved)
		n.saved = nil
	}
	p := n.parent
	if p == nil {
		e.forceDone()
		return nil
	}
	if trunc {
		p.par.trunc.Store(true)
	}
	return p
}

func (e *parEngine) emitProgress() {
	a := e.a
	elapsed := time.Since(a.runStart)
	p := Progress{
		Elapsed:        elapsed,
		Depth:          int(e.gDepth.Load()),
		MaxDepth:       int(e.gDepth.Load()),
		VerifiedPrefix: int(e.gScore.Load()),
		TotalEvents:    len(a.events),
		Nodes:          e.gNodes.Load(),
		TE:             e.gTE.Load(),
		PrunedByMemo:   e.gMemoPrunes.Load(),
		EOF:            true,
	}
	if s := elapsed.Seconds(); s > 0 {
		p.TPS = float64(p.TE) / s
	}
	a.opts.OnProgress(p)
}

// maybeCapture checkpoints an improved best path when a capture is due. It
// runs on the worker goroutine that owns n's state (the only safe place to
// serialize it), so OnCheckpoint may be called from a worker goroutine — see
// Options.Parallelism.
func (e *parEngine) maybeCapture(n *node, st *vm.State) {
	a := e.a
	if a.opts.CheckpointEvery <= 0 {
		return
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if now := time.Now(); a.checkpointDue(now) {
		a.keepCheckpoint(a.captureCheckpoint(e.initState, n, st, e.gNodes.Load(), e.gTE.Load()), now)
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Worker

type parWorker struct {
	id int
	e  *parEngine
	// wa is this worker's private Analyzer clone: shared read-only trace and
	// spec tables, a private vm.Exec, private stats, no tracer.
	wa  *parAnalyzer
	dq  *wsDeque
	ops int

	// Flushed-so-far marks for the heartbeat aggregates.
	flTE, flNodes, flMemo int64

	mSteals, mIdle *obs.Counter
}

// parAnalyzer is just an alias making it explicit that the embedded Analyzer
// is a worker-private clone, not the user-facing one.
type parAnalyzer = Analyzer

func (w *parWorker) run() {
	e := w.e
	defer func() {
		if r := recover(); r != nil {
			// A worker panic would otherwise strand pending counts and hang
			// the coordinator: record the failure, stop the fleet, and force
			// the done latch. Leaked states go to the GC.
			e.fail(fmt.Errorf("analysis: parallel worker panic: %v", r))
			e.forceDone()
		}
	}()
	idle := 0
	for {
		n := w.dq.pop()
		if n == nil {
			n = w.stealAny()
		}
		if n != nil {
			idle = 0
			w.process(n)
			continue
		}
		select {
		case <-e.done:
			w.flushStats()
			return
		default:
		}
		idle++
		if w.mIdle != nil {
			w.mIdle.Inc()
		}
		if idle < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func (w *parWorker) stealAny() *node {
	e := w.e
	for k := 1; k < e.nWorkers; k++ {
		if n := e.deques[(w.id+k)%e.nWorkers].steal(); n != nil {
			e.steals.Add(1)
			if w.mSteals != nil {
				w.mSteals.Inc()
			}
			return n
		}
	}
	return nil
}

// process runs the task n: issue its next candidate, re-publish the task,
// descend into the surviving child. The loop is the per-worker DFS spine.
func (w *parWorker) process(n *node) {
	e := w.e
	for {
		// Invariant: n is an exclusively-owned task — n.next < len(n.cands)
		// and n.saved holds its state.
		if e.stop.Load() || e.abandoned(n.par.rkey) {
			w.abandon(n)
			return
		}
		if n.depth+1 > w.wa.opts.MaxDepth {
			// Candidates share one child depth, so the whole remainder is a
			// depth truncation (not a refutation).
			w.abandon(n)
			return
		}
		i := n.next
		childKey := n.par.rkey + rankSeg(i)
		if e.abandoned(childKey) {
			// Post-accept: this and every later candidate rank above the
			// accepted run and cannot be its ancestors.
			w.abandon(n)
			return
		}
		c := n.cands[i]
		n.next++
		var st *vm.State
		if n.next >= len(n.cands) {
			// Last candidate consumes the state; the task retires.
			st = n.saved
			n.saved = nil
		} else {
			st = n.saved.Snapshot()
			w.wa.stats.RE++
			// Re-publish BEFORE executing: from here on the task belongs to
			// whoever dequeues it, and this goroutine no longer touches
			// n.next or n.saved.
			w.dq.push(n)
		}
		child := w.runCandidate(n, c, childKey, st)
		if child == nil {
			return
		}
		n = child
	}
}

// abandon truncates and bulk-resolves the unissued remainder of a task:
// engine stop, depth cap, or post-accept pruning. The caller owns n.
func (w *parWorker) abandon(n *node) {
	n.par.trunc.Store(true)
	k := int32(len(n.cands) - n.next)
	n.next = len(n.cands)
	if n.saved != nil {
		vm.ReleaseState(n.saved)
		n.saved = nil
	}
	if k > 0 {
		w.e.resolve(n, k)
	}
}

// runCandidate executes candidate c of task n on the exclusively-owned state
// st (the parallel Update operation). It returns the generated child when the
// edge survives — the caller descends into it — and nil otherwise, resolving
// the edge on every path.
func (w *parWorker) runCandidate(n *node, c candidate, childKey string, st *vm.State) *node {
	wa, e := w.wa, w.e
	w.ops++
	if w.ops&63 == 0 {
		w.flushStats()
	}

	via := wa.stepFor(c)
	wa.stats.TE++
	wa.noteFire(n, c, via.EventSeq)
	outs, err := wa.exec.Execute(st, c.ti, wa.paramsFor(c.params))
	if err != nil {
		if wa.containedErr(err) {
			w.harvestFaults(childKey + rankExecFault)
			vm.ReleaseState(st)
			e.resolve(n, 1)
			return nil
		}
		e.fail(err)
		vm.ReleaseState(st)
		e.resolve(n, 1)
		return nil
	}
	// Parallel nodes are allocated, never recycled: they cross goroutines.
	child := &node{parent: n, via: via, depth: n.depth + 1}
	wa.setCursors(child, c)
	if wa.matchOutputsWith(outs, child.inCur, child.outCur) != matchOK {
		// Static mode: matchBlocked cannot occur, any non-OK is a mismatch.
		vm.ReleaseState(st)
		e.resolve(n, 1)
		return nil
	}
	child.saved = st // parallel nodes keep their state in saved until finalize
	child.par = &parNode{rkey: childKey}
	wa.stats.Nodes++
	if wa.cov != nil {
		wa.cov.HitState(st.FSM)
	}
	if e.seen != nil || e.memo != nil {
		wa.fingerprintNode(st, child)
		if e.seen != nil && e.seen.visit(child.fp, child.canon, childKey, child.depth) {
			wa.stats.HashHits++
			vm.ReleaseState(st)
			e.resolve(n, 1)
			return nil
		}
		if e.memo != nil && e.memo.dead(child.fp, child.canon, childKey) {
			wa.stats.PrunedByMemo++
			if wa.mMemoPrunes != nil {
				wa.mMemoPrunes.Inc()
			}
			vm.ReleaseState(st)
			e.resolve(n, 1)
			return nil
		}
	}
	e.noteBest(child, st)
	if wa.complete(child) {
		// Accepting node: its subtree is unexplored, so it (and its chain)
		// must never memoize as dead.
		e.recordAccept(child)
		child.par.trunc.Store(true)
		e.finalizeLeaf(child)
		return nil
	}
	// Depth accounting mirrors the sequential engine, which counts a node
	// when it is popped for expansion: surviving non-accept children only,
	// not accepts or pruned revisits.
	if child.depth > wa.stats.MaxDepth {
		wa.stats.MaxDepth = child.depth
	}
	if err := wa.generate(child); err != nil {
		e.fail(err)
		child.par.trunc.Store(true)
		e.finalizeLeaf(child)
		return nil
	}
	w.harvestFaults(childKey + rankGenFault)
	if len(child.cands) == 0 {
		e.finalizeLeaf(child) // dead leaf; memo insert happens in finalize
		return nil
	}
	child.par.pending.Store(int32(len(child.cands)))
	return child
}

// harvestFaults moves the worker's per-op contained-fault messages into the
// engine's rank-keyed buffer and clears the worker list, so the per-run
// maxRecordedFaults cap is applied to the rank-ordered merge rather than to
// whichever worker filled its list first.
func (w *parWorker) harvestFaults(key string) {
	wa := w.wa
	if len(wa.faults) == 0 {
		return
	}
	e := w.e
	e.faultsMu.Lock()
	for i, msg := range wa.faults {
		if len(e.faults) >= maxCollectedFaults {
			break
		}
		e.faults = append(e.faults, parFault{key: key, seq: i, msg: msg})
	}
	e.faultsMu.Unlock()
	wa.faults = wa.faults[:0]
}

func (w *parWorker) flushStats() {
	e, s := w.e, &w.wa.stats
	if d := s.TE - w.flTE; d > 0 {
		if e.gTE.Add(d) > e.a.opts.MaxTransitions {
			e.requestStop(parStopBudget)
		}
		w.flTE = s.TE
	}
	if d := s.Nodes - w.flNodes; d > 0 {
		e.gNodes.Add(d)
		w.flNodes = s.Nodes
	}
	if d := s.PrunedByMemo - w.flMemo; d > 0 {
		e.gMemoPrunes.Add(d)
		w.flMemo = s.PrunedByMemo
	}
	atomicMax(&e.gDepth, int64(s.MaxDepth))
}

// newWorkerAnalyzer clones the analyzer for one worker goroutine: shared
// read-only spec/trace tables and atomic observability (coverage, fire
// counters, the memo-prune counter), a private executor and private mutable
// counters, and no tracer/flight/progress hooks (those remain lifecycle-only
// at j>1; see Options.Parallelism).
func (a *Analyzer) newWorkerAnalyzer() *Analyzer {
	w := &Analyzer{
		spec:         a.spec,
		opts:         a.opts,
		events:       a.events,
		inputs:       a.inputs,
		outputs:      a.outputs,
		disabled:     a.disabled,
		unobserved:   a.unobserved,
		eofSeen:      true,
		cov:          a.cov,
		fireCounters: a.fireCounters,
		mMemoPrunes:  a.mMemoPrunes,
	}
	w.opts.Tracer = nil
	w.opts.OnProgress = nil
	w.opts.OnCheckpoint = nil
	w.exec = vm.New(a.spec.Code)
	w.exec.Limits = a.exec.Limits
	return w
}

// ---------------------------------------------------------------------------
// Entry point

// searchParallel is the work-stealing counterpart of searchLoop for static
// traces: same root construction and reductions, j workers exploring the
// tree. start, when non-nil, is a replayed checkpoint node to search below.
func (a *Analyzer) searchParallel(ctx context.Context, initState int, start *node) (*Result, error) {
	root := start
	if root == nil {
		var err error
		root, err = a.makeRoot(initState)
		if err != nil {
			return nil, err
		}
	}
	bestScore := a.explained(root)
	a.noteProgress(bestScore)
	if a.complete(root) {
		return a.accept(root, initState), nil
	}
	if err := a.generate(root); err != nil {
		return nil, err
	}
	rootFSM := a.stateOf(root).FSM
	if len(root.cands) == 0 {
		return &Result{Verdict: Invalid, InitialState: initState,
			Diagnosis: a.diagnose(root)}, nil
	}

	j := a.opts.Parallelism
	var seen *sharedSeen
	if a.opts.StateHashing {
		seen = newSharedSeen(a.opts.CollisionCheck)
	}
	var memo *sharedMemo
	if a.opts.Memo {
		memo = newSharedMemo(a.memoBudget(root), a.opts.CollisionCheck)
	}

	e := &parEngine{
		a:         a,
		initState: initState,
		nWorkers:  j,
		seen:      seen,
		memo:      memo,
		done:      make(chan struct{}),
		best:      root,
		bestScore: bestScore,
		bestFSM:   rootFSM,
	}
	e.scoreHint.Store(int64(bestScore))
	e.gScore.Store(int64(bestScore))
	e.gNodes.Store(a.stats.Nodes)
	e.gTE.Store(a.stats.TE)
	if a.opts.CheckpointEvery > 0 {
		e.bestState = a.stateOf(root).Snapshot()
		defer func() { vm.ReleaseState(e.bestState) }()
	}

	// The root becomes the first task: its state moves to saved (the parallel
	// engine keeps every task's state there) and its pending count covers the
	// full candidate list.
	if root.saved == nil {
		root.saved = root.live
	}
	root.live = nil
	root.par = &parNode{}
	root.par.pending.Store(int32(len(root.cands)))

	e.deques = make([]*wsDeque, j)
	workers := make([]*parWorker, j)
	for i := 0; i < j; i++ {
		e.deques[i] = newWSDeque()
		w := &parWorker{id: i, e: e, wa: a.newWorkerAnalyzer(), dq: e.deques[i]}
		if m := a.opts.Metrics; m != nil {
			w.mSteals = m.Counter(fmt.Sprintf("parallel.worker%d.steals", i))
			w.mIdle = m.Counter(fmt.Sprintf("parallel.worker%d.idle_spins", i))
		}
		workers[i] = w
	}
	if m := a.opts.Metrics; m != nil {
		m.Gauge("parallel.workers").Set(int64(j))
	}
	e.deques[0].push(root)

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *parWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}

	var beatC <-chan time.Time
	if a.opts.OnProgress != nil && a.opts.ProgressEvery > 0 {
		t := time.NewTicker(a.opts.ProgressEvery)
		defer t.Stop()
		beatC = t.C
	}
	for running := true; running; {
		select {
		case <-e.done:
			running = false
		case <-ctx.Done():
			e.requestStop(parStopCtx)
			<-e.done
			running = false
		case <-beatC:
			e.emitProgress()
		}
	}
	wg.Wait()

	// Exact merge of worker-private counters into the run's stats.
	for _, w := range workers {
		s := &w.wa.stats
		a.stats.TE += s.TE
		a.stats.GE += s.GE
		a.stats.RE += s.RE
		a.stats.SA += s.SA
		a.stats.Nodes += s.Nodes
		a.stats.HashHits += s.HashHits
		a.stats.SynthIn += s.SynthIn
		a.stats.Faults += s.Faults
		a.stats.PrunedByMemo += s.PrunedByMemo
		if s.MaxDepth > a.stats.MaxDepth {
			a.stats.MaxDepth = s.MaxDepth
		}
	}
	if seen != nil {
		a.addPruneCounts(0, seen.collisions())
	}
	if memo != nil {
		a.addPruneCounts(memo.counts())
	}
	if m := a.opts.Metrics; m != nil {
		m.Counter("parallel.steals").Add(e.steals.Load())
	}

	// Merge faults: root-time faults (makeRoot, root generate, replay) are
	// chronologically first, then the workers' in rank order.
	sort.Slice(e.faults, func(i, k int) bool {
		if e.faults[i].key != e.faults[k].key {
			return e.faults[i].key < e.faults[k].key
		}
		return e.faults[i].seq < e.faults[k].seq
	})
	for _, f := range e.faults {
		if len(a.faults) >= maxRecordedFaults {
			break
		}
		a.faults = append(a.faults, f.msg)
	}

	a.noteProgress(e.bestScore)
	if e.err != nil {
		return nil, e.err
	}
	if e.acceptNode != nil {
		return a.accept(e.acceptNode, initState), nil
	}
	switch e.stopReason.Load() {
	case parStopBudget:
		e.forceCapture()
		return a.stopResult(initState, e.best, e.bestFSM, StopBudget, Exhausted,
			fmt.Sprintf("transition budget %d exceeded", a.opts.MaxTransitions)), nil
	case parStopCtx:
		e.forceCapture()
		return a.stopResult(initState, e.best, e.bestFSM, a.interruptReason(ctx), Partial,
			"analysis interrupted: "+ctx.Err().Error()), nil
	}
	return &Result{Verdict: Invalid, InitialState: initState,
		Diagnosis: a.diagnoseWithFSM(e.best, e.bestFSM)}, nil
}

// forceCapture checkpoints the best node from its snapshot once the workers
// have stopped on the budget or the context, as the sequential search does
// when it stops.
func (e *parEngine) forceCapture() {
	if a := e.a; e.bestState != nil {
		a.keepCheckpoint(a.captureCheckpoint(e.initState, e.best, e.bestState, a.stats.Nodes, a.stats.TE), time.Now())
	}
}
