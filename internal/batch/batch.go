// Package batch is Tango's multi-trace analysis engine: a worker pool that
// checks a corpus of traces concurrently against one compiled specification.
//
// The workload is embarrassingly parallel under the compile-once/analyze-many
// model: an *efsm.Spec is immutable after compilation (package efsm's
// concurrency contract), so the engine compiles nothing per trace — it gives
// each worker a private analysis.Session (its own VM, trace storage and
// search state) and dispatches the corpus to idle workers. Results land in
// a slice indexed by corpus position, so the output order is deterministic
// whatever the worker count or dispatch order; Options.Shuffle randomizes
// only the dispatch order, which is exactly what the order-independence test
// exploits.
//
// The shared context is honored with a graceful drain: once it is cancelled
// or past its deadline, nothing more is dispatched, in-flight analyses stop
// at their next expansion with a Partial verdict (the analyzer's own
// contract) and every not-yet-started item is drained as a skipped
// inconclusive result — the engine always returns a complete, ordered result
// set.
//
// The same pool is crash-only. A contained panic replaces the worker's
// Session, whose state the panic may have left half-updated. The remaining
// supervision is opt-in through Options, whose zero values give the plain
// pool:
//
//   - JobTimeout arms a watchdog: a job past its deadline is cancelled
//     cooperatively, and a worker that still has not reported a grace period
//     later is wedged — abandoned and replaced;
//   - MaxAttempts requeues a job whose worker died (panic or wedge) or whose
//     deadline passed, with exponential Backoff;
//   - BreakerKills quarantines a job that has killed that many workers, so it
//     gets a final error row instead of a crash loop;
//   - Journal appends every final row to a batch log, fsynced per record, and
//     Done restores the rows a replayed log holds, so a killed-and-resumed
//     run's normalized report is byte-identical to an uninterrupted one.
//
// In-process "kill" cannot preempt a truly wedged goroutine: an abandoned
// worker leaks until its blocking call returns, and its late result is
// discarded by dispatch epoch. That is the honest in-process approximation
// of the process-level SIGKILL the CLI integration test exercises.
package batch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/efsm"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Exit-code classes, shared with the CLI taxonomy (README "Exit codes").
const (
	ClassOK           = 0 // valid or valid so far
	ClassError        = 1 // operational error (unreadable file, ...)
	ClassInvalid      = 2 // invalid or likely invalid
	ClassInconclusive = 3 // exhausted, deadline, cancelled, stall, skipped
	ClassBadTrace     = 4 // malformed or unresolvable trace
)

// VerdictClass maps an analysis verdict to its exit-code class.
func VerdictClass(v analysis.Verdict) int {
	switch v {
	case analysis.Valid, analysis.ValidSoFar:
		return ClassOK
	case analysis.Invalid, analysis.LikelyInvalid:
		return ClassInvalid
	default:
		return ClassInconclusive
	}
}

// Expectation values a manifest can attach to an item.
const (
	ExpectValid   = "valid"
	ExpectInvalid = "invalid"
)

// Item is one trace of the corpus: either a file path or a pre-parsed trace,
// with an optional manifest expectation.
type Item struct {
	// Name labels the item in results and reports (defaults to Path).
	Name string
	// Path is the trace file to read; ignored when Trace is set.
	Path string
	// Trace is a pre-parsed trace (in-memory corpora, tests).
	Trace *trace.Trace
	// Expect is "" (no expectation), ExpectValid or ExpectInvalid.
	Expect string
}

func (it Item) name() string {
	if it.Name != "" {
		return it.Name
	}
	return it.Path
}

// Heartbeat is one liveness beat of a running batch: which worker, which
// corpus item, how far the pool has got, and — when the beat was forwarded
// from a running analysis — the analyzer's own progress snapshot.
type Heartbeat struct {
	Worker int
	// Index and Item identify the corpus item the worker is on.
	Index int
	Item  string
	// Done and Total count completed items across the whole pool.
	Done, Total int
	// Progress is the per-trace analyzer heartbeat; zero for the completion
	// beat emitted when an item finishes.
	Progress analysis.Progress
	// Completed marks the beat emitted when the item's analysis ended.
	Completed bool
}

// Options configures a batch run. The zero value of every supervision field
// (JobTimeout through FaultHook) is the plain pool: one dispatch per item,
// no watchdog, no breaker, no journal.
type Options struct {
	// Workers is the pool size (default GOMAXPROCS, capped at the corpus
	// size).
	Workers int

	// Analysis configures every worker's analyzer. Tracer, Metrics and
	// OnProgress must be nil here — the engine owns the per-worker wiring;
	// use the batch-level Tracer/OnHeartbeat instead.
	Analysis analysis.Options

	// Shuffle randomizes the dispatch order (results stay in corpus order)
	// with Seed, proving verdict order-independence.
	Shuffle bool
	Seed    int64

	// Tracer, when non-nil, receives the search events of every worker,
	// serialized through one lock; events from concurrent analyses
	// interleave. Supervision adds worker_restart, requeue and quarantine
	// events.
	Tracer obs.Tracer

	// OnHeartbeat, when non-nil, receives per-worker heartbeats: the
	// analyzer's periodic progress beats plus one completion beat per item.
	// Called from worker goroutines and the dispatcher, serialized through
	// one lock; it must return quickly.
	OnHeartbeat func(Heartbeat)

	// HeartbeatEvery is the per-analyzer progress interval (default 1s when
	// OnHeartbeat is set).
	HeartbeatEvery time.Duration

	// JobTimeout is the per-job deadline; 0 disables the watchdog. A job past
	// it is cancelled cooperatively (the analyzer stops at its next
	// expansion) and requeued; a worker that has still not reported
	// min(JobTimeout, 500ms) later is wedged, and is abandoned and replaced.
	JobTimeout time.Duration

	// MaxAttempts bounds how often one job is dispatched; 0 means once.
	MaxAttempts int

	// BreakerKills is the circuit-breaker threshold: a job that has killed
	// this many workers (panic or wedge) is quarantined; 0 means never.
	BreakerKills int

	// Backoff is the base requeue delay, doubled per prior attempt; 0 means
	// requeue immediately.
	Backoff time.Duration

	// Journal, when non-nil, receives one row record per final row, in
	// completion order, under batch ID "". The caller owns the log
	// (creation, admission record, close). Rows sealed after ctx ended are
	// not journaled: the cancellation may have cut them short, so a resume
	// analyzes them again.
	Journal *checkpoint.BatchLog

	// Done maps corpus indexes to rows restored from a replayed journal; Run
	// seals them verbatim (ItemResult.Restored) without analyzing them. A
	// skipped row is a drained placeholder, not a verdict, and runs again.
	Done map[int]obs.BatchItem

	// FaultHook, when non-nil, runs on the worker goroutine just before each
	// analysis, with the dispatch attempt (1-based). Crash drills, throttled
	// runs and tests use it; a panic here is indistinguishable from an
	// analyzer crash.
	FaultHook func(attempt int, it Item)
}

// maxGrace caps how long a worker may overrun Options.JobTimeout before the
// watchdog declares it wedged; shorter job timeouts get a grace period as
// long as themselves.
const maxGrace = 500 * time.Millisecond

// ItemResult is the outcome of one corpus item, in corpus order.
type ItemResult struct {
	Index  int
	Item   Item
	Worker int

	// Res is the analysis result; nil when Err is set.
	Res *analysis.Result
	// Err is a pre-verdict failure: unreadable file (class 1), a trace the
	// parser or specification rejected (class 4), or a worker that died
	// (panic, wedge or quarantine; class 1).
	Err error

	// Class is the exit-code class of this item.
	Class int
	// Skipped marks items drained without analysis after the context ended.
	Skipped bool
	// Panicked marks an item whose analysis panicked; the panic was contained
	// and reported through Err, and the worker's Session was replaced.
	Panicked bool
	// Match reports the manifest expectation check; nil when the item had no
	// expectation or no verdict to check it against.
	Match *bool

	// Flight is the flight-recorder tail captured when the item's analysis
	// panicked (a clean run's tail, if any, lives in Res.Flight — a panicking
	// one never produces a Result, so it is rescued here).
	Flight []string
	// CoverNew lists the transitions this item covered first in corpus order,
	// filled by Run when coverage is recorded.
	CoverNew []string

	Elapsed time.Duration

	// Attempts counts the item's dispatches; 0 when it was drained or
	// restored without one.
	Attempts int
	// Quarantined marks an item the circuit breaker removed after it killed
	// Options.BreakerKills workers; Err says so.
	Quarantined bool
	// Restored is the row Options.Done restored for this item, marked
	// resumed; Class, Match and Quarantined mirror it, and Res is nil.
	Restored *obs.BatchItem
}

// Verdict returns the verdict, or -1 when the item produced none.
func (r *ItemResult) Verdict() analysis.Verdict {
	if r.Res == nil {
		return -1
	}
	return r.Res.Verdict
}

// Result is the outcome of one batch run. Items is always complete and in
// corpus order.
type Result struct {
	Items   []ItemResult
	Workers int
	Wall    time.Duration
	// Counts aggregates Items with Aggregate, plus the supervision outcomes
	// (resumed, requeued, quarantined).
	Counts obs.BatchCounts
	// ExitCode is the aggregate exit code (see Aggregate).
	ExitCode int
	// Coverage is the corpus-wide coverage sum when Options.Analysis.Coverage
	// was set: the element-wise sum of every analyzed item's per-trace counts.
	Coverage *obs.CoverageCounts
	// Restarts counts workers torn down and replaced, one per contained
	// panic or wedge.
	Restarts int
	// JournalFailures counts rows the journal failed to record, and
	// JournalErr is the first failure. The run goes on without them; a
	// resume analyzes those traces again.
	JournalFailures int
	JournalErr      error
}

// job is the dispatcher's state of one dispatched corpus item not yet
// sealed. It sits on the worker running it or in the retry queue.
type job struct {
	idx      int
	attempts int       // dispatches so far
	kills    int       // workers this job took down
	readyAt  time.Time // backoff gate of a requeued job
}

// worker is the dispatcher's end of one worker goroutine. The goroutine
// reads only slot, sess and in; the dispatch fields belong to the
// dispatcher.
type worker struct {
	slot int
	sess *analysis.Session
	in   chan assignment // capacity 1: a worker holds at most one assignment

	dispatch uint64    // epoch of the in-flight job; 0 when idle
	job      job       // the in-flight job
	deadline time.Time // watchdog expiry of the in-flight job; zero: none
}

// assignment is one dispatch to a worker.
type assignment struct {
	dispatch     uint64
	idx, attempt int
}

// outcome is a worker's report for one dispatch.
type outcome struct {
	w        *worker
	dispatch uint64
	r        ItemResult
}

// engine carries the per-run state of the pool. Only the dispatcher (the
// goroutine running Run) touches it, except for mu and the fields it
// guards, the read-only configuration, and the channels.
type engine struct {
	ctx   context.Context
	spec  *efsm.Spec
	items []Item
	opts  Options       // Analysis carries the per-worker wiring (shared tracer, progress interval)
	watch time.Duration // dispatch-to-wedge limit: JobTimeout plus grace; 0 without a watchdog
	res   *Result

	fresh   []int // corpus indexes never dispatched, in dispatch order
	retries []job // requeued jobs, in requeue order
	workers []*worker
	idle    []*worker
	slots   int // worker slots handed out, replacements included
	epoch   uint64

	results chan outcome
	stop    chan struct{} // closed when Run returns; an abandoned worker's late send gives up on it

	mu   sync.Mutex // serializes OnHeartbeat and guards done
	done int        // items sealed; written only by the dispatcher
}

// Run analyzes the corpus against the compiled specification. The returned
// error covers setup problems only (bad options, empty corpus); per-item
// failures, quarantines and drains are reported in Result.Items and the
// aggregate exit code.
func Run(ctx context.Context, spec *efsm.Spec, items []Item, opts Options) (*Result, error) {
	if len(items) == 0 {
		return nil, errors.New("batch: empty corpus")
	}
	if opts.Analysis.Tracer != nil || opts.Analysis.Metrics != nil || opts.Analysis.OnProgress != nil {
		return nil, errors.New("batch: Options.Analysis must not set Tracer, Metrics or OnProgress (use Options.Tracer/OnHeartbeat)")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 1
	}
	if opts.OnHeartbeat != nil && opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = time.Second
	}

	opts.Analysis.Tracer = obs.Locked(opts.Tracer)
	if opts.OnHeartbeat != nil {
		opts.Analysis.ProgressEvery = opts.HeartbeatEvery
	}
	e := &engine{
		ctx:     ctx,
		spec:    spec,
		items:   items,
		opts:    opts,
		res:     &Result{Items: make([]ItemResult, len(items)), Workers: workers},
		results: make(chan outcome),
		stop:    make(chan struct{}),
	}
	defer close(e.stop)
	if t := opts.JobTimeout; t > 0 {
		e.watch = t + min(t, maxGrace)
	}

	// Seal the rows restored from a resumed journal before any dispatch.
	for idx, row := range opts.Done {
		if idx < 0 || idx >= len(items) || row.Skipped {
			continue
		}
		row.Resumed = true
		e.res.Items[idx] = ItemResult{Index: idx, Item: items[idx], Class: row.ExitClass,
			Match: row.Match, Quarantined: row.Quarantined, Restored: &row}
		e.done++
		e.res.Counts.Resumed++
	}

	// Dispatch order: corpus order, or a seeded permutation under Shuffle.
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	if opts.Shuffle {
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	e.fresh = order[:0]
	for _, idx := range order {
		if e.res.Items[idx].Restored == nil {
			e.fresh = append(e.fresh, idx)
		}
	}

	// One session per worker, created before any goroutine starts so option
	// errors (unknown IP names, ...) fail the run cleanly.
	sessions := make([]*analysis.Session, min(workers, len(e.fresh)))
	for i := range sessions {
		s, err := analysis.NewSession(spec, opts.Analysis)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	e.workers = make([]*worker, 0, len(sessions))
	e.idle = make([]*worker, 0, len(sessions))
	start := time.Now()
	for _, s := range sessions {
		w := e.spawn(s)
		e.workers = append(e.workers, w)
		e.idle = append(e.idle, w)
	}

	e.loop()

	for _, w := range e.workers {
		close(w.in)
	}
	res := e.res
	res.Wall = time.Since(start)
	sv := res.Counts // the supervision outcomes counted while sealing
	res.Counts, res.ExitCode = Aggregate(len(res.Items), func(i int) (int, bool, *bool) {
		r := &res.Items[i]
		return r.Class, r.Skipped, r.Match
	})
	res.Counts.Resumed, res.Counts.Requeued, res.Counts.Quarantined = sv.Resumed, sv.Requeued, sv.Quarantined
	if opts.Analysis.Coverage {
		res.Coverage = foldCoverage(spec, res.Items)
	}
	return res, nil
}

// loop is the dispatcher: it hands ready jobs to idle workers, collects
// their outcomes, runs the watchdog, and drains once ctx ends, until every
// item is sealed.
func (e *engine) loop() {
	for e.done < len(e.items) {
		now := time.Now()
		live := e.ctx.Err() == nil
		if live {
			e.dispatch(now)
		} else {
			e.drain()
			if e.done == len(e.items) {
				return
			}
		}

		var ctxDone <-chan struct{}
		if live {
			ctxDone = e.ctx.Done()
		}
		var timer *time.Timer
		var wake <-chan time.Time
		if d, ok := e.nextWake(now, live); ok {
			timer = time.NewTimer(d)
			wake = timer.C
		}
		select {
		case o := <-e.results:
			e.collect(o)
		case <-wake:
			e.watchdog(time.Now())
		case <-ctxDone:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// spawn starts a worker goroutine on sess in the next slot.
func (e *engine) spawn(sess *analysis.Session) *worker {
	w := &worker{slot: e.slots, sess: sess, in: make(chan assignment, 1)}
	e.slots++
	go e.work(w)
	return w
}

// work is one worker's loop: analyze assignments until the channel closes.
// Nothing waits for it: when Run returns, every worker still in the pool is
// idle and exits as its channel closes, and an abandoned one exits once its
// blocking call returns.
func (e *engine) work(w *worker) {
	for a := range w.in {
		ctx, cancel := e.ctx, context.CancelFunc(nil)
		if e.opts.JobTimeout > 0 {
			ctx, cancel = context.WithTimeout(e.ctx, e.opts.JobTimeout)
		}
		it := e.items[a.idx]
		if e.opts.OnHeartbeat != nil {
			w.sess.Analyzer().SetOnProgress(func(p analysis.Progress) {
				e.beat(Heartbeat{Worker: w.slot, Index: a.idx, Item: it.name(), Progress: p})
			})
		}
		var hook func(Item)
		if e.opts.FaultHook != nil {
			hook = func(it Item) { e.opts.FaultHook(a.attempt, it) }
		}
		r := AnalyzeItem(ctx, w.sess, it, hook)
		if cancel != nil {
			cancel()
		}
		r.Index, r.Worker = a.idx, w.slot
		select {
		case e.results <- outcome{w: w, dispatch: a.dispatch, r: r}:
		case <-e.stop:
			return
		}
	}
}

// dispatch hands ready jobs to idle workers.
func (e *engine) dispatch(now time.Time) {
	for len(e.idle) > 0 {
		j, ok := e.next(now)
		if !ok {
			return
		}
		w := e.idle[len(e.idle)-1]
		e.idle = e.idle[:len(e.idle)-1]
		j.attempts++
		e.epoch++
		w.dispatch, w.job, w.deadline = e.epoch, j, time.Time{}
		if e.watch > 0 {
			w.deadline = now.Add(e.watch)
		}
		w.in <- assignment{dispatch: e.epoch, idx: j.idx, attempt: j.attempts}
	}
}

// next removes and returns the job to dispatch next: a fresh one in
// dispatch order, else the first requeued job whose backoff has expired.
func (e *engine) next(now time.Time) (job, bool) {
	if len(e.fresh) > 0 {
		idx := e.fresh[0]
		e.fresh = e.fresh[1:]
		return job{idx: idx}, true
	}
	for i, j := range e.retries {
		if !j.readyAt.After(now) {
			e.retries = append(e.retries[:i], e.retries[i+1:]...)
			return j, true
		}
	}
	return job{}, false
}

// nextWake returns how long the dispatcher may wait for an outcome before a
// watchdog deadline, or (while dispatching) a backoff expiry, needs it.
func (e *engine) nextWake(now time.Time, dispatching bool) (time.Duration, bool) {
	var at time.Time
	earlier := func(t time.Time) {
		if !t.IsZero() && (at.IsZero() || t.Before(at)) {
			at = t
		}
	}
	for _, w := range e.workers {
		if w.dispatch != 0 {
			earlier(w.deadline)
		}
	}
	if dispatching && len(e.idle) > 0 {
		for _, j := range e.retries {
			earlier(j.readyAt)
		}
	}
	if at.IsZero() {
		return 0, false
	}
	return max(at.Sub(now), time.Millisecond), true
}

// collect routes one worker outcome: a late report from an abandoned
// dispatch is dropped, a panic replaces the worker and retries the job, a
// job stopped by its own deadline is retried on the same worker, and
// anything else is the job's final result.
func (e *engine) collect(o outcome) {
	w := o.w
	if o.dispatch != w.dispatch {
		return
	}
	w.dispatch = 0
	j, r := w.job, o.r
	r.Attempts = j.attempts
	switch {
	case r.Panicked:
		j.kills++
		e.replace(w, fmt.Sprintf("job %q panicked worker %d (kill %d)", r.Item.name(), w.slot, j.kills))
		e.retry(j, r, r.Err.Error())
	case e.opts.JobTimeout > 0 && r.Res != nil && r.Res.Stop != nil &&
		r.Res.Stop.Reason == analysis.StopDeadline && e.ctx.Err() == nil:
		// The job deadline passed and the worker stopped cooperatively: the
		// worker is healthy, the job gets another chance.
		e.idle = append(e.idle, w)
		e.retry(j, r, "job deadline exceeded")
	default:
		e.idle = append(e.idle, w)
		e.seal(r)
	}
}

// watchdog abandons every worker past its dispatch's watchdog deadline: it
// blew through the cooperative job deadline and the grace period, so it is
// wedged.
func (e *engine) watchdog(now time.Time) {
	for _, w := range e.workers {
		if w.dispatch == 0 || w.deadline.IsZero() || w.deadline.After(now) {
			continue
		}
		w.dispatch = 0
		j, it := w.job, e.items[w.job.idx]
		j.kills++
		e.replace(w, fmt.Sprintf("job %q wedged worker %d past %s (kill %d)", it.name(), w.slot, e.watch, j.kills))
		e.retry(j, ItemResult{Index: j.idx, Item: it, Worker: w.slot, Class: ClassError,
			Err: errors.New("worker wedged past the job deadline"), Attempts: j.attempts}, "worker wedged")
	}
}

// replace abandons w — its goroutine may still be running; a late outcome is
// dropped by epoch — and puts a worker with a fresh Session in its slot of
// the pool.
func (e *engine) replace(w *worker, cause string) {
	close(w.in)
	e.res.Restarts++
	if t := e.opts.Analysis.Tracer; t != nil {
		t.Event(obs.Event{Kind: obs.KindWorkerRestart, Detail: cause})
	}
	sess, err := analysis.NewSession(e.spec, e.opts.Analysis)
	if err != nil {
		// NewSession depends only on the spec and the options, which it
		// accepted for the first workers.
		panic(fmt.Sprintf("batch: replacement session: %v", err))
	}
	nw := e.spawn(sess)
	for i := range e.workers {
		if e.workers[i] == w {
			e.workers[i] = nw
		}
	}
	e.idle = append(e.idle, nw)
}

// retry routes job j's failed dispatch, whose result is r: quarantined once
// the job has killed BreakerKills workers, sealed with its failure once
// attempts run out, and otherwise requeued with backoff.
func (e *engine) retry(j job, r ItemResult, cause string) {
	switch {
	case e.opts.BreakerKills > 0 && j.kills >= e.opts.BreakerKills:
		r.Quarantined = true
		r.Err = fmt.Errorf("quarantined after killing %d workers: %s", j.kills, cause)
		e.res.Counts.Quarantined++
		if t := e.opts.Analysis.Tracer; t != nil {
			t.Event(obs.Event{Kind: obs.KindQuarantine, N: int64(j.kills), Detail: cause})
		}
		e.seal(r)
	case j.attempts >= e.opts.MaxAttempts:
		e.seal(r)
	default:
		delay := e.opts.Backoff
		if delay > 0 && j.attempts > 1 {
			delay <<= min(j.attempts-1, 16)
		}
		j.readyAt = time.Now().Add(delay)
		e.retries = append(e.retries, j)
		e.res.Counts.Requeued++
		if t := e.opts.Analysis.Tracer; t != nil {
			t.Event(obs.Event{Kind: obs.KindRequeue, N: int64(j.attempts), Detail: cause})
		}
	}
}

// drain seals every job awaiting dispatch as a skipped inconclusive result,
// once ctx has ended.
func (e *engine) drain() {
	err := e.ctx.Err()
	reason := analysis.StopCancelled
	if errors.Is(err, context.DeadlineExceeded) {
		reason = analysis.StopDeadline
	}
	skip := func(j job) {
		e.seal(ItemResult{Index: j.idx, Item: e.items[j.idx], Attempts: j.attempts,
			Skipped: true, Class: ClassInconclusive, Res: &analysis.Result{
				Verdict: analysis.Partial,
				Reason:  "batch drained before analysis: " + err.Error(),
				Stop:    &analysis.StopInfo{Reason: reason},
			}})
	}
	for _, idx := range e.fresh {
		skip(job{idx: idx})
	}
	for _, j := range e.retries {
		skip(j)
	}
	e.fresh, e.retries = nil, nil
}

// seal records r as its item's final result, journals it while ctx is live,
// and emits the completion heartbeat. A row sealed after ctx ended is not
// journaled: the cancellation may have cut it short, and a drained row is a
// placeholder, so a resume analyzes both again.
func (e *engine) seal(r ItemResult) {
	e.res.Items[r.Index] = r
	if e.opts.Journal != nil && e.ctx.Err() == nil {
		// A failed append must not lose the verdict: the row stays in the
		// result and only resumability degrades, which the result reports.
		if err := e.opts.Journal.Row("", r.Index, ReportItem(&r)); err != nil {
			if e.res.JournalFailures == 0 {
				e.res.JournalErr = err
			}
			e.res.JournalFailures++
		}
	}
	e.mu.Lock()
	e.done++
	done := e.done
	e.mu.Unlock()
	if e.opts.OnHeartbeat != nil {
		e.beat(Heartbeat{Worker: r.Worker, Index: r.Index, Item: r.Item.name(),
			Done: done, Completed: true})
	}
}

// beat serializes heartbeat delivery across workers.
func (e *engine) beat(hb Heartbeat) {
	e.mu.Lock()
	if hb.Done == 0 {
		hb.Done = e.done
	}
	hb.Total = len(e.items)
	e.opts.OnHeartbeat(hb)
	e.mu.Unlock()
}

// foldCoverage sums per-item coverage snapshots into the corpus total and
// stamps each item's first-covered transitions (CoverNew) in corpus order —
// the per-trace coverage delta a corpus curator reads to see which traces
// pull their weight. Items holds final results only, so a requeued trace
// counts once.
func foldCoverage(spec *efsm.Spec, items []ItemResult) *obs.CoverageCounts {
	total := &obs.CoverageCounts{
		Trans:  make([]int64, len(spec.Prog.Trans)),
		States: make([]int64, len(spec.Prog.States)),
		IPs:    make([]int64, spec.NumIPs()),
	}
	seen := make([]bool, len(spec.Prog.Trans))
	for i := range items {
		r := &items[i]
		if r.Res == nil || r.Res.Coverage == nil {
			continue
		}
		_ = total.Add(r.Res.Coverage) // same spec, shapes always match
		for id, hits := range r.Res.Coverage.Trans {
			if hits > 0 && !seen[id] {
				seen[id] = true
				r.CoverNew = append(r.CoverNew, spec.Prog.Trans[id].Name)
			}
		}
	}
	return total
}

// AnalyzeItem analyzes one corpus item on the given session, fully contained:
// a panic in the analyzer (or in hook, the test seam) does not escape — it
// comes back as an operational-error result ("worker panic: ..."), so one bad
// item can never take a pool down and still appears exactly once in the
// report, with its final status. hook, when non-nil, runs just before the
// analysis. Index and Worker are left zero for the caller to fill in.
func AnalyzeItem(ctx context.Context, sess *analysis.Session, it Item, hook func(Item)) (r ItemResult) {
	r = ItemResult{Item: it}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			r.Elapsed = time.Since(start)
			r.Res = nil
			r.Err = fmt.Errorf("worker panic: %v", v)
			r.Class = ClassError
			r.Panicked = true
			// The search died mid-run; rescue its last steps for the report.
			r.Flight = sess.Analyzer().FlightTail()
		}
	}()
	if hook != nil {
		hook(it)
	}
	var (
		res *analysis.Result
		err error
	)
	if it.Trace != nil {
		res, err = sess.Analyze(ctx, it.Trace)
	} else {
		res, err = sess.AnalyzeFile(ctx, it.Path)
	}
	r.Elapsed = time.Since(start)
	if err != nil {
		r.Err = err
		r.Class = ClassBadTrace
		var pe *os.PathError
		if errors.As(err, &pe) {
			r.Class = ClassError
		}
		return r
	}
	r.Res = res
	r.Class = VerdictClass(res.Verdict)
	if it.Expect != "" && (r.Class == ClassOK || r.Class == ClassInvalid) {
		m := (it.Expect == ExpectValid) == (r.Class == ClassOK)
		r.Match = &m
	}
	return r
}

// severity ranks exit-code classes for aggregation: a batch's exit code is
// its most severe effective class. Operational errors outrank everything; a
// malformed trace outranks an inconclusive one, which outranks invalid.
var severity = map[int]int{ClassOK: 0, ClassInvalid: 1, ClassInconclusive: 2, ClassBadTrace: 3, ClassError: 4}

// Aggregate computes the outcome counts and the aggregate exit code of a
// batch of n rows, where row(i) returns row i's exit-code class, whether it
// was drained without analysis, and its expectation check. It is the one
// implementation of the rules (README "tango batch"), shared by batch.Run
// and serve's /v1/batch:
//
//   - Each row counts under its exit-code class (0 valid, 2 invalid, 3
//     inconclusive, 4 bad trace, 1 operational error), except drained rows,
//     which count as skipped.
//   - When a row carries a checked manifest expectation, the expectation
//     replaces the raw class: a match counts as 0 (an expected-invalid trace
//     that is invalid is a conformance pass), a mismatch as 2.
//   - The aggregate exit code is the most severe effective class, ordered
//     0 < 2 < 3 < 4 < 1.
func Aggregate(n int, row func(i int) (class int, skipped bool, match *bool)) (obs.BatchCounts, int) {
	var c obs.BatchCounts
	exit := ClassOK
	for i := 0; i < n; i++ {
		class, skipped, match := row(i)
		switch {
		case skipped:
			c.Skipped++
		case class == ClassOK:
			c.Valid++
		case class == ClassInvalid:
			c.Invalid++
		case class == ClassInconclusive:
			c.Inconclusive++
		case class == ClassBadTrace:
			c.BadTrace++
		case class == ClassError:
			c.Errors++
		}
		if match != nil {
			class = ClassOK
			if !*match {
				class = ClassInvalid
				c.Mismatches++
			}
		}
		if severity[class] > severity[exit] {
			exit = class
		}
	}
	return c, exit
}

// AggregateRows is Aggregate over report rows.
func AggregateRows(rows []obs.BatchItem) (obs.BatchCounts, int) {
	return Aggregate(len(rows), func(i int) (int, bool, *bool) {
		return rows[i].ExitClass, rows[i].Skipped, rows[i].Match
	})
}

// String renders the heartbeat as the CLI's -progress line.
func (hb Heartbeat) String() string {
	if hb.Completed {
		return fmt.Sprintf("worker %d done %s (%d/%d)", hb.Worker, hb.Item, hb.Done, hb.Total)
	}
	return fmt.Sprintf("worker %d on %s (%d/%d): %s", hb.Worker, hb.Item, hb.Done, hb.Total, hb.Progress)
}
