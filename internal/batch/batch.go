// Package batch is Tango's multi-trace analysis engine: a worker pool that
// checks a corpus of traces concurrently against one compiled specification.
//
// The workload is embarrassingly parallel under the compile-once/analyze-many
// model: an *efsm.Spec is immutable after compilation (package efsm's
// concurrency contract), so the engine compiles nothing per trace — it gives
// each worker a private analysis.Session (its own VM, trace storage and
// search state) and fans the corpus out over a jobs channel. Results land in
// a slice indexed by corpus position, so the output order is deterministic
// whatever the worker count or dispatch order; Options.Shuffle randomizes
// only the dispatch order, which is exactly what the order-independence test
// exploits.
//
// The shared context is honored with a graceful drain: once it is cancelled
// or past its deadline, in-flight analyses stop at their next expansion with
// a Partial verdict (the analyzer's own contract) and every not-yet-started
// item is drained as a skipped inconclusive result — the engine always
// returns a complete, ordered result set.
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

// Options configures a batch run.
type Options struct {
	// Workers is the pool size (default GOMAXPROCS, capped at the corpus
	// size).
	Workers int

	// Analysis configures every worker's analyzer. Tracer, Metrics and
	// OnProgress must be nil here — the engine owns the per-worker wiring;
	// use the batch-level Tracer/Metrics/OnHeartbeat instead.
	Analysis analysis.Options

	// Shuffle randomizes the dispatch order (results stay in corpus order)
	// with Seed, proving verdict order-independence.
	Shuffle bool
	Seed    int64

	// Tracer, when non-nil, receives the search events of every worker,
	// serialized through one lock; events from concurrent analyses
	// interleave.
	Tracer obs.Tracer

	// Metrics, when non-nil, receives pool-level counters and gauges:
	// batch.done, batch.valid, batch.invalid, batch.inconclusive,
	// batch.bad_trace, batch.errors, batch.skipped, batch.mismatches and the
	// batch.inflight gauge.
	Metrics *obs.Registry

	// OnHeartbeat, when non-nil, receives per-worker heartbeats: the
	// analyzer's periodic progress beats plus one completion beat per item.
	// Called from worker goroutines, serialized through one lock; it must
	// return quickly.
	OnHeartbeat func(Heartbeat)

	// HeartbeatEvery is the per-analyzer progress interval (default 1s when
	// OnHeartbeat is set).
	HeartbeatEvery time.Duration

	// testHook, when non-nil, runs inside AnalyzeItem just before the
	// analysis starts. Tests use it to inject panics and stalls into the
	// worker path.
	testHook func(Item)
}

// ItemResult is the outcome of one corpus item, in corpus order.
type ItemResult struct {
	Index  int
	Item   Item
	Worker int

	// Res is the analysis result; nil when Err is set.
	Res *analysis.Result
	// Err is a pre-verdict failure: unreadable file (class 1) or a trace the
	// parser or specification rejected (class 4).
	Err error

	// Class is the exit-code class of this item.
	Class int
	// Skipped marks items drained without analysis after the context ended.
	Skipped bool
	// Panicked marks an item whose analysis panicked; the panic was contained
	// and reported through Err. A supervisor uses this to decide whether the
	// worker that ran the item needs to be torn down.
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
	Counts  obs.BatchCounts
	// ExitCode is the aggregate exit code (see Aggregate).
	ExitCode int
	// Coverage is the corpus-wide coverage sum when Options.Analysis.Coverage
	// was set: the element-wise sum of every analyzed item's per-trace counts.
	Coverage *obs.CoverageCounts
}

// engine carries the per-run shared state of the pool.
type engine struct {
	spec  *efsm.Spec
	items []Item
	opts  Options

	results []ItemResult
	done    int
	mu      sync.Mutex // serializes OnHeartbeat and done

	metrics struct {
		inflight *obs.Gauge
		byClass  map[int]*obs.Counter
		done     *obs.Counter
		skipped  *obs.Counter
		mismatch *obs.Counter
	}
}

// Run analyzes the corpus against the compiled specification. The returned
// error covers setup problems only (bad options, empty corpus); per-item
// failures are reported in Result.Items and the aggregate exit code.
func Run(ctx context.Context, spec *efsm.Spec, items []Item, opts Options) (*Result, error) {
	if len(items) == 0 {
		return nil, errors.New("batch: empty corpus")
	}
	if opts.Analysis.Tracer != nil || opts.Analysis.Metrics != nil || opts.Analysis.OnProgress != nil {
		return nil, errors.New("batch: set Tracer/Metrics/OnHeartbeat on batch.Options, not on Options.Analysis")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if opts.OnHeartbeat != nil && opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = time.Second
	}

	e := &engine{spec: spec, items: items, opts: opts, results: make([]ItemResult, len(items))}
	if m := opts.Metrics; m != nil {
		e.metrics.inflight = m.Gauge("batch.inflight")
		e.metrics.done = m.Counter("batch.done")
		e.metrics.skipped = m.Counter("batch.skipped")
		e.metrics.mismatch = m.Counter("batch.mismatches")
		e.metrics.byClass = map[int]*obs.Counter{
			ClassOK:           m.Counter("batch.valid"),
			ClassInvalid:      m.Counter("batch.invalid"),
			ClassInconclusive: m.Counter("batch.inconclusive"),
			ClassBadTrace:     m.Counter("batch.bad_trace"),
			ClassError:        m.Counter("batch.errors"),
		}
	}

	// One session per worker, created up front so option errors (unknown IP
	// names, ...) fail the run before any goroutine starts.
	sharedTracer := obs.Locked(opts.Tracer)
	sessions := make([]*analysis.Session, workers)
	for w := range sessions {
		aopts := opts.Analysis
		aopts.Tracer = sharedTracer
		if opts.OnHeartbeat != nil {
			aopts.ProgressEvery = opts.HeartbeatEvery
		}
		s, err := analysis.NewSession(spec, aopts)
		if err != nil {
			return nil, err
		}
		sessions[w] = s
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

	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			e.work(ctx, worker, sessions[worker], jobs)
		}(w)
	}
	for _, idx := range order {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	res := &Result{Items: e.results, Workers: workers, Wall: time.Since(start)}
	res.Counts, res.ExitCode = Aggregate(len(res.Items), func(i int) (int, bool, *bool) {
		r := &res.Items[i]
		return r.Class, r.Skipped, r.Match
	})
	if opts.Analysis.Coverage {
		res.Coverage = foldCoverage(spec, res.Items)
	}
	return res, nil
}

// foldCoverage sums per-item coverage snapshots into the corpus total and
// stamps each item's first-covered transitions (CoverNew) in corpus order —
// the per-trace coverage delta a corpus curator reads to see which traces
// pull their weight.
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

// work is one worker's loop: pull corpus indexes until the channel closes.
// Items pulled after the context ended are drained as skipped results so the
// result set stays complete.
func (e *engine) work(ctx context.Context, worker int, sess *analysis.Session, jobs <-chan int) {
	for idx := range jobs {
		if e.metrics.inflight != nil {
			e.metrics.inflight.Add(1)
		}
		r := e.runOne(ctx, worker, sess, idx)
		e.results[idx] = r
		e.finishItem(r)
		if e.metrics.inflight != nil {
			e.metrics.inflight.Add(-1)
		}
	}
}

// runOne analyzes (or drains) corpus item idx on the given worker.
func (e *engine) runOne(ctx context.Context, worker int, sess *analysis.Session, idx int) ItemResult {
	it := e.items[idx]
	r := ItemResult{Index: idx, Item: it, Worker: worker}
	if err := ctx.Err(); err != nil {
		// Graceful drain: the deadline passed or the run was cancelled before
		// this item started; report it as inconclusive without touching it.
		reason := analysis.StopCancelled
		if errors.Is(err, context.DeadlineExceeded) {
			reason = analysis.StopDeadline
		}
		r.Skipped = true
		r.Class = ClassInconclusive
		r.Res = &analysis.Result{
			Verdict: analysis.Partial,
			Reason:  "batch drained before analysis: " + err.Error(),
			Stop:    &analysis.StopInfo{Reason: reason},
		}
		return r
	}

	if e.opts.OnHeartbeat != nil {
		sess.Analyzer().SetOnProgress(func(p analysis.Progress) {
			e.beat(Heartbeat{Worker: worker, Index: idx, Item: it.name(), Progress: p})
		})
	}
	ar := AnalyzeItem(ctx, sess, it, e.opts.testHook)
	ar.Index, ar.Worker = idx, worker
	return ar
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

// finishItem updates pool counters and emits the completion heartbeat.
func (e *engine) finishItem(r ItemResult) {
	if e.metrics.done != nil {
		e.metrics.done.Inc()
		if r.Skipped {
			e.metrics.skipped.Inc()
		} else if c := e.metrics.byClass[r.Class]; c != nil {
			c.Inc()
		}
		if r.Match != nil && !*r.Match {
			e.metrics.mismatch.Inc()
		}
	}
	e.mu.Lock()
	e.done++
	done := e.done
	e.mu.Unlock()
	if e.opts.OnHeartbeat != nil {
		e.beat(Heartbeat{Worker: r.Worker, Index: r.Index, Item: r.Item.name(),
			Done: done, Total: len(e.items), Completed: true})
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

// severity ranks exit-code classes for aggregation: a batch's exit code is
// its most severe effective class. Operational errors outrank everything; a
// malformed trace outranks an inconclusive one, which outranks invalid.
var severity = map[int]int{ClassOK: 0, ClassInvalid: 1, ClassInconclusive: 2, ClassBadTrace: 3, ClassError: 4}

// Aggregate computes the outcome counts and the aggregate exit code of a
// batch of n rows, where row(i) returns row i's exit-code class, whether it
// was drained without analysis, and its expectation check. It is the one
// implementation of the rules (README "tango batch"), shared by batch.Run,
// the supervisor and serve's /v1/batch:
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
