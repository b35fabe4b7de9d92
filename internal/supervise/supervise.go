// Package supervise hardens the batch engine into a crash-only worker pool.
//
// The plain batch engine (package batch) assumes workers are well behaved: a
// panic is contained per item, but a wedged worker stalls its share of the
// corpus forever and a job that reliably kills workers is retried nowhere.
// The supervisor closes both gaps with the classic crash-only recipe:
//
//   - every dispatch carries a watchdog deadline (Options.JobTimeout plus a
//     grace period); a worker that misses it is abandoned — torn down from the
//     supervisor's point of view — and a fresh worker with a fresh
//     analysis.Session is spawned in its place;
//   - a job whose worker died (panic or wedge) goes back on the queue with an
//     attempt counter and exponential backoff, up to Options.MaxAttempts;
//   - a job that kills Options.BreakerKills workers trips its circuit breaker
//     and is quarantined: it gets a final operational-error row instead of
//     wedging the pool in a crash loop.
//
// Outcomes surface three ways: the tango.batch/1 report (per-item Attempts /
// Resumed / Quarantined plus the resumed / requeued / quarantined counts),
// obs metrics (batch.requeued, batch.quarantined, batch.worker_restarts,
// batch.resumed) and trace events (worker_restart, requeue, quarantine).
//
// When Options.Journal is set, every final row is appended to the batch log
// (checkpoint.BatchLog) as it is sealed, fsync'd per record; a later run can
// replay the log into Options.Done and skip finished work. Restored rows are
// kept verbatim, and incomplete items re-run from the start on a deterministic
// analyzer, so a killed-and-resumed run's normalized report is byte-identical
// to an uninterrupted one.
//
// In-process "kill" cannot preempt a truly wedged goroutine; an abandoned
// worker leaks until its blocking call returns, and its late result is
// discarded by dispatch epoch. That is the honest in-process approximation of
// the process-level SIGKILL the CLI integration test exercises.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/checkpoint"
	"repro/internal/efsm"
	"repro/internal/obs"
)

// Options configures a supervised batch run.
type Options struct {
	// Pool carries the worker-pool configuration (workers, analysis options,
	// tracer, metrics, heartbeats, shuffle), with batch.Options semantics.
	Pool batch.Options

	// JobTimeout is the per-job watchdog deadline; 0 disables the watchdog.
	// A job past its deadline is first cancelled cooperatively (the analyzer
	// stops at its next expansion); a worker that still has not reported
	// GracePeriod later is abandoned and replaced.
	JobTimeout  time.Duration
	GracePeriod time.Duration // default 500ms

	// MaxAttempts bounds how often one job is dispatched (default 3).
	MaxAttempts int
	// BreakerKills is the circuit-breaker threshold: a job that has killed
	// this many workers (panic or wedge) is quarantined (default 3).
	BreakerKills int
	// Backoff is the base requeue delay, doubled per prior attempt; 0 means
	// requeue immediately.
	Backoff time.Duration

	// Throttle inserts an artificial delay before each analysis, widening the
	// kill window for crash drills and the kill-resume integration test.
	Throttle time.Duration

	// Journal, when non-nil, receives one row record per final row, in
	// completion order, under batch ID "". The caller owns the log
	// (creation, admission record, close).
	Journal *checkpoint.BatchLog

	// Done maps corpus indexes to rows restored from a replayed journal; the
	// supervisor seals them verbatim (marked Resumed) without re-running.
	Done map[int]obs.BatchItem

	// FaultHook, when non-nil, runs on the worker goroutine just before each
	// analysis, with the dispatch attempt (1-based). Crash drills and soak
	// tests use it to inject panics and wedges; a panic here is
	// indistinguishable from an analyzer crash.
	FaultHook func(attempt int, it batch.Item)
}

// Result is the outcome of one supervised run. Rows is complete and in corpus
// order.
type Result struct {
	Rows    []obs.BatchItem
	Counts  obs.BatchCounts
	Workers int
	Wall    time.Duration
	// ExitCode aggregates per-row classes with batch.Aggregate.
	ExitCode int
	// Restarts counts workers torn down and respawned.
	Restarts int
	// JournalFailures counts rows the journal failed to record, and
	// JournalErr is the first failure. The run goes on without them; a
	// resume analyzes those traces again.
	JournalFailures int
	JournalErr      error
}

// job is the supervisor's view of one corpus item not yet sealed.
type job struct {
	idx      int
	attempts int       // dispatches so far
	kills    int       // workers this job took down
	readyAt  time.Time // backoff gate
}

// assignment is one dispatch to a worker.
type assignment struct {
	dispatch uint64
	idx      int
	attempt  int
}

// outcome is a worker's report for one dispatch.
type outcome struct {
	dispatch uint64
	r        batch.ItemResult
}

// workerHandle is the supervisor's end of one worker goroutine.
type workerHandle struct {
	slot int
	in   chan assignment
}

type sup struct {
	spec  *efsm.Spec
	items []batch.Item
	opts  Options

	tracer   obs.Tracer
	resultCh chan outcome

	done  int
	total int
	mu    sync.Mutex // serializes heartbeats and the done counter

	metrics struct {
		requeued    *obs.Counter
		quarantined *obs.Counter
		restarts    *obs.Counter
		resumed     *obs.Counter
	}
}

// Run executes the corpus under supervision. The returned error covers setup
// problems only; per-item failures, quarantines and drains are reported in
// Result.Rows and the aggregate exit code.
func Run(ctx context.Context, spec *efsm.Spec, items []batch.Item, opts Options) (*Result, error) {
	if len(items) == 0 {
		return nil, errors.New("supervise: empty corpus")
	}
	p := &opts.Pool
	if p.Analysis.Tracer != nil || p.Analysis.Metrics != nil || p.Analysis.OnProgress != nil {
		return nil, errors.New("supervise: set Tracer/Metrics/OnHeartbeat on Pool, not on Pool.Analysis")
	}
	if opts.GracePeriod <= 0 {
		opts.GracePeriod = 500 * time.Millisecond
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.BreakerKills <= 0 {
		opts.BreakerKills = 3
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if p.OnHeartbeat != nil && p.HeartbeatEvery <= 0 {
		p.HeartbeatEvery = time.Second
	}

	s := &sup{
		spec:  spec,
		items: items,
		opts:  opts,
		// Every dispatch sends at most one outcome, and attempts per job are
		// bounded, so this buffer lets even abandoned workers send without
		// blocking forever.
		resultCh: make(chan outcome, len(items)*(opts.MaxAttempts+opts.BreakerKills)+workers+16),
		total:    len(items),
		tracer:   obs.Locked(p.Tracer),
	}
	if m := p.Metrics; m != nil {
		s.metrics.requeued = m.Counter("batch.requeued")
		s.metrics.quarantined = m.Counter("batch.quarantined")
		s.metrics.restarts = m.Counter("batch.worker_restarts")
		s.metrics.resumed = m.Counter("batch.resumed")
	}

	res := &Result{Rows: make([]obs.BatchItem, len(items)), Workers: workers}
	sealed := make([]bool, len(items))

	// Seal rows restored from a resumed journal before any dispatch. A
	// skipped row is a drained placeholder, not a verdict — re-run it.
	for idx, row := range opts.Done {
		if idx < 0 || idx >= len(items) || sealed[idx] || row.Skipped {
			continue
		}
		row.Resumed = true
		res.Rows[idx] = row
		sealed[idx] = true
		s.done++
		res.Counts.Resumed++
		if s.metrics.resumed != nil {
			s.metrics.resumed.Inc()
		}
	}

	// Pending queue in dispatch order: corpus order, or a seeded permutation.
	var pending []*job
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	if p.Shuffle {
		rng := rand.New(rand.NewSource(p.Seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, idx := range order {
		if !sealed[idx] {
			pending = append(pending, &job{idx: idx})
		}
	}

	start := time.Now()
	slots := 0
	spawn := func() (*workerHandle, error) {
		aopts := p.Analysis
		aopts.Tracer = s.tracer
		if p.OnHeartbeat != nil {
			aopts.ProgressEvery = p.HeartbeatEvery
		}
		sess, err := analysis.NewSession(spec, aopts)
		if err != nil {
			return nil, err
		}
		h := &workerHandle{slot: slots, in: make(chan assignment, 1)}
		slots++
		go s.worker(ctx, h.slot, sess, h.in)
		return h, nil
	}

	var idle []*workerHandle
	for i := 0; i < workers && i < len(pending); i++ {
		h, err := spawn()
		if err != nil {
			return nil, err
		}
		idle = append(idle, h)
	}
	alive := append([]*workerHandle(nil), idle...)

	// inflight maps dispatch epoch to what was dispatched where.
	type dispatchInfo struct {
		j        *job
		h        *workerHandle
		deadline time.Time // zero: no watchdog
	}
	inflight := make(map[uint64]*dispatchInfo)
	var nextDispatch uint64

	seal := func(idx int, row obs.BatchItem) {
		res.Rows[idx] = row
		sealed[idx] = true
		s.bumpDone()
		if opts.Journal != nil && !row.Skipped {
			// A failed append must not lose the verdict: the row stays in
			// the in-memory report and only resumability degrades, which
			// the result reports. Skipped rows (drained on cancellation)
			// are this run's placeholders, not durable verdicts: journaling
			// them would make a resumed run restore "skipped" forever
			// instead of analyzing the trace.
			if err := opts.Journal.Row("", idx, row); err != nil {
				if res.JournalFailures == 0 {
					res.JournalErr = err
				}
				res.JournalFailures++
			}
		}
		if p.OnHeartbeat != nil {
			s.beat(batch.Heartbeat{Worker: row.Worker, Index: idx, Item: row.Trace, Completed: true})
		}
	}

	// requeueOrSeal routes a failed dispatch: back on the queue with backoff,
	// or sealed with its final (error) row when attempts ran out.
	requeueOrSeal := func(j *job, row obs.BatchItem, cause string) {
		if j.attempts >= opts.MaxAttempts {
			row.Attempts = j.attempts
			seal(j.idx, row)
			return
		}
		delay := opts.Backoff
		if delay > 0 && j.attempts > 1 {
			shift := j.attempts - 1
			if shift > 16 {
				shift = 16
			}
			delay <<= shift
		}
		j.readyAt = time.Now().Add(delay)
		pending = append(pending, j)
		res.Counts.Requeued++
		if s.metrics.requeued != nil {
			s.metrics.requeued.Inc()
		}
		if s.tracer != nil {
			s.tracer.Event(obs.Event{Kind: obs.KindRequeue, N: int64(j.attempts), Detail: cause})
		}
	}

	quarantine := func(j *job, row obs.BatchItem, cause string) {
		row.Quarantined = true
		row.ExitClass = batch.ClassError
		row.Verdict = ""
		row.Error = fmt.Sprintf("quarantined after killing %d workers: %s", j.kills, cause)
		row.Attempts = j.attempts
		res.Counts.Quarantined++
		if s.metrics.quarantined != nil {
			s.metrics.quarantined.Inc()
		}
		if s.tracer != nil {
			s.tracer.Event(obs.Event{Kind: obs.KindQuarantine, N: int64(j.kills), Detail: cause})
		}
		seal(j.idx, row)
	}

	// restartWorker abandons h (its goroutine may still be running; late
	// results are discarded by epoch) and spawns a replacement.
	restartWorker := func(h *workerHandle, cause string) {
		close(h.in)
		for i, w := range alive {
			if w == h {
				alive = append(alive[:i], alive[i+1:]...)
				break
			}
		}
		res.Restarts++
		if s.metrics.restarts != nil {
			s.metrics.restarts.Inc()
		}
		if s.tracer != nil {
			s.tracer.Event(obs.Event{Kind: obs.KindWorkerRestart, Detail: cause})
		}
		if nh, err := spawn(); err == nil {
			alive = append(alive, nh)
			idle = append(idle, nh)
		}
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

	for s.done < s.total {
		// Dispatch every ready job to an idle worker.
		now := time.Now()
		for len(idle) > 0 {
			pi := -1
			for i, j := range pending {
				if !j.readyAt.After(now) {
					pi = i
					break
				}
			}
			if pi < 0 {
				break
			}
			j := pending[pi]
			pending = append(pending[:pi], pending[pi+1:]...)
			h := idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			j.attempts++
			nextDispatch++
			di := &dispatchInfo{j: j, h: h}
			if opts.JobTimeout > 0 {
				di.deadline = now.Add(opts.JobTimeout + opts.GracePeriod)
			}
			inflight[nextDispatch] = di
			h.in <- assignment{dispatch: nextDispatch, idx: j.idx, attempt: j.attempts}
		}

		// Sleep until the next watchdog deadline or backoff expiry.
		wake := time.Hour
		for _, di := range inflight {
			if !di.deadline.IsZero() {
				if d := time.Until(di.deadline); d < wake {
					wake = d
				}
			}
		}
		if len(idle) > 0 {
			for _, j := range pending {
				if d := time.Until(j.readyAt); d < wake {
					wake = d
				}
			}
		}
		if wake < time.Millisecond {
			wake = time.Millisecond
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wake)

		select {
		case o := <-s.resultCh:
			di, live := inflight[o.dispatch]
			if !live {
				continue // abandoned dispatch reporting late
			}
			delete(inflight, o.dispatch)
			j := di.j
			row := batch.ReportItem(&o.r)
			row.Attempts = j.attempts
			switch {
			case o.r.Panicked:
				// The worker's session may be corrupted mid-panic: crash-only
				// teardown, then route the job.
				j.kills++
				restartWorker(di.h, fmt.Sprintf("job %q panicked worker %d (kill %d)",
					row.Trace, di.h.slot, j.kills))
				if j.kills >= opts.BreakerKills {
					quarantine(j, row, o.r.Err.Error())
				} else {
					requeueOrSeal(j, row, o.r.Err.Error())
				}
			case ctx.Err() == nil && o.r.Res != nil && o.r.Res.Stop != nil &&
				o.r.Res.Stop.Reason == analysis.StopDeadline && opts.JobTimeout > 0:
				// The job watchdog fired and the worker stopped cooperatively:
				// the worker is healthy, the job gets another chance.
				idle = append(idle, di.h)
				requeueOrSeal(j, row, "job deadline exceeded")
			default:
				idle = append(idle, di.h)
				seal(j.idx, row)
			}

		case <-timer.C:
			now := time.Now()
			for d, di := range inflight {
				if di.deadline.IsZero() || di.deadline.After(now) {
					continue
				}
				// Watchdog expiry: the worker blew through the cooperative
				// deadline and the grace period — it is wedged.
				delete(inflight, d)
				j := di.j
				j.kills++
				restartWorker(di.h, fmt.Sprintf("job %q wedged worker %d past %s (kill %d)",
					s.items[j.idx].Name, di.h.slot, opts.JobTimeout+opts.GracePeriod, j.kills))
				row := obs.BatchItem{
					Trace:     itemName(s.items[j.idx]),
					ExitClass: batch.ClassError,
					Error:     "worker wedged past the job deadline",
					Worker:    di.h.slot,
				}
				if j.kills >= opts.BreakerKills {
					quarantine(j, row, "worker wedged")
				} else {
					requeueOrSeal(j, row, "worker wedged")
				}
			}

		case <-ctx.Done():
			// Graceful drain: seal everything unfinished as skipped so the
			// report stays complete, then stop supervising. In-flight workers
			// stop cooperatively on their own contexts.
			for _, di := range inflight {
				sealDrained(s, seal, di.j, ctx)
			}
			inflight = map[uint64]*dispatchInfo{}
			for _, j := range pending {
				sealDrained(s, seal, j, ctx)
			}
			pending = nil
		}
	}

	for _, h := range alive {
		close(h.in)
	}
	res.Wall = time.Since(start)
	sv := res.Counts // the supervision outcomes counted while sealing
	res.Counts, res.ExitCode = batch.AggregateRows(res.Rows)
	res.Counts.Resumed, res.Counts.Requeued, res.Counts.Quarantined = sv.Resumed, sv.Requeued, sv.Quarantined
	return res, nil
}

// sealDrained seals one unfinished job as a skipped inconclusive row, the
// same shape batch.Run gives drained items.
func sealDrained(s *sup, seal func(int, obs.BatchItem), j *job, ctx context.Context) {
	reason := analysis.StopCancelled
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		reason = analysis.StopDeadline
	}
	r := batch.ItemResult{
		Index:   j.idx,
		Item:    s.items[j.idx],
		Skipped: true,
		Class:   batch.ClassInconclusive,
		Res: &analysis.Result{
			Verdict: analysis.Partial,
			Reason:  "batch drained before analysis: " + ctx.Err().Error(),
			Stop:    &analysis.StopInfo{Reason: reason},
		},
	}
	row := batch.ReportItem(&r)
	row.Attempts = j.attempts
	seal(j.idx, row)
}

// worker is one pool goroutine: take assignments until the channel closes.
func (s *sup) worker(ctx context.Context, slot int, sess *analysis.Session, in <-chan assignment) {
	for a := range in {
		it := s.items[a.idx]
		jctx := ctx
		var cancel context.CancelFunc
		if s.opts.JobTimeout > 0 {
			jctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		}
		if s.opts.Pool.OnHeartbeat != nil {
			idx := a.idx
			sess.Analyzer().SetOnProgress(func(p analysis.Progress) {
				s.beat(batch.Heartbeat{Worker: slot, Index: idx, Item: itemName(it), Progress: p})
			})
		}
		if s.opts.Throttle > 0 {
			sleepCtx(jctx, s.opts.Throttle)
		}
		var hook func(batch.Item)
		if s.opts.FaultHook != nil {
			attempt := a.attempt
			hook = func(it batch.Item) { s.opts.FaultHook(attempt, it) }
		}
		r := batch.AnalyzeItem(jctx, sess, it, hook)
		if cancel != nil {
			cancel()
		}
		r.Index, r.Worker = a.idx, slot
		s.resultCh <- outcome{dispatch: a.dispatch, r: r}
	}
}

func (s *sup) bumpDone() {
	s.mu.Lock()
	s.done++
	s.mu.Unlock()
}

func (s *sup) beat(hb batch.Heartbeat) {
	s.mu.Lock()
	if hb.Done == 0 {
		hb.Done = s.done
	}
	hb.Total = s.total
	s.opts.Pool.OnHeartbeat(hb)
	s.mu.Unlock()
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func itemName(it batch.Item) string {
	if it.Name != "" {
		return it.Name
	}
	return it.Path
}

// BuildReport assembles the tango.batch/1 record of a supervised run.
func BuildReport(specPath, mode string, spec *efsm.Spec, opts Options, res *Result) *obs.BatchReport {
	return &obs.BatchReport{
		Schema:          obs.BatchSchema,
		Tool:            "tango batch",
		Spec:            specPath,
		SpecTransitions: spec.TransitionCount(),
		Mode:            mode,
		Workers:         res.Workers,
		Shuffle:         opts.Pool.Shuffle,
		Seed:            opts.Pool.Seed,
		ExitCode:        res.ExitCode,
		WallUS:          res.Wall.Microseconds(),
		Counts:          res.Counts,
		Items:           append([]obs.BatchItem(nil), res.Rows...),
	}
}
