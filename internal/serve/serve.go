// Package serve turns the one-shot trace analyzer into a fault-tolerant
// multi-tenant service: a long-running HTTP/JSON daemon that compiles each
// Estelle specification once, caches it, and analyzes any number of traces
// against it on a bounded worker pool.
//
// The robustness layer is the point:
//
//   - an LRU compiled-spec cache with singleflight compilation, so N
//     concurrent requests for one spec cost one compile (and a cached compile
//     *error* costs zero);
//   - admission control with per-tenant fairness: at most Workers analyses
//     run; each tenant gets its own token bucket (rate/burst), queue bound
//     and inflight cap, and free slots are granted by weighted deficit
//     round-robin — one hot tenant sheds 429s against its own limits instead
//     of starving the rest;
//   - graceful degradation: every request runs under a deadline and a
//     transition budget clamped by server policy, and an overloaded server
//     shrinks both so expensive requests return deterministic partial
//     verdicts (the analyzer's StopInfo machinery) instead of camping on
//     workers. The ladder is: full verdict → partial verdict via budget →
//     429;
//   - per-request panic containment: a panicking analysis answers 500
//     without taking the daemon down, the panic is attributed to its spec,
//     and a spec that keeps killing workers trips a circuit breaker and is
//     quarantined (503) — the crash-only recipe of internal/batch applied to
//     serving;
//   - crash-only durability: with a Store configured, uploaded specs persist
//     as CRC-framed fsynced snapshots and every accepted /v1/batch is
//     journaled; a restarted daemon re-warms its spec cache from disk,
//     replays the work journal, and finishes what its predecessor started —
//     byte-identical to an uninterrupted run (see journal.go);
//   - graceful drain: BeginDrain stops admission, running requests finish,
//     /healthz flips to 503 so load balancers stop routing here.
//
// Endpoints: POST /v1/specs (upload+compile), POST /v1/analyze (single
// trace), POST /v1/batch (many traces), POST /v1/stream (on-line analysis of
// a streamed trace with incremental verdicts), GET /v1/batches/{id} (stored
// batch reports), GET /healthz (+ /healthz/live, /healthz/ready), GET
// /metrics. All JSON responses carry the "tango.serve/1" schema and the
// build version.
package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// Schema identifies the serve response format, like obs.ReportSchema does
// for run reports.
const Schema = "tango.serve/1"

// Options configures a Server.
type Options struct {
	// Workers bounds concurrently running analyses (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the running
	// ones (default 4*Workers). Requests past Workers+QueueDepth get 429.
	QueueDepth int
	// SpecCacheSize bounds the compiled-spec LRU (default 32 entries).
	SpecCacheSize int
	// Limits is the per-request resource policy (defaults in Limits).
	Limits Limits
	// MaxBodyBytes bounds one request body (default 8 MiB). Oversized
	// bodies are rejected with 422 before any compile or parse work.
	MaxBodyBytes int64
	// MaxBatchItems bounds traces per /v1/batch request (default 256).
	MaxBatchItems int
	// BreakerPanics quarantines a spec after this many contained analysis
	// panics attributed to it (default 3; 0 disables the breaker).
	BreakerPanics int64
	// StreamStallTimeout bounds how long /v1/stream waits for a silent
	// client before answering with a partial verdict (default 30s).
	StreamStallTimeout time.Duration
	// RetryAfter is the base Retry-After hint on 429/503 responses (default
	// 1s). The wire value is jittered deterministically per request into
	// [base, 2*base] whole seconds so shed clients don't retry in lockstep.
	RetryAfter time.Duration
	// Metrics receives serving metrics (serve.* counters and gauges); nil
	// allocates a private registry. /metrics snapshots it either way.
	Metrics *obs.Registry
	// Log receives one-line operational messages (panics, quarantines,
	// drain progress). Nil discards them.
	Log io.Writer
	// HeartbeatEvery emits a periodic one-line load heartbeat to Log while
	// the server runs (0 disables).
	HeartbeatEvery time.Duration

	// Store, when non-nil, is the daemon's durable state directory: uploaded
	// specs persist across restarts, accepted batches are journaled, and a
	// new daemon generation re-warms and replays from it before admitting
	// traffic (crash-only serving). Nil serves purely from memory.
	Store *Store
	// Tenants is the per-tenant admission policy table (see TenantPolicy).
	// Requests carry their tenant in the X-Tango-Tenant header; absent or
	// unknown tenants share the "default" entry. Nil means one unthrottled
	// default tenant — the pre-multitenancy behavior.
	Tenants TenantConfig

	// EnablePprof mounts net/http/pprof's profiling endpoints under
	// /debug/pprof/ on the daemon's own mux. Off by default: the profiler
	// exposes goroutine stacks and heap contents, so it is opt-in (the
	// `tango serve -pprof` flag) rather than ambient.
	EnablePprof bool

	// FaultHook, when non-nil, runs on the worker goroutine just before
	// each analysis with the spec digest — the chaos tests' panic injection
	// point, mirroring batch.Options.FaultHook. Leave nil in production.
	FaultHook func(digest string)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.SpecCacheSize <= 0 {
		o.SpecCacheSize = 32
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = 256
	}
	if o.BreakerPanics == 0 {
		o.BreakerPanics = 3
	}
	if o.StreamStallTimeout <= 0 {
		o.StreamStallTimeout = 30 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	o.Limits = o.Limits.withDefaults(o.QueueDepth)
	return o
}

// Boot phases. A storeless server is born ready; a store-backed one walks
// warming (re-compiling persisted specs) → replaying (finishing journaled
// batches) → ready, and /healthz/ready answers 503 until the walk ends.
const (
	phaseWarming int32 = iota
	phaseReplaying
	phaseReady
)

// Server is the serving daemon: pool + cache + handlers. Create with New,
// mount Handler on an http.Server, and call BeginDrain/AwaitIdle on
// shutdown.
type Server struct {
	opts  Options
	pool  *fairPool
	cache *specCache
	reg   *obs.Registry
	store *Store
	// log is the store's work journal; nil without a store, or when boot
	// compaction failed (batches then run without handoff).
	log atomic.Pointer[checkpoint.BatchLog]

	started  time.Time
	phase    atomic.Int32
	ready    chan struct{} // closed when phase reaches phaseReady
	draining atomic.Bool
	stopBeat chan struct{}
	beatOnce sync.Once

	m struct {
		requests    *obs.Counter // every request that reached a handler
		completed   *obs.Counter // analyses that ran to a verdict
		shed        *obs.Counter // 429s
		rejected    *obs.Counter // 503s (draining, quarantined, not ready)
		badRequests *obs.Counter // 422s
		degraded    *obs.Counter // requests run under degraded limits
		panics      *obs.Counter // contained analysis panics
		quarantined *obs.Counter // specs tripped into quarantine
		streams     *obs.Counter // /v1/stream requests accepted
		inflight    *obs.Gauge
		queued      *obs.Gauge
		elapsedUS   *obs.Histogram
		queueWaitUS *obs.Histogram // time spent waiting for a pool slot
	}
}

// Histogram bucket bounds (microseconds). Shared constants so every
// registration site agrees — the registry panics on bound mismatches.
var (
	latencyBoundsUS   = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	queueWaitBoundsUS = []int64{100, 1_000, 10_000, 100_000, 1_000_000}
)

// New builds a Server. It does not listen; mount Handler(). With a Store
// configured the server boots not-ready and becomes ready once persisted
// specs are re-warmed and the work journal is replayed (AwaitReady).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		pool:     newFairPool(opts.Workers, opts.QueueDepth, opts.Tenants),
		cache:    newSpecCache(opts.SpecCacheSize),
		reg:      opts.Metrics,
		store:    opts.Store,
		started:  time.Now(),
		ready:    make(chan struct{}),
		stopBeat: make(chan struct{}),
	}
	s.m.requests = s.reg.Counter("serve.requests")
	s.m.completed = s.reg.Counter("serve.completed")
	s.m.shed = s.reg.Counter("serve.shed_429")
	s.m.rejected = s.reg.Counter("serve.rejected_503")
	s.m.badRequests = s.reg.Counter("serve.bad_422")
	s.m.degraded = s.reg.Counter("serve.degraded")
	s.m.panics = s.reg.Counter("serve.panics")
	s.m.quarantined = s.reg.Counter("serve.quarantined_specs")
	s.m.streams = s.reg.Counter("serve.streams")
	s.m.inflight = s.reg.Gauge("serve.inflight")
	s.m.queued = s.reg.Gauge("serve.queued")
	s.m.elapsedUS = s.reg.Histogram("serve.elapsed_us", latencyBoundsUS...)
	s.m.queueWaitUS = s.reg.Histogram("serve.queue_wait_us", queueWaitBoundsUS...)
	if opts.HeartbeatEvery > 0 {
		go s.heartbeatLoop(opts.HeartbeatEvery)
	}
	if s.store == nil {
		s.phase.Store(phaseReady)
		close(s.ready)
	} else {
		go s.warmAndRecover()
	}
	return s
}

// warmAndRecover is the store-backed boot walk: re-warm the spec cache from
// disk, replay and compact the work journal, finish unfinished batches, then
// flip ready. Crash-only: every failure is logged and skipped — a corrupt
// spec file or torn journal tail can delay readiness, never prevent it.
func (s *Server) warmAndRecover() {
	defer func() {
		s.phase.Store(phaseReady)
		close(s.ready)
		fmt.Fprintf(s.opts.Log, "serve: store %s ready (%d specs warm)\n", s.store.Dir(), s.cache.len())
	}()

	specs, errs := s.store.LoadSpecs()
	for _, err := range errs {
		s.storeError("warm", err)
	}
	for _, sp := range specs {
		entry, _ := s.cache.get(sp.Name, sp.Source)
		if _, err := s.cache.wait(context.Background(), entry); err != nil {
			fmt.Fprintf(s.opts.Log, "serve: warm: spec %s no longer compiles: %v\n", entry.digest, err)
		}
	}

	s.phase.Store(phaseReplaying)
	path := s.store.JournalPath()
	plan, err := checkpoint.ReplayBatchLog[workBatchRec](path)
	if err != nil {
		if !errIsNotExist(err) {
			s.storeError("journal replay", err)
		}
		plan = &checkpoint.BatchPlan[workBatchRec]{}
	}
	if plan.Truncated {
		fmt.Fprintf(s.opts.Log, "serve: recover: journal had a torn tail (crash mid-append); repaired\n")
	}
	// Compaction keeps only the unfinished batches, so the journal grows
	// with the work outstanding, not with daemon uptime.
	pending := plan.Unfinished()
	log, err := checkpoint.CompactBatchLog(path, pending)
	if err != nil {
		// Serve without a journal rather than not at all: batches run, they
		// just can't hand off to the next generation.
		s.storeError("journal compact", err)
	} else {
		s.log.Store(log)
	}
	for _, b := range pending {
		s.recoverBatch(b)
	}
}

// Ready reports whether the server is past its boot walk and admitting.
func (s *Server) Ready() bool { return s.phase.Load() == phaseReady }

// AwaitReady blocks until the server is ready to admit traffic (or ctx
// ends). Storeless servers are ready immediately.
func (s *Server) AwaitReady(ctx context.Context) error {
	select {
	case <-s.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the daemon's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/specs", s.handleSpecs)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.EnablePprof {
		// Mounted explicitly instead of importing net/http/pprof for its
		// DefaultServeMux side effect: the daemon serves its own mux.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// BeginDrain stops admitting work: new analysis requests answer 503,
// /healthz flips to draining, in-flight requests keep running.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.pool.beginDrain()
		fmt.Fprintf(s.opts.Log, "serve: drain: admission stopped (%d in flight, %d queued)\n",
			s.pool.inflight(), s.pool.queued())
	}
}

// AwaitIdle blocks until every in-flight analysis finished or ctx expired.
// Call after BeginDrain; together with http.Server.Shutdown this is the
// graceful half of SIGTERM handling. The work journal is closed once idle —
// anything still unfinished in it is the successor's to replay.
func (s *Server) AwaitIdle(ctx context.Context) error {
	err := s.pool.awaitIdle(ctx)
	s.beatOnce.Do(func() { close(s.stopBeat) })
	_ = s.log.Load().Close() // every record was fsynced when appended
	if err != nil {
		fmt.Fprintf(s.opts.Log, "serve: drain: gave up waiting for in-flight analyses: %v\n", err)
		return err
	}
	fmt.Fprintf(s.opts.Log, "serve: drain: idle\n")
	return nil
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics exposes the registry (for snapshots and tests).
func (s *Server) Metrics() *obs.Registry { return s.reg }

func (s *Server) heartbeatLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			fmt.Fprintf(s.opts.Log,
				"serve: heartbeat up=%s inflight=%d queued=%d specs=%d served=%d shed=%d\n",
				time.Since(s.started).Round(time.Second), s.pool.inflight(), s.pool.queued(),
				s.cache.len(), s.m.completed.Value(), s.m.shed.Value())
		case <-s.stopBeat:
			return
		}
	}
}

// gauges refreshes the load gauges — global and per tenant — on request
// entry/exit so the /metrics snapshot tracks the live pool.
func (s *Server) gauges() {
	s.m.inflight.Set(int64(s.pool.inflight()))
	s.m.queued.Set(int64(s.pool.queued()))
	for _, tl := range s.pool.loads() {
		mt := metricTenant(tl.Name)
		s.reg.Gauge("serve.tenant." + mt + ".inflight").Set(int64(tl.Inflight))
		s.reg.Gauge("serve.tenant." + mt + ".queued").Set(int64(tl.Queued))
	}
}
