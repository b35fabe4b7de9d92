package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/buildinfo"
	"repro/internal/efsm"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Machine-readable error codes in the error envelope. Stable: clients and
// the CI smoke test branch on them.
const (
	CodeBadRequest   = "bad_request"   // malformed JSON, oversized body, missing fields
	CodeBadSpec      = "bad_spec"      // specification does not compile
	CodeBadTrace     = "bad_trace"     // trace does not parse or resolve
	CodeUnknownSpec  = "unknown_spec"  // spec_digest not in the cache or store
	CodeUnknownBatch = "unknown_batch" // no stored report under that batch id
	CodeSaturated    = "saturated"     // admission queue full (429)
	CodeThrottled    = "throttled"     // tenant over its token-bucket rate (429)
	CodeDraining     = "draining"      // server shutting down (503)
	CodeNotReady     = "not_ready"     // store re-warm / journal replay in progress (503)
	CodeQuarantined  = "quarantined"   // spec tripped the panic breaker (503)
	CodePanic        = "panic"         // contained analysis panic (500)
)

// errorResponse is the JSON envelope of every non-200 answer.
type errorResponse struct {
	Schema      string `json:"schema"`
	Version     string `json:"tango_version"`
	Code        string `json:"code"`
	Error       string `json:"error"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// analyzeRequest is the body of POST /v1/analyze (and, minus trace fields,
// POST /v1/specs). Exactly one of Spec (inline source) or SpecDigest (from a
// prior /v1/specs upload) selects the specification.
type analyzeRequest struct {
	Spec       string `json:"spec,omitempty"`
	SpecName   string `json:"spec_name,omitempty"`
	SpecDigest string `json:"spec_digest,omitempty"`

	Trace string `json:"trace"`

	Order         string   `json:"order,omitempty"` // NR, IO, IP, FULL (default FULL)
	DisabledIPs   []string `json:"disable,omitempty"`
	UnobservedIPs []string `json:"unobserved,omitempty"`
	StateSearch   bool     `json:"statesearch,omitempty"`
	Hash          bool     `json:"hash,omitempty"`
	Memo          bool     `json:"memo,omitempty"`

	// Budget bounds transition executions; DeadlineMS wall time. Both are
	// clamped by server policy (and shrunk under load); 0 means the server
	// default. The response reports the effective values.
	Budget     int64 `json:"budget,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// diagnosisJSON mirrors analysis.Diagnosis for the wire.
type diagnosisJSON struct {
	Explained        int      `json:"explained"`
	Total            int      `json:"total"`
	State            string   `json:"state,omitempty"`
	FirstUnexplained string   `json:"first_unexplained,omitempty"`
	Faults           []string `json:"faults,omitempty"`
}

// analyzeResponse is the 200 body of POST /v1/analyze.
type analyzeResponse struct {
	Schema     string `json:"schema"`
	Version    string `json:"tango_version"`
	SpecDigest string `json:"spec_digest"`
	SpecCached bool   `json:"spec_cached"`

	Verdict   string `json:"verdict"`
	ExitClass int    `json:"exit_class"`
	Reason    string `json:"reason,omitempty"`

	// Degraded marks a request run under the overload clamps; Budget and
	// DeadlineMS are the effective limits it ran with.
	Degraded   bool  `json:"degraded,omitempty"`
	Budget     int64 `json:"budget"`
	DeadlineMS int64 `json:"deadline_ms"`

	Stop      *obs.StopDetail `json:"stop,omitempty"`
	Search    obs.SearchStats `json:"search"`
	Diagnosis *diagnosisJSON  `json:"diagnosis,omitempty"`
	// Flight is the flight-recorder tail when the verdict went wrong — the
	// search's last steps, rendered (see obs.FlightRecorder).
	Flight    []string `json:"flight,omitempty"`
	ElapsedUS int64    `json:"elapsed_us"`
}

// specsResponse is the 200 body of POST /v1/specs.
type specsResponse struct {
	Schema      string `json:"schema"`
	Version     string `json:"tango_version"`
	SpecDigest  string `json:"spec_digest"`
	SpecCached  bool   `json:"spec_cached"`
	Name        string `json:"name"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
}

// batchRequest is the body of POST /v1/batch.
type batchRequest struct {
	Spec       string `json:"spec,omitempty"`
	SpecName   string `json:"spec_name,omitempty"`
	SpecDigest string `json:"spec_digest,omitempty"`

	// BatchID names the batch in the work journal and the stored report
	// (GET /v1/batches/{id}). Optional: a store-backed server derives a
	// deterministic content hash when absent, which makes blind client
	// retries idempotent. Ignored without a store.
	BatchID string `json:"batch_id,omitempty"`

	Order         string   `json:"order,omitempty"`
	DisabledIPs   []string `json:"disable,omitempty"`
	UnobservedIPs []string `json:"unobserved,omitempty"`
	Hash          bool     `json:"hash,omitempty"`
	Memo          bool     `json:"memo,omitempty"`
	Budget        int64    `json:"budget,omitempty"` // per item
	DeadlineMS    int64    `json:"deadline_ms,omitempty"`

	Traces []batchTrace `json:"traces"`
}

type batchTrace struct {
	Name   string `json:"name,omitempty"`
	Trace  string `json:"trace"`
	Expect string `json:"expect,omitempty"` // "", "valid", "invalid"
}

// batchResponse is the 200 body of POST /v1/batch: per-item rows in request
// order plus the aggregate counts, the same shapes tango.batch/1 uses.
type batchResponse struct {
	Schema     string `json:"schema"`
	Version    string `json:"tango_version"`
	BatchID    string `json:"batch_id,omitempty"`
	SpecDigest string `json:"spec_digest"`
	Degraded   bool   `json:"degraded,omitempty"`
	Budget     int64  `json:"budget"`
	DeadlineMS int64  `json:"deadline_ms"`

	Items     []obs.BatchItem `json:"items"`
	Counts    obs.BatchCounts `json:"counts"`
	ExitClass int             `json:"exit_class"`
	ElapsedUS int64           `json:"elapsed_us"`
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// retryAfterSeconds turns the configured base hint into the wire value for
// one request: whole seconds in [base, 2*base], jittered deterministically
// from the request's identity (tenant, path, peer). Deterministic jitter
// desynchronizes a fleet of shed clients — they back off by *different*
// amounts, so the retry wave does not arrive in lockstep — while staying
// reproducible for tests and for any single retrying client.
func retryAfterSeconds(base time.Duration, r *http.Request) int {
	secs := int((base + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if r == nil {
		return secs
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, r.Header.Get(TenantHeader))
	_, _ = io.WriteString(h, "\x00"+r.URL.Path)
	_, _ = io.WriteString(h, "\x00"+r.RemoteAddr)
	return secs + int(h.Sum64()%uint64(secs+1)) // [base, 2*base]
}

// fail writes the error envelope for one failed request.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	e := errorResponse{Schema: Schema, Version: buildinfo.Version, Code: code, Error: msg}
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		secs := retryAfterSeconds(s.opts.RetryAfter, r)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		e.RetryAfterS = secs
	}
	switch status {
	case http.StatusUnprocessableEntity:
		s.m.badRequests.Inc()
	case http.StatusTooManyRequests:
		s.m.shed.Inc()
	case http.StatusServiceUnavailable:
		s.m.rejected.Inc()
	}
	writeJSON(w, status, e)
}

// decode reads and unmarshals one bounded JSON body.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest, "decode request: "+err.Error())
		return false
	}
	return true
}

// gate rejects analysis requests while the server is not admitting: booting
// (store re-warm / journal replay) or draining. ok=false means the 503 is
// written.
func (s *Server) gate(w http.ResponseWriter, r *http.Request) bool {
	switch {
	case s.draining.Load():
		s.fail(w, r, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return false
	case !s.Ready():
		s.fail(w, r, http.StatusServiceUnavailable, CodeNotReady,
			"server is booting: "+bootReason(s.phase.Load()))
		return false
	}
	return true
}

// bootReason names a not-yet-ready phase for the JSON error envelope and the
// readiness probe.
func bootReason(phase int32) string {
	switch phase {
	case phaseWarming:
		return "re-warming spec store"
	case phaseReplaying:
		return "replaying work journal"
	}
	return "ready"
}

// resolveSpec turns the spec fields of a request into a ready compiled spec,
// answering the error response itself on failure. ok=false means the
// response has been written (or the client is gone). By-digest requests fall
// back from the LRU to the durable store — an uploaded spec survives both
// cache eviction and daemon restarts. Inline sources are persisted to the
// store once compiled.
func (s *Server) resolveSpec(w http.ResponseWriter, r *http.Request,
	source, name, digest string) (entry *specEntry, spec *efsm.Spec, cached, ok bool) {
	switch {
	case digest != "":
		entry = s.cache.lookup(digest)
		if entry == nil && s.store != nil {
			if sname, ssource, err := s.store.GetSpec(digest); err == nil {
				entry, _ = s.cache.get(sname, ssource)
			}
		}
		if entry == nil {
			s.fail(w, r, http.StatusUnprocessableEntity, CodeUnknownSpec,
				fmt.Sprintf("spec %s is not cached (upload it via POST /v1/specs)", digest))
			return nil, nil, false, false
		}
		cached = true
	case source != "":
		if name == "" {
			name = "request.estelle"
		}
		entry, cached = s.cache.get(name, source)
	default:
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest, "request names no specification (spec or spec_digest)")
		return nil, nil, false, false
	}
	spec, err := s.cache.wait(r.Context(), entry)
	if err != nil {
		if r.Context().Err() != nil {
			return nil, nil, false, false // client gone; nothing to answer
		}
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadSpec, "compile: "+err.Error())
		return nil, nil, false, false
	}
	if s.store != nil && source != "" {
		if perr := s.store.PutSpec(name, source); perr != nil {
			s.storeError("put spec "+entry.digest, perr)
		}
	}
	if entry.quarantined(s.opts.BreakerPanics) {
		s.fail(w, r, http.StatusServiceUnavailable, CodeQuarantined,
			fmt.Sprintf("spec %s is quarantined after %d contained panics", entry.digest, entry.panics.Load()))
		return nil, nil, false, false
	}
	s.specCounter(entry.digest, "requests").Inc()
	return entry, spec, cached, true
}

// specKey shortens a spec digest to the 12-char label used in per-spec
// metric names.
func specKey(digest string) string {
	short := strings.TrimPrefix(digest, "sha256:")
	if len(short) > 12 {
		short = short[:12]
	}
	return short
}

// specCounter returns the per-spec metric counter
// serve.spec.<digest12>.<what>.
func (s *Server) specCounter(digest, what string) *obs.Counter {
	return s.reg.Counter("serve.spec." + specKey(digest) + "." + what)
}

// specLatency returns the per-spec latency histogram
// serve.spec.<digest12>.elapsed_us, on the same bucket scale as the
// server-wide serve.elapsed_us.
func (s *Server) specLatency(digest string) *obs.Histogram {
	return s.reg.Histogram("serve.spec."+specKey(digest)+".elapsed_us", latencyBoundsUS...)
}

// tenantOf extracts the request's tenant identity and canonicalizes it:
// absent headers and names the config does not know resolve to "default", so
// metrics stay bounded however many names a hostile client invents.
func (s *Server) tenantOf(r *http.Request) string {
	name := r.Header.Get(TenantHeader)
	if name == "" {
		return DefaultTenant
	}
	return s.pool.canonical(name)
}

// admit runs pool admission for the request's tenant and answers 429/503
// itself, recording how long the request waited for its slot. ok=false means
// the response has been written (or the client is gone). The returned tenant
// is the canonical name to release() with.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (tenant string, ok bool) {
	tenant = s.tenantOf(r)
	mt := metricTenant(tenant)
	waited := time.Now()
	err := s.pool.acquire(r.Context(), tenant)
	s.m.queueWaitUS.Observe(time.Since(waited).Microseconds())
	s.gauges()
	switch {
	case err == nil:
		s.reg.Counter("serve.tenant." + mt + ".admitted").Inc()
		return tenant, true
	case err == ErrSaturated:
		s.reg.Counter("serve.tenant." + mt + ".shed_429").Inc()
		s.fail(w, r, http.StatusTooManyRequests, CodeSaturated,
			fmt.Sprintf("tenant %s saturated: %d running, %d queued", tenant, s.pool.inflight(), s.pool.queued()))
	case err == ErrThrottled:
		s.reg.Counter("serve.tenant." + mt + ".throttled_429").Inc()
		s.fail(w, r, http.StatusTooManyRequests, CodeThrottled,
			fmt.Sprintf("tenant %s is over its admission rate", tenant))
	case err == ErrDraining:
		s.fail(w, r, http.StatusServiceUnavailable, CodeDraining, "server is draining")
	default: // client context ended while queued
	}
	return tenant, false
}

// serveFlightEvents sizes the per-request flight recorder: enough tail to
// explain a bad verdict, small enough to be free on the hot path.
const serveFlightEvents = 64

// analysisOptions maps request fields onto analysis.Options under the
// effective limits.
func analysisOptions(order analysis.OrderOpts, disabled, unobserved []string,
	stateSearch, hash, memo bool, lim reqLimits, heap int) analysis.Options {
	return analysis.Options{
		Order:              order,
		DisabledIPs:        disabled,
		UnobservedIPs:      unobserved,
		InitialStateSearch: stateSearch,
		StateHashing:       hash,
		Memo:               memo,
		MaxTransitions:     lim.Budget,
		MaxHeapCells:       heap,
		FlightRecorder:     serveFlightEvents,
	}
}

// parseOrder maps the wire order word to the checking mode.
func parseOrder(s string) (analysis.OrderOpts, error) {
	switch strings.ToUpper(s) {
	case "", "FULL":
		return analysis.OrderFull, nil
	case "NR", "NONE":
		return analysis.OrderNone, nil
	case "IO":
		return analysis.OrderIO, nil
	case "IP":
		return analysis.OrderIP, nil
	}
	return analysis.OrderOpts{}, fmt.Errorf("unknown order mode %q (want NR, IO, IP or FULL)", s)
}

// notePanic attributes one contained panic to a spec and trips the breaker.
func (s *Server) notePanic(entry *specEntry, what string, err error) {
	s.m.panics.Inc()
	s.specCounter(entry.digest, "panics").Inc()
	n := entry.panics.Add(1)
	fmt.Fprintf(s.opts.Log, "serve: contained panic in %s (%s, panic %d): %v\n",
		what, entry.digest, n, err)
	if s.opts.BreakerPanics > 0 && n == s.opts.BreakerPanics {
		s.m.quarantined.Inc()
		fmt.Fprintf(s.opts.Log, "serve: spec %s quarantined after %d panics\n", entry.digest, n)
	}
}

// handleSpecs implements POST /v1/specs: upload and compile a specification,
// returning its digest for later by-digest requests. With a store configured
// the upload is durable — the digest keeps resolving across daemon restarts.
func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if !s.gate(w, r) {
		return
	}
	var req analyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Spec == "" {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest, "request carries no spec source")
		return
	}
	entry, spec, cached, ok := s.resolveSpec(w, r, req.Spec, req.SpecName, "")
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, specsResponse{
		Schema: Schema, Version: buildinfo.Version,
		SpecDigest: entry.digest, SpecCached: cached,
		Name: spec.Prog.Name, States: spec.NumStates(), Transitions: spec.TransitionCount(),
	})
}

// handleAnalyze implements POST /v1/analyze: one static trace, one verdict.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if !s.gate(w, r) {
		return
	}
	var req analyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	order, err := parseOrder(req.Order)
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest, err.Error())
		return
	}
	entry, spec, cached, ok := s.resolveSpec(w, r, req.Spec, req.SpecName, req.SpecDigest)
	if !ok {
		return
	}
	tr, err := trace.ReadString(req.Trace)
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadTrace, "trace: "+err.Error())
		return
	}

	tenant, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer func() { s.pool.release(tenant); s.gauges() }()

	lim := s.opts.Limits.resolve(time.Duration(req.DeadlineMS)*time.Millisecond, req.Budget, s.pool.queued())
	if lim.Degraded {
		s.m.degraded.Inc()
	}
	ctx, cancel := context.WithTimeout(r.Context(), lim.Deadline)
	defer cancel()

	aopts := analysisOptions(order, req.DisabledIPs, req.UnobservedIPs,
		req.StateSearch, req.Hash, req.Memo, lim, s.opts.Limits.MaxHeapCells)
	sess, err := analysis.NewSession(spec, aopts)
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest, err.Error())
		return
	}
	var hook func(batch.Item)
	if s.opts.FaultHook != nil {
		hook = func(batch.Item) { s.opts.FaultHook(entry.digest) }
	}
	start := time.Now()
	ir := batch.AnalyzeItem(ctx, sess, batch.Item{Name: "request", Trace: tr}, hook)
	elapsed := time.Since(start)
	if ir.Panicked {
		s.notePanic(entry, "analyze", ir.Err)
		s.fail(w, r, http.StatusInternalServerError, CodePanic, "analysis panicked (contained): "+ir.Err.Error())
		return
	}
	if ir.Err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadTrace, "trace: "+ir.Err.Error())
		return
	}
	s.m.completed.Inc()
	s.m.elapsedUS.Observe(elapsed.Microseconds())
	s.specLatency(entry.digest).Observe(elapsed.Microseconds())

	res := ir.Res
	resp := analyzeResponse{
		Schema: Schema, Version: buildinfo.Version,
		SpecDigest: entry.digest, SpecCached: cached,
		Verdict: res.Verdict.String(), ExitClass: ir.Class, Reason: res.Reason,
		Degraded: lim.Degraded, Budget: lim.Budget, DeadlineMS: lim.Deadline.Milliseconds(),
		Search: res.Stats.Report(), ElapsedUS: elapsed.Microseconds(),
	}
	if st := res.Stop; st != nil {
		resp.Stop = &obs.StopDetail{Reason: string(st.Reason), VerifiedPrefix: st.VerifiedPrefix,
			Nodes: st.Nodes, Transitions: st.Transitions}
	}
	if d := res.Diagnosis; d != nil {
		resp.Diagnosis = &diagnosisJSON{Explained: d.Explained, Total: d.Total, State: d.State,
			FirstUnexplained: d.FirstUnexplained, Faults: d.Faults}
	}
	resp.Flight = res.Flight
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch implements POST /v1/batch: many traces against one spec,
// sequentially under a single pool slot (a batch is one tenant's workload;
// cross-request fairness comes from the pool, not from inside the batch).
//
// With a store configured the batch is journaled at admission and every row
// as it finishes, so a daemon killed mid-batch hands the tail to its
// successor (see journal.go); the normalized report persists under the batch
// id for GET /v1/batches/{id}, and re-submitting an already-finished id
// answers from the stored report without re-analyzing.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if !s.gate(w, r) {
		return
	}
	var req batchRequest
	if !s.decode(w, r, &req) {
		return
	}
	order, err := parseOrder(req.Order)
	if err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest, err.Error())
		return
	}
	if len(req.Traces) == 0 {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest, "batch carries no traces")
		return
	}
	if len(req.Traces) > s.opts.MaxBatchItems {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest,
			fmt.Sprintf("batch of %d traces exceeds the %d-item limit", len(req.Traces), s.opts.MaxBatchItems))
		return
	}
	if req.BatchID != "" && !validBatchID(req.BatchID) {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest,
			"batch_id must be 1-128 chars of [a-zA-Z0-9_.-] and not start with '.'")
		return
	}
	entry, spec, _, ok := s.resolveSpec(w, r, req.Spec, req.SpecName, req.SpecDigest)
	if !ok {
		return
	}

	tenant, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer func() { s.pool.release(tenant); s.gauges() }()

	// The per-item budget is clamped like a single analyze; the deadline
	// covers the whole batch, so later items of an expensive batch degrade
	// to deterministic skipped/partial rows rather than holding the slot.
	lim := s.opts.Limits.resolve(time.Duration(req.DeadlineMS)*time.Millisecond, req.Budget, s.pool.queued())
	if lim.Degraded {
		s.m.degraded.Inc()
	}
	ctx, cancel := context.WithTimeout(r.Context(), lim.Deadline)
	defer cancel()

	aopts := analysisOptions(order, req.DisabledIPs, req.UnobservedIPs,
		false, req.Hash, req.Memo, lim, s.opts.Limits.MaxHeapCells)

	// Journal the accepted batch (with the limits it was admitted under)
	// before running it — from here on a crash hands the work to the next
	// generation instead of losing it. Journal faults degrade durability,
	// never availability.
	var batchID string
	var onRow func(i int, row obs.BatchItem, stopped bool)
	if s.store != nil {
		batchID = req.BatchID
		if batchID == "" {
			batchID = deriveBatchID(entry.digest, &req)
		}
		if data, rerr := s.store.GetReport(batchID); rerr == nil {
			// Idempotent retry: this batch already ran to completion (possibly
			// by a predecessor daemon); answer the stored normalized report.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data)
			return
		}
		rec := workBatchRec{
			ID: batchID, Tenant: tenant, SpecDigest: entry.digest,
			Order: req.Order, DisabledIPs: req.DisabledIPs, UnobservedIPs: req.UnobservedIPs,
			Hash: req.Hash, Memo: req.Memo,
			Budget: lim.Budget, DeadlineMS: lim.Deadline.Milliseconds(), Degraded: lim.Degraded,
			Traces: req.Traces,
		}
		log := s.log.Load()
		if jerr := log.Admit(rec); jerr != nil {
			s.storeError("journal batch "+batchID, jerr)
		} else {
			onRow = s.journalRow(log, batchID)
		}
	}

	start := time.Now()
	items, err := s.runBatchRows(ctx, entry, spec, aopts, req.Traces, nil, -1, onRow)
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, CodePanic, err.Error())
		return
	}
	s.m.completed.Inc()
	s.m.elapsedUS.Observe(time.Since(start).Microseconds())
	s.specLatency(entry.digest).Observe(time.Since(start).Microseconds())

	resp := batchResponse{
		Schema: Schema, Version: buildinfo.Version,
		BatchID: batchID, SpecDigest: entry.digest,
		Degraded: lim.Degraded, Budget: lim.Budget, DeadlineMS: lim.Deadline.Milliseconds(),
		Items: items,
	}
	resp.Counts, resp.ExitClass = batch.AggregateRows(items)
	s.persistBatch(batchID, resp)
	resp.ElapsedUS = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, resp)
}

// handleBatchReport implements GET /v1/batches/{id}: the stored normalized
// report of a finished batch — the pickup point for clients whose daemon
// died mid-batch and whose work a successor finished.
func (s *Server) handleBatchReport(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	id := r.PathValue("id")
	if s.store == nil {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest, "server runs without a store")
		return
	}
	if !validBatchID(id) {
		s.fail(w, r, http.StatusUnprocessableEntity, CodeBadRequest, "malformed batch id")
		return
	}
	data, err := s.store.GetReport(id)
	if err != nil {
		s.fail(w, r, http.StatusNotFound, CodeUnknownBatch,
			fmt.Sprintf("no stored report for batch %s", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleHealthz implements GET /healthz: liveness plus build identity and
// load. 200 while serving, 503 while booting or draining (so balancers stop
// routing). The split probes are /healthz/live and /healthz/ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Schema   string `json:"schema"`
		Status   string `json:"status"`
		Reason   string `json:"reason,omitempty"`
		Version  string `json:"tango_version"`
		Commit   string `json:"tango_commit,omitempty"`
		UptimeS  int64  `json:"uptime_s"`
		Workers  int    `json:"workers"`
		Queue    int    `json:"queue_depth"`
		Inflight int    `json:"inflight"`
		Queued   int    `json:"queued"`
		Specs    int    `json:"specs_cached"`
		Store    string `json:"store,omitempty"`
	}
	h := health{
		Schema: Schema, Status: "ok",
		Version: buildinfo.Version, Commit: buildinfo.Commit(),
		UptimeS: int64(time.Since(s.started).Seconds()),
		Workers: s.opts.Workers, Queue: s.opts.QueueDepth,
		Inflight: s.pool.inflight(), Queued: s.pool.queued(),
		Specs: s.cache.len(),
	}
	if s.store != nil {
		h.Store = s.store.Dir()
	}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case !s.Ready():
		h.Status = "booting"
		h.Reason = bootReason(s.phase.Load())
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleLive implements GET /healthz/live: pure liveness. 200 whenever the
// process can answer HTTP at all — a booting or draining daemon is alive; a
// deadlocked or dead one is not. Restart-deciders watch this, not readiness.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"schema": Schema, "status": "alive", "tango_version": buildinfo.Version,
	})
}

// handleReady implements GET /healthz/ready: admission readiness. 503 with a
// machine-readable reason while the store re-warms or the journal replays
// (and while draining); 200 exactly when new work is being admitted.
// Load balancers route on this.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Schema string `json:"schema"`
		Status string `json:"status"`
		Reason string `json:"reason,omitempty"`
	}
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, readiness{Schema: Schema, Status: "draining", Reason: "server is draining"})
	case !s.Ready():
		writeJSON(w, http.StatusServiceUnavailable, readiness{Schema: Schema, Status: "booting", Reason: bootReason(s.phase.Load())})
	default:
		writeJSON(w, http.StatusOK, readiness{Schema: Schema, Status: "ready"})
	}
}

// handleMetrics implements GET /metrics: the registry snapshot plus cache
// counters. The format is content-negotiated: JSON by default (the original
// contract, so existing scrapers keep working), Prometheus text exposition
// when the Accept header asks for text/plain or OpenMetrics — which is what
// a Prometheus scrape sends.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Gauge("serve.specs_cached").Set(int64(s.cache.len()))
	s.reg.Counter("serve.spec_compiles").Add(s.cache.compiles.Swap(0))
	s.reg.Counter("serve.spec_cache_hits").Add(s.cache.hits.Swap(0))
	s.reg.Counter("serve.spec_cache_evictions").Add(s.cache.evictions.Swap(0))
	s.gauges()
	if wantsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.PromContentType)
		_ = s.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.reg.WriteJSON(w)
}

// wantsPrometheus reports whether an Accept header asks for the text
// exposition format. JSON stays the default on */* and absent headers.
func wantsPrometheus(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "text/plain", "application/openmetrics-text":
			return true
		case "application/json":
			return false // explicit JSON preference listed first wins
		}
	}
	return false
}
