package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The serve-open load. The rate is a constant, about half the capacity
// measured on the reference host (2 vCPU; the sweep is in README.md): the
// highest rate whose p90 latency stays within serveP90LimitMS without a
// growing backlog. It is never derived per run, so a slower program shows as
// higher latency, not as a lower offered load. --serve-rate overrides it only
// to repeat that sweep.
const (
	serveRate       = 50.0 // requests per second
	serveConns      = 2    // keep-alive client connections
	serveWorkers    = 2    // daemon analysis slots
	serveP90LimitMS = 250.0
)

// clientLabel is the profiler label key every client call runs under, so a
// CPU profile charges the client's side of a request to the benchmark.
const clientLabel = "perfbench"

// serveOpen drives an in-process store-backed serve daemon on loopback with
// an open loop: requests are due at a fixed rate whatever the daemon does,
// and each is timed from its due time. Most requests are /v1/analyze by spec
// digest (compiled-spec cache hits); the rest are /v1/batch requests the
// daemon journals to its store. It is the only workload where HTTP/JSON,
// admission, the spec cache and the durable journal carry a large share.
type serveOpen struct {
	seed int64
	rate float64 // requests per second
	dir  string
	ss   *specSet
	reqs []*serveReq
	plan []int

	digests map[string]string
	store   *serve.Store
	srv     *serve.Server
	hs      *http.Server
	client  *http.Client
	base    string
	round   int

	batchSeq atomic.Int64
	tracer   atomic.Pointer[recorder]
}

type serveReq struct {
	label, kind, spec string
	traces            []string
	want              []analysis.Verdict
	body              []byte // analyze: the whole body; batch: everything after the batch id
	stats             []counts
}

// serveShape sizes one spec's requests. base is the analyze trace size at
// scale 1 (about 10 ms of search); analyze requests sit on one even ladder
// of scales across specs, batch requests carry perBatch traces at
// batchScale; mutants are as in sizedTrace.
type serveShape struct {
	spec              string
	base              int
	mutLo, mutHi      int
	valid, invalid    int
	batches, perBatch int
}

var serveShapes = []serveShape{
	{spec: "echo", base: 1100, valid: 6, invalid: 2, batches: 2, perBatch: 6},
	{spec: "tp0", base: 360, mutLo: 5, mutHi: 8, valid: 6, invalid: 2, batches: 2, perBatch: 6},
	{spec: "lapd", base: 500, valid: 6, invalid: 2, batches: 2, perBatch: 6},
	{spec: "lapd-cnet", base: 40, valid: 2, invalid: 1, batches: 1, perBatch: 6},
}

const batchScale = 0.6

func (w *serveOpen) prepare(dir string) error {
	ss, err := writeSpecs(dir, allSpecs)
	if err != nil {
		return err
	}
	w.dir, w.ss = dir, ss
	rng := rand.New(rand.NewSource(w.seed))
	var jobs []refJob
	// add draws trace i of request r and queues its reference.
	add := func(r *serveReq, i int, sh serveShape, size int, invalid bool) error {
		tr, err := sizedTrace(rng, sh.spec, ss.ref[sh.spec], size, invalid, sh.mutLo, sh.mutHi)
		if err != nil {
			return fmt.Errorf("%s: %w", r.label, err)
		}
		r.traces = append(r.traces, trace.Format(tr))
		jobs = append(jobs, refJob{ss.ref[r.spec], tr, orderOf(analysis.OrderFull), &r.want[i]})
		return nil
	}
	rungs := 0
	for _, sh := range serveShapes {
		rungs = max(rungs, sh.valid)
	}
	scales := ladder(rungs*len(serveShapes), 0.5, 1.5)
	for p, sh := range serveShapes {
		for i := 0; i < sh.valid+sh.invalid; i++ {
			r := &serveReq{label: fmt.Sprintf("analyze-%s-%d", sh.spec, i), kind: "analyze", spec: sh.spec,
				want: make([]analysis.Verdict, 1)}
			scale := 1.0
			if i < sh.valid {
				scale = scales[i*len(serveShapes)+p]
			}
			if err := add(r, 0, sh, max(1, int(scale*float64(sh.base))), i >= sh.valid); err != nil {
				return err
			}
			w.reqs = append(w.reqs, r)
		}
		for b := 0; b < sh.batches; b++ {
			r := &serveReq{label: fmt.Sprintf("batch-%s-%d", sh.spec, b), kind: "batch", spec: sh.spec,
				want: make([]analysis.Verdict, sh.perBatch)}
			for i, size := range split(rng, batchScale*float64(sh.base), sh.perBatch) {
				if err := add(r, i, sh, size, i >= sh.perBatch*2/3); err != nil {
					return err
				}
			}
			w.reqs = append(w.reqs, r)
		}
	}
	w.plan = spreadPlan(rng, w.reqs, 64)
	return references(jobs)
}

// spreadPlan orders passes over the requests. Within a pass the seed
// shuffles the analyze requests and the batches separately, and the batches
// take evenly spaced slots, so two batches never fall due back to back and
// how often requests queue behind each other does not depend on the seed.
func spreadPlan(rng *rand.Rand, reqs []*serveReq, passes int) []int {
	var analyze, batches []int
	for i, r := range reqs {
		if r.kind == "batch" {
			batches = append(batches, i)
		} else {
			analyze = append(analyze, i)
		}
	}
	n, nb := len(reqs), len(batches)
	var plan []int
	for p := 0; p < passes; p++ {
		rng.Shuffle(len(analyze), func(i, j int) { analyze[i], analyze[j] = analyze[j], analyze[i] })
		rng.Shuffle(nb, func(i, j int) { batches[i], batches[j] = batches[j], batches[i] })
		a, b := 0, 0
		for slot := 0; slot < n; slot++ {
			if (slot+1)*nb/n > slot*nb/n {
				plan = append(plan, batches[b])
				b++
			} else {
				plan = append(plan, analyze[a])
				a++
			}
		}
	}
	return plan
}

// setup boots a fresh store-backed daemon and uploads every spec until the
// daemon has them compiled and durable; the daemon runs the front end and
// the indexer when a spec is uploaded. A traced run also compiles the specs
// in the benchmark first, only to time those layers under the set-up span;
// it reports no setup_s, so the untraced set-up stays boot plus upload.
func (w *serveOpen) setup(rec *recorder, parent int64) error {
	if rec != nil {
		if _, err := w.ss.compile(rec, parent); err != nil {
			return err
		}
	}
	sp := rec.begin("serve.boot", parent, -1)
	store, err := serve.OpenStore(filepath.Join(w.dir, "store-"+strconv.Itoa(w.round)))
	if err != nil {
		return err
	}
	w.round++
	w.store = store
	w.srv = serve.New(serve.Options{Workers: serveWorkers, Store: store, Metrics: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.spans(w.srv.Handler())}
	go w.hs.Serve(ln)
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	if err := w.srv.AwaitReady(context.Background()); err != nil {
		return err
	}
	rec.end(sp)

	w.digests = map[string]string{}
	for _, name := range w.ss.names {
		sp := rec.begin("serve.upload", parent, -1)
		body, _ := json.Marshal(map[string]string{"spec": w.ss.src[name], "spec_name": name + ".estelle"})
		var resp struct {
			SpecDigest string `json:"spec_digest"`
		}
		if err := w.post("/v1/specs", body, &resp, nil); err != nil {
			return fmt.Errorf("upload %s: %w", name, err)
		}
		rec.end(sp)
		w.digests[name] = resp.SpecDigest
	}
	return nil
}

// teardown stops the daemon of the previous set-up round. It is best
// effort: every request has already been answered, and the store directory
// is discarded with the run's scratch files.
func (w *serveOpen) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx)
	w.srv.BeginDrain()
	_ = w.srv.AwaitIdle(ctx)
	_ = w.store.Close()
	w.client.CloseIdleConnections()
	w.srv = nil
}

func (w *serveOpen) close() { w.teardown() }

// spans wraps the daemon's handler so a traced run records one span per
// request, parented to the client span named in the request headers.
func (w *serveOpen) spans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := w.tracer.Load()
		if rec == nil {
			h.ServeHTTP(rw, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Span"), 10, 64)
		op, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Op"), 10, 64)
		sp := rec.begin("serve.Handler", parent, op)
		h.ServeHTTP(rw, r)
		rec.end(sp)
	})
}

// post sends one JSON request and decodes the 200 answer into out. It runs
// under the clientLabel profiler label, which the connection goroutines the
// transport starts from here inherit.
func (w *serveOpen) post(path string, body []byte, out any, hdr http.Header) (err error) {
	pprof.Do(context.Background(), pprof.Labels(clientLabel, "client"), func(ctx context.Context) {
		err = w.do(ctx, path, body, out, hdr)
	})
	return err
}

func (w *serveOpen) do(ctx context.Context, path string, body []byte, out any, hdr http.Header) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// buildBodies renders the request bodies once the digests are known. A
// batch body gets its batch id prepended per request: a repeated id would be
// answered from the stored report without analysis. (Marshaling strings
// cannot fail, here or in setup.)
func (w *serveOpen) buildBodies() {
	for _, r := range w.reqs {
		digest := w.digests[r.spec]
		if r.kind == "analyze" {
			r.body, _ = json.Marshal(map[string]string{"spec_digest": digest, "order": "FULL", "trace": r.traces[0]})
			continue
		}
		type item struct {
			Name  string `json:"name"`
			Trace string `json:"trace"`
		}
		items := make([]item, len(r.traces))
		for i, t := range r.traces {
			items[i] = item{fmt.Sprintf("%s-%d", r.label, i), t}
		}
		rest, _ := json.Marshal(struct {
			Digest string `json:"spec_digest"`
			Order  string `json:"order"`
			Traces []item `json:"traces"`
		}{digest, "FULL", items})
		r.body = rest[1:] // after the opening brace; the id goes in front
	}
}

// serveResp holds the response fields the benchmark checks or reports.
type serveResp struct {
	Verdict    string           `json:"verdict"`
	Degraded   bool             `json:"degraded"`
	SpecCached bool             `json:"spec_cached"`
	Stop       *json.RawMessage `json:"stop"`
	Search     obs.SearchStats  `json:"search"`
	BatchID    string           `json:"batch_id"`
	Items      []obs.BatchItem  `json:"items"`
	ElapsedUS  int64            `json:"elapsed_us"`
}

// outcome is one request's result.
type outcome struct {
	ok         bool
	err        error
	resp       serveResp
	sent, done time.Time
}

func (w *serveOpen) send(r *serveReq, rec *recorder, op int64) outcome {
	path, body := "/v1/analyze", r.body
	var id string
	if r.kind == "batch" {
		path = "/v1/batch"
		id = fmt.Sprintf("pb-%d-%d", w.seed, w.batchSeq.Add(1))
		body = append([]byte(`{"batch_id":"`+id+`",`), r.body...)
	}
	root := rec.begin("serve.request", 0, op)
	hdr := http.Header{}
	if rec != nil {
		hdr.Set("X-Perfbench-Span", strconv.FormatInt(root.id, 10))
		hdr.Set("X-Perfbench-Op", strconv.FormatInt(op, 10))
	}
	o := outcome{sent: time.Now()}
	o.err = w.post(path, body, &o.resp, hdr)
	o.done = time.Now()
	rec.end(root)
	if o.err != nil {
		return o
	}
	o.ok = w.check(r, &o.resp, id)
	return o
}

// check compares an answer with the references and, after the warm-up, with
// the recorded counters. Degraded or stopped answers count as failures.
func (w *serveOpen) check(r *serveReq, resp *serveResp, id string) bool {
	if resp.Degraded || resp.Stop != nil {
		return false
	}
	if r.kind == "analyze" {
		return resp.Verdict == r.want[0].String() && (r.stats == nil || countsOf(resp.Search) == r.stats[0])
	}
	if resp.BatchID != id || len(resp.Items) != len(r.want) {
		return false
	}
	for i, it := range resp.Items {
		if it.Verdict != r.want[i].String() || it.Skipped || it.StopReason != "" || it.Error != "" {
			return false
		}
		if r.stats != nil && countsOf(it.Search) != r.stats[i] {
			return false
		}
	}
	return true
}

func (w *serveOpen) warmup() error {
	w.buildBodies()
	for _, r := range w.reqs {
		o := w.send(r, nil, 0)
		if o.err != nil {
			return fmt.Errorf("%s: %w", r.label, o.err)
		}
		if !o.ok {
			return fmt.Errorf("%s: answer differs from its reference", r.label)
		}
		if r.kind == "analyze" {
			r.stats = []counts{countsOf(o.resp.Search)}
		} else {
			r.stats = make([]counts, len(o.resp.Items))
			for i, it := range o.resp.Items {
				r.stats[i] = countsOf(it.Search)
			}
		}
	}
	return nil
}

// measure runs the open loop for d: request k is due at start + k/rate; a
// dispatcher releases it then, and whichever of the client connections is
// free sends it. Latency runs from the due time, so a stall also delays
// every request queued behind it.
func (w *serveOpen) measure(d time.Duration, rec *recorder) (*phase, error) {
	w.tracer.Store(rec)
	defer w.tracer.Store(nil)
	n := max(1, int(w.rate*d.Seconds()))
	due := make([]time.Time, n)
	lag := make([]float64, n)
	outs := make([]outcome, n)
	ready := make(chan int, n) // sized to the number of sends: the dispatcher never blocks
	before := w.srv.Metrics().Snapshot()

	ph := &phase{}
	runtime.GC()
	alloc0, _ := heapReading()
	var (
		wg     sync.WaitGroup
		liveMu sync.Mutex
	)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ready {
				outs[k] = w.send(w.reqs[w.plan[k%len(w.plan)]], rec, int64(k))
				_, live := heapReading()
				liveMu.Lock()
				ph.live = append(ph.live, float64(live))
				liveMu.Unlock()
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	for k := 0; k < n; k++ {
		due[k] = start.Add(time.Duration(float64(k) / w.rate * float64(time.Second)))
		time.Sleep(time.Until(due[k]))
		lag[k] = ms(time.Since(due[k]))
		ready <- k
	}
	close(ready)
	wg.Wait()
	alloc1, _ := heapReading()
	ph.allocBytes = alloc1 - alloc0

	var last time.Time
	for k, o := range outs {
		ph.ops++
		if !o.ok {
			ph.failed++
			ph.noteErr(o.err)
		}
		ph.lat = append(ph.lat, ms(o.done.Sub(due[k])))
		ph.labels = append(ph.labels, w.reqs[w.plan[k%len(w.plan)]].label)
		if o.done.After(last) {
			last = o.done
		}
	}
	ph.wall = last.Sub(start)
	if p90 := ph.p(0.9); p90 > serveP90LimitMS {
		fmt.Fprintf(os.Stderr, "perfbench: serve-open p90 %.1f ms exceeds the %.0f ms limit: %.1f requests/s is beyond this host's capacity\n",
			p90, serveP90LimitMS, w.rate)
	}
	if rec != nil {
		w.fold(ph, rec, outs, due, lag, before)
	}
	return ph, nil
}

// fold turns a traced phase's outcomes into the serve and search layer
// accumulators, and times trace.Read over each request's traces after the
// phase so it does not perturb the open loop.
func (w *serveOpen) fold(ph *phase, rec *recorder, outs []outcome, due []time.Time, lag []float64, before map[string]any) {
	a := &ph.acc
	a.serve = &serveAcc{lag: lag, before: before, after: w.srv.Metrics().Snapshot()}
	s := a.serve
	for k, o := range outs {
		if o.err != nil {
			continue
		}
		r := w.reqs[w.plan[k%len(w.plan)]]
		lat := ms(o.done.Sub(due[k]))
		service := float64(o.resp.ElapsedUS) / 1e3
		s.service = append(s.service, service)
		s.overhead = append(s.overhead, ms(o.done.Sub(o.sent))-service)
		if r.kind == "analyze" {
			s.analyze = append(s.analyze, lat)
			s.analyzeN++
			if o.resp.SpecCached {
				s.cacheHits++
			}
			a.addSearch(r.spec, o.resp.Search, searchNS(o.resp.Search), -1)
			continue
		}
		s.batch = append(s.batch, lat)
		var rows int64
		for _, it := range o.resp.Items {
			rows += it.WallUS
			a.addSearch(r.spec, it.Search, searchNS(it.Search), -1)
		}
		s.journal = append(s.journal, float64(o.resp.ElapsedUS-rows)/1e3)
	}
	for k := range outs {
		r := w.reqs[w.plan[k%len(w.plan)]]
		for _, t := range r.traces {
			sp := rec.begin("trace.Read", 0, int64(k))
			_, _ = trace.ReadString(t) // generated text; it parsed when generated
			rec.end(sp)
		}
	}
}

// searchNS recovers the search time from a reported TE count and rate.
func searchNS(s obs.SearchStats) float64 { return ratio(float64(s.TE), s.TransPerSec) * 1e9 }

// serveAcc holds what only the serve workload observes.
type serveAcc struct {
	service, overhead, analyze, batch, journal, lag []float64
	cacheHits, analyzeN                             int
	before, after                                   map[string]any
}

// delta returns how much a registry counter or histogram field grew.
func (s *serveAcc) delta(name, field string) float64 {
	get := func(snap map[string]any) float64 {
		switch v := snap[name].(type) {
		case int64:
			return float64(v)
		case map[string]any:
			if x, ok := v[field].(int64); ok {
				return float64(x)
			}
		}
		return 0
	}
	return get(s.after) - get(s.before)
}

func (w *serveOpen) layers(ph *phase, rec *recorder, m metrics) {
	searchLayers(ph, rec, m)
	s := ph.acc.serve
	m.set("serve.service_ms_p50", median(s.service), "ms")
	m.set("serve.overhead_ms_p50", median(s.overhead), "ms")
	m.set("serve.queue_wait_ms_mean", ratio(s.delta("serve.queue_wait_us", "sum"), s.delta("serve.queue_wait_us", "count"))/1e3, "ms")
	m.set("serve.analyze_ms_p50", median(s.analyze), "ms")
	m.set("serve.batch_ms_p50", median(s.batch), "ms")
	m.set("serve.cache_hit_ratio", ratio(float64(s.cacheHits), float64(s.analyzeN)), "ratio")
	m.set("serve.shed_429", s.delta("serve.shed_429", ""), "count")
	m.set("serve.degraded", s.delta("serve.degraded", ""), "count")
	m.set("serve.generator_lag_ms_p90", quantile(s.lag, 0.9), "ms")
	m.set("serve.latency_p99_ms", ph.p(0.99), "ms")
	m.set("serve.boot_ms", median(rec.named("serve.boot", true)), "ms")
	m.set("serve.upload_ms_p50", median(rec.named("serve.upload", true)), "ms")
	m.set("serve.journal_ms_p50", median(s.journal), "ms")
}

func (w *serveOpen) facts() map[string]any {
	kinds := map[string]int{}
	for _, r := range w.reqs {
		kinds[r.kind]++
	}
	return map[string]any{
		"rate_per_s": w.rate, "connections": serveConns, "workers": serveWorkers,
		"p90_limit_ms": serveP90LimitMS, "distinct_requests": kinds, "order": "FULL", "store": true,
	}
}
