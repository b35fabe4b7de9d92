package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/efsm"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

func testContext(t testing.TB, d time.Duration) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), d)
}

func testCtx(t testing.TB) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// newTestServer builds a Server and an httptest front for it.
func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// echoTraces renders one valid and one invalid echo trace as text.
func echoTraces(t testing.TB) (valid, invalid string) {
	t.Helper()
	spec, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.EchoTrace(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := trace.Drop(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Format(tr), trace.Format(drop)
}

// postJSON posts body and decodes the JSON answer into a generic map.
func postJSON(t testing.TB, url string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("status %d: not JSON: %v\n%s", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, m, resp.Header
}

func TestSpecsUploadAndAnalyzeByDigest(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	valid, invalid := echoTraces(t)

	code, m, _ := postJSON(t, ts.URL+"/v1/specs", map[string]any{"spec": specs.Echo, "spec_name": "echo"})
	if code != http.StatusOK {
		t.Fatalf("specs upload: status %d: %v", code, m)
	}
	digest, _ := m["spec_digest"].(string)
	if !strings.HasPrefix(digest, "sha256:") {
		t.Fatalf("bad digest %q", digest)
	}
	if want := SpecDigest(specs.Echo); digest != want {
		t.Fatalf("digest %q, want %q", digest, want)
	}

	code, m, _ = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"spec_digest": digest, "trace": valid})
	if code != http.StatusOK {
		t.Fatalf("analyze: status %d: %v", code, m)
	}
	if m["verdict"] != "valid" || m["exit_class"] != float64(0) {
		t.Fatalf("verdict %v class %v, want valid/0", m["verdict"], m["exit_class"])
	}
	if m["spec_cached"] != true {
		t.Fatalf("by-digest analyze should report spec_cached: %v", m)
	}
	if m["schema"] != Schema {
		t.Fatalf("schema %v, want %v", m["schema"], Schema)
	}
	if v, _ := m["tango_version"].(string); v == "" {
		t.Fatal("response carries no tango_version")
	}

	code, m, _ = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"spec_digest": digest, "trace": invalid})
	if code != http.StatusOK {
		t.Fatalf("analyze invalid: status %d: %v", code, m)
	}
	if m["verdict"] != "invalid" || m["exit_class"] != float64(2) {
		t.Fatalf("verdict %v class %v, want invalid/2", m["verdict"], m["exit_class"])
	}
}

func TestInlineSpecCompilesOnce(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	valid, _ := echoTraces(t)
	req := map[string]any{"spec": specs.Echo, "trace": valid}
	for i := 0; i < 3; i++ {
		code, m, _ := postJSON(t, ts.URL+"/v1/analyze", req)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %v", i, code, m)
		}
		if wantCached := i > 0; m["spec_cached"] == true != wantCached {
			t.Fatalf("request %d: spec_cached %v", i, m["spec_cached"])
		}
	}
	if got := s.cache.compiles.Load(); got != 1 {
		t.Fatalf("compiles = %d, want 1", got)
	}
}

func TestBadInputs(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 2048})
	valid, _ := echoTraces(t)
	cases := []struct {
		name string
		body any
		code string
	}{
		{"no spec", map[string]any{"trace": valid}, CodeBadRequest},
		{"bad spec", map[string]any{"spec": "specification bogus; nonsense", "trace": valid}, CodeBadSpec},
		{"bad trace", map[string]any{"spec": specs.Echo, "trace": "not a trace line"}, CodeBadTrace},
		{"unknown digest", map[string]any{"spec_digest": "sha256:deadbeef", "trace": valid}, CodeUnknownSpec},
		{"bad order", map[string]any{"spec": specs.Echo, "trace": valid, "order": "SIDEWAYS"}, CodeBadRequest},
		{"oversized", map[string]any{"spec": specs.Echo, "trace": strings.Repeat("x", 4096)}, CodeBadRequest},
	}
	for _, tc := range cases {
		code, m, _ := postJSON(t, ts.URL+"/v1/analyze", tc.body)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422 (%v)", tc.name, code, m)
			continue
		}
		if m["code"] != tc.code {
			t.Errorf("%s: code %v, want %v", tc.name, m["code"], tc.code)
		}
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("malformed JSON: status %d, want 422", resp.StatusCode)
	}
}

// TestSaturationSheds429 fills the one worker and the one queue slot with
// requests blocked inside the analysis (via the FaultHook seam), then checks
// the next request is shed synchronously with 429 + Retry-After.
func TestSaturationSheds429(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	s, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 2 * time.Second,
		FaultHook: func(string) {
			entered <- struct{}{}
			<-hold
		},
	})
	valid, _ := echoTraces(t)
	req := map[string]any{"spec": specs.Echo, "trace": valid}

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, _ := postJSON(t, ts.URL+"/v1/analyze", req)
			codes <- code
		}()
	}
	// Wait until the first request is inside its analysis (holding the
	// worker) and the second is parked in the queue. Probing earlier could
	// let the probe take the queue slot and wait for a worker forever.
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.queued() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		code, m, hdr := postJSON(t, ts.URL+"/v1/analyze", req)
		if code == http.StatusTooManyRequests {
			if m["code"] != CodeSaturated {
				t.Fatalf("code %v, want %v", m["code"], CodeSaturated)
			}
			// The hint is jittered deterministically into [base, 2*base].
			if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 2 || ra > 4 {
				t.Fatalf("Retry-After %q, want 2..4", hdr.Get("Retry-After"))
			}
			break
		}
		// The queued request may not have parked yet; retry briefly.
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429 (last status %d %v)", code, m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(hold)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("held request finished with %d, want 200", code)
		}
	}
}

// TestBudgetPartialDeterministic checks the degradation contract: a request
// whose budget cannot cover the search returns the same deterministic partial
// verdict every time.
func TestBudgetPartialDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	valid, _ := echoTraces(t)
	req := map[string]any{"spec": specs.Echo, "trace": valid, "budget": 3}
	var first map[string]any
	for i := 0; i < 3; i++ {
		code, m, _ := postJSON(t, ts.URL+"/v1/analyze", req)
		if code != http.StatusOK {
			t.Fatalf("run %d: status %d: %v", i, code, m)
		}
		if m["exit_class"] != float64(3) {
			t.Fatalf("run %d: exit_class %v, want 3 (inconclusive)", i, m["exit_class"])
		}
		stop, _ := m["stop"].(map[string]any)
		if stop == nil || stop["reason"] != "budget" {
			t.Fatalf("run %d: stop %v, want reason budget", i, m["stop"])
		}
		if m["budget"] != float64(3) {
			t.Fatalf("run %d: effective budget %v, want 3", i, m["budget"])
		}
		if first == nil {
			first = m
			continue
		}
		for _, k := range []string{"verdict", "exit_class", "stop"} {
			a, _ := json.Marshal(first[k])
			b, _ := json.Marshal(m[k])
			if !bytes.Equal(a, b) {
				t.Fatalf("run %d: %s diverged: %s vs %s", i, k, a, b)
			}
		}
	}
}

// TestDegradedClamp checks limits.resolve: under queue pressure the budget
// and deadline shrink deterministically and the response says so.
func TestDegradedClamp(t *testing.T) {
	l := Limits{}.withDefaults(8)
	r := l.resolve(0, 0, 0)
	if r.Degraded || r.Budget != l.DefaultBudget || r.Deadline != l.DefaultDeadline {
		t.Fatalf("idle resolve degraded: %+v", r)
	}
	r = l.resolve(30*time.Second, 1_000_000, l.DegradeAt)
	if !r.Degraded || r.Budget != l.DegradedBudget || r.Deadline != l.DegradedDeadline {
		t.Fatalf("loaded resolve not clamped: %+v (policy %+v)", r, l)
	}
	// Requests cannot exceed the caps even when idle.
	r = l.resolve(10*time.Minute, 1<<40, 0)
	if r.Deadline != l.MaxDeadline || r.Budget != l.MaxBudget {
		t.Fatalf("caps not applied: %+v", r)
	}
	// A request smaller than the degraded clamp keeps its own limits.
	r = l.resolve(time.Millisecond, 7, l.DegradeAt)
	if r.Budget != 7 || r.Deadline != time.Millisecond {
		t.Fatalf("small request grew under degradation: %+v", r)
	}
}

// TestQuarantineBreaker injects panics into every analysis of one spec and
// checks containment (500 per request, daemon alive) and the breaker (503
// once the threshold is hit), with a healthy spec unaffected throughout.
func TestQuarantineBreaker(t *testing.T) {
	poison := SpecDigest(specs.TP0)
	s, ts := newTestServer(t, Options{
		BreakerPanics: 2,
		FaultHook: func(digest string) {
			if digest == poison {
				panic("injected fault")
			}
		},
	})
	valid, _ := echoTraces(t)

	poisonReq := map[string]any{"spec": specs.TP0, "trace": valid}
	for i := 0; i < 2; i++ {
		code, m, _ := postJSON(t, ts.URL+"/v1/analyze", poisonReq)
		if code != http.StatusInternalServerError || m["code"] != CodePanic {
			t.Fatalf("poison run %d: status %d code %v, want 500/panic", i, code, m["code"])
		}
	}
	code, m, _ := postJSON(t, ts.URL+"/v1/analyze", poisonReq)
	if code != http.StatusServiceUnavailable || m["code"] != CodeQuarantined {
		t.Fatalf("post-breaker: status %d code %v, want 503/quarantined", code, m["code"])
	}

	// The healthy spec still serves, and the daemon never died.
	code, m, _ = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"spec": specs.Echo, "trace": valid})
	if code != http.StatusOK || m["verdict"] != "valid" {
		t.Fatalf("healthy spec after quarantine: status %d %v", code, m)
	}
	if got := s.Metrics().Counter("serve.panics").Value(); got != 2 {
		t.Fatalf("serve.panics = %d, want 2", got)
	}
	if got := s.Metrics().Counter("serve.quarantined_specs").Value(); got != 1 {
		t.Fatalf("serve.quarantined_specs = %d, want 1", got)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	valid, invalid := echoTraces(t)
	code, m, _ := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"spec": specs.Echo,
		"traces": []map[string]any{
			{"name": "ok-1", "trace": valid, "expect": "valid"},
			{"name": "ok-2", "trace": valid},
			{"name": "bad", "trace": invalid, "expect": "valid"},
			{"name": "mangled", "trace": "?? not a trace"},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %v", code, m)
	}
	counts, _ := m["counts"].(map[string]any)
	if counts["valid"] != float64(2) || counts["invalid"] != float64(1) ||
		counts["bad_trace"] != float64(1) || counts["mismatches"] != float64(1) {
		t.Fatalf("counts %v, want 2 valid / 1 invalid / 1 bad_trace / 1 mismatch", counts)
	}
	if m["exit_class"] != float64(4) {
		t.Fatalf("exit_class %v, want 4 (bad trace outranks invalid)", m["exit_class"])
	}
	items, _ := m["items"].([]any)
	if len(items) != 4 {
		t.Fatalf("%d items, want 4", len(items))
	}
	first, _ := items[0].(map[string]any)
	if first["trace"] != "ok-1" || first["verdict"] != "valid" {
		t.Fatalf("first row %v", first)
	}
}

// TestBatchAggregatesLikeTangoBatch: /v1/batch aggregates its rows with the
// rules of `tango batch`, where a checked expectation replaces the raw class,
// so a conformance batch answers the exit class the CLI would exit with. The
// plain and the supervised batch engines must agree on the same rows.
func TestBatchAggregatesLikeTangoBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	valid, invalid := echoTraces(t)
	for _, tc := range []struct {
		name       string
		trace      string
		exit       int
		mismatches int
	}{
		{"invalid trace expected invalid", invalid, batch.ClassOK, 0},
		{"valid trace expected invalid", valid, batch.ClassInvalid, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := mustJSON(t, map[string]any{"spec": specs.Echo, "order": "FULL",
				"traces": []map[string]any{{"name": "t", "trace": tc.trace, "expect": "invalid"}}})
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got batchResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if got.ExitClass != tc.exit || got.Counts.Mismatches != tc.mismatches {
				t.Fatalf("exit_class %d, mismatches %d; want %d and %d", got.ExitClass, got.Counts.Mismatches, tc.exit, tc.mismatches)
			}

			tr, err := trace.ReadString(tc.trace)
			if err != nil {
				t.Fatal(err)
			}
			items := []batch.Item{{Name: "t", Trace: tr, Expect: batch.ExpectInvalid}}
			pool := batch.Options{Workers: 1, Analysis: analysis.Options{Order: analysis.OrderFull}}
			plain, err := batch.Run(context.Background(), spec, items, pool)
			if err != nil {
				t.Fatal(err)
			}
			supervised := pool
			supervised.MaxAttempts, supervised.BreakerKills = 3, 3
			sup, err := batch.Run(context.Background(), spec, items, supervised)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Counts != got.Counts || sup.Counts != got.Counts ||
				plain.ExitCode != got.ExitClass || sup.ExitCode != got.ExitClass {
				t.Fatalf("serve %+v exit %d, batch %+v exit %d, supervised %+v exit %d",
					got.Counts, got.ExitClass, plain.Counts, plain.ExitCode, sup.Counts, sup.ExitCode)
			}
		})
	}
}

func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBatchItems: 2})
	valid, _ := echoTraces(t)
	code, m, _ := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"spec": specs.Echo,
		"traces": []map[string]any{
			{"trace": valid}, {"trace": valid}, {"trace": valid},
		},
	})
	if code != http.StatusUnprocessableEntity || m["code"] != CodeBadRequest {
		t.Fatalf("oversized batch: status %d %v, want 422/bad_request", code, m)
	}
	code, m, _ = postJSON(t, ts.URL+"/v1/batch", map[string]any{"spec": specs.Echo})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("empty batch: status %d %v", code, m)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, h)
	}
	if v, _ := h["tango_version"].(string); v == "" {
		t.Fatal("healthz carries no tango_version")
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = nil
	_ = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h["status"] != "draining" {
		t.Fatalf("draining healthz: %d %v", resp.StatusCode, h)
	}

	valid, _ := echoTraces(t)
	code, m, _ := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"spec": specs.Echo, "trace": valid})
	if code != http.StatusServiceUnavailable || m["code"] != CodeDraining {
		t.Fatalf("draining analyze: %d %v, want 503/draining", code, m)
	}

	ctx, cancel := testContext(t, 5*time.Second)
	defer cancel()
	if err := s.AwaitIdle(ctx); err != nil {
		t.Fatalf("AwaitIdle: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	valid, _ := echoTraces(t)
	if code, m, _ := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"spec": specs.Echo, "trace": valid}); code != 200 {
		t.Fatalf("analyze: %d %v", code, m)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"serve.requests", "serve.completed", "serve.spec_compiles"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("metrics snapshot lacks %s: %v", k, snap)
		}
	}
	// Per-spec counter for the echo spec.
	short := strings.TrimPrefix(SpecDigest(specs.Echo), "sha256:")[:12]
	if _, ok := snap["serve.spec."+short+".requests"]; !ok {
		t.Fatalf("metrics snapshot lacks per-spec counter: %v", snap)
	}
	// Per-tenant admission accounting (default tenant).
	if _, ok := snap["serve.tenant.default.admitted"]; !ok {
		t.Fatalf("metrics snapshot lacks per-tenant admission counter: %v", snap)
	}
}

func TestSpecCacheEviction(t *testing.T) {
	c := newSpecCache(2)
	mkSpec := func(i int) string {
		return specs.Echo + fmt.Sprintf("\n{ variant %d }\n", i)
	}
	var entries []*specEntry
	for i := 0; i < 3; i++ {
		e, cached := c.get(fmt.Sprintf("s%d", i), mkSpec(i))
		if cached {
			t.Fatalf("spec %d unexpectedly cached", i)
		}
		if _, err := c.wait(testCtx(t), e); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		entries = append(entries, e)
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
	if c.lookup(entries[0].digest) != nil {
		t.Fatal("oldest entry survived eviction")
	}
	if c.lookup(entries[2].digest) == nil {
		t.Fatal("newest entry evicted")
	}
	if c.evictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions.Load())
	}
}
