package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/specs"
)

// getBody fetches one URL and returns status + raw body.
func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// tornTail appends a frame whose length prefix promises more bytes than
// follow — the exact artifact of a SIGKILL mid-append.
func tornTail(t testing.TB, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{100, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayAndCompact pins the work journal's on-disk format:
// testdata/premerge-work.ckpt was written by the daemon code that predates
// the move of the work journal onto checkpoint.BatchLog. It holds three
// batches, with a duplicate row, a duplicate admission, a duplicate stop,
// records for an unknown batch and undecodable payloads. A successor must
// replay it under the first-wins rules, tolerate a torn tail, and compact it
// down to the unfinished batches — past a stale temp file of a compaction
// that died. A missing journal is no journal, not a store error.
func TestJournalReplayAndCompact(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "premerge-work.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), WorkJournalFile)
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	tornTail(t, path)

	plan, err := checkpoint.ReplayBatchLog[workBatchRec](path)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Truncated {
		t.Fatal("torn tail not reported")
	}
	ids := func(bs []*checkpoint.LoggedBatch[workBatchRec]) string {
		var out []string
		for _, b := range bs {
			out = append(out, b.Admission.ID)
		}
		return strings.Join(out, ",")
	}
	if got := ids(plan.Batches); got != "b1,b2,b3" {
		t.Fatalf("batches %s, want b1,b2,b3", got)
	}
	b1, b2, b3 := plan.Batches[0], plan.Batches[1], plan.Batches[2]
	wantB2 := workBatchRec{ID: "b2", Tenant: "gold", SpecDigest: "sha256:y", Order: "IO",
		UnobservedIPs: []string{"U"}, Memo: true, Budget: 20, DeadlineMS: 2000, Degraded: true,
		Traces: []batchTrace{{Name: "t0", Trace: "in U A\n", Expect: "valid"}, {Name: "t1", Trace: "in U B\n"}, {Name: "t2", Trace: "?? bad"}}}
	if !reflect.DeepEqual(b2.Admission, wantB2) {
		t.Fatalf("b2 admission (first wins):\n got %+v\nwant %+v", b2.Admission, wantB2)
	}
	if !b1.Done || b2.Done || b3.Done {
		t.Fatalf("done flags: b1=%v b2=%v b3=%v", b1.Done, b2.Done, b3.Done)
	}
	if b1.StopAt != -1 || b2.StopAt != 0 || b3.StopAt != -1 {
		t.Fatalf("stops: b1=%d b2=%d b3=%d, want -1, 0 (first wins), -1", b1.StopAt, b2.StopAt, b3.StopAt)
	}
	mismatch := false
	wantRow := obs.BatchItem{Trace: "t0", Verdict: "invalid", ExitClass: 2, Expect: "valid", Match: &mismatch,
		Quarantined: true, Search: obs.SearchStats{TE: 11, GE: 4, Nodes: 12}, Flight: []string{"step 1", "step 2"}}
	if len(b2.Rows) != 1 || !reflect.DeepEqual(b2.Rows[0], wantRow) {
		t.Fatalf("b2 rows (first wins, Match=&false kept): %+v", b2.Rows)
	}
	if len(b1.Rows) != 2 || b1.Rows[0].Search.TE != 5 || b1.Rows[1].Trace != "b" {
		t.Fatalf("b1 rows %+v", b1.Rows)
	}
	if len(b3.Rows) != 1 || b3.Rows[1].Error != "line 1: malformed event" {
		t.Fatalf("b3 rows (undecodable ones skipped): %+v", b3.Rows)
	}
	if got := ids(plan.Unfinished()); got != "b2,b3" {
		t.Fatalf("unfinished %s, want b2,b3", got)
	}

	// Compaction drops the finished batch entirely and survives a re-replay.
	if err := os.WriteFile(path+".compacting", []byte("garbage from a dead compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := checkpoint.CompactBatchLog(path, plan.Unfinished())
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := checkpoint.ReplayBatchLog[workBatchRec](path)
	if err != nil {
		t.Fatal(err)
	}
	if again.Truncated || ids(again.Batches) != "b2,b3" {
		t.Fatalf("after compact: truncated=%v batches %s", again.Truncated, ids(again.Batches))
	}
	if !reflect.DeepEqual(again.Batches, plan.Unfinished()) {
		t.Fatal("compaction changed the unfinished batches")
	}

	// A missing journal is an empty plan, not a store fault: replay reports
	// os.ErrNotExist, and a daemon booting on a new store counts no error.
	if _, err := checkpoint.ReplayBatchLog[workBatchRec](path + ".does-not-exist"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing journal: err = %v, want os.ErrNotExist", err)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, _ := newTestServer(t, Options{Store: st})
	if err := s.AwaitReady(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if n := s.reg.Counter("serve.store_errors").Value(); n != 0 {
		t.Fatalf("boot on a new store counted %d store errors, want 0", n)
	}
}

func TestDeriveBatchIDDeterministic(t *testing.T) {
	req := &batchRequest{Order: "FULL", Budget: 100, DeadlineMS: 5000,
		Traces: []batchTrace{{Name: "a", Trace: "x"}, {Trace: "y"}}}
	id1 := deriveBatchID("sha256:abc", req)
	id2 := deriveBatchID("sha256:abc", req)
	if id1 != id2 {
		t.Fatalf("same request, different ids: %s vs %s", id1, id2)
	}
	if !validBatchID(id1) {
		t.Fatalf("derived id %q is not a valid batch id", id1)
	}
	other := *req
	other.Traces = []batchTrace{{Name: "a", Trace: "x"}, {Trace: "z"}}
	if deriveBatchID("sha256:abc", &other) == id1 {
		t.Fatal("different traces, same id")
	}
	if deriveBatchID("sha256:other", req) == id1 {
		t.Fatal("different spec, same id")
	}
	// A different *requested* budget is a different logical batch...
	asked := *req
	asked.Budget = 200
	if deriveBatchID("sha256:abc", &asked) == id1 {
		t.Fatal("different requested budget, same id")
	}
	// ...but the ID is a pure function of the request: resolved limits (which
	// shift with instantaneous load via the degradation clamp) never factor
	// in, so a blind retry under different load hits the same stored report.
}

// TestHandoffByteIdenticalReport is the handoff acceptance test in-process: a
// predecessor daemon is "SIGKILLed" mid-batch (simulated by fabricating its
// store: the spec, the admission record, the first rows, and a torn journal
// tail), a successor boots on the store, finishes the tail during replay, and
// the stored merged report is byte-identical to an uninterrupted run's.
func TestHandoffByteIdenticalReport(t *testing.T) {
	valid, invalid := echoTraces(t)
	traces := []batchTrace{
		{Name: "ok-1", Trace: valid, Expect: "valid"},
		{Name: "bad-1", Trace: invalid, Expect: "valid"},
		{Name: "ok-2", Trace: valid},
		{Name: "mangled", Trace: "?? not a trace"},
		{Name: "ok-3", Trace: valid, Expect: "valid"},
	}
	wire := make([]map[string]any, len(traces))
	for i, bt := range traces {
		wire[i] = map[string]any{"name": bt.Name, "trace": bt.Trace, "expect": bt.Expect}
	}

	// Reference: one daemon runs the batch start to finish.
	stRef, _ := OpenStore(t.TempDir())
	sRef, tsRef := newTestServer(t, Options{Store: stRef})
	if err := sRef.AwaitReady(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	code, m, _ := postJSON(t, tsRef.URL+"/v1/batch", map[string]any{
		"spec": specs.Echo, "batch_id": "handoff-case", "budget": 10000, "deadline_ms": 5000,
		"traces": wire,
	})
	if code != http.StatusOK {
		t.Fatalf("reference batch: %d %v", code, m)
	}
	code, refBytes := getBody(t, tsRef.URL+"/v1/batches/handoff-case")
	if code != http.StatusOK {
		t.Fatalf("reference report: %d %s", code, refBytes)
	}
	var ref batchResponse
	if err := json.Unmarshal(refBytes, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.ElapsedUS != 0 {
		t.Fatalf("stored report not normalized: elapsed_us=%d", ref.ElapsedUS)
	}

	// Crash scene: a second store holding the spec, the batch admission record
	// with the *resolved* limits, the first two finished rows, and a torn
	// journal tail from the fatal append.
	dir := t.TempDir()
	stC, _ := OpenStore(dir)
	if err := stC.PutSpec("echo", specs.Echo); err != nil {
		t.Fatal(err)
	}
	j, err := checkpoint.CreateBatchLog(stC.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	rec := workBatchRec{
		ID: "handoff-case", Tenant: "default", SpecDigest: ref.SpecDigest,
		Budget: ref.Budget, DeadlineMS: ref.DeadlineMS, Degraded: ref.Degraded,
		Traces: traces,
	}
	if err := j.Admit(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Row(rec.ID, i, ref.Items[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	tornTail(t, stC.JournalPath())

	// Successor generation: boots, replays, finishes the tail before ready.
	sC, tsC := newTestServer(t, Options{Store: stC})
	if err := sC.AwaitReady(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if got := sC.reg.Counter("serve.recovered_batches").Value(); got != 1 {
		t.Fatalf("recovered_batches = %d, want 1", got)
	}
	code, recBytes := getBody(t, tsC.URL+"/v1/batches/handoff-case")
	if code != http.StatusOK {
		t.Fatalf("recovered report: %d %s", code, recBytes)
	}
	if !bytes.Equal(refBytes, recBytes) {
		t.Fatalf("handoff report diverged from the uninterrupted run:\n--- reference ---\n%s\n--- recovered ---\n%s",
			refBytes, recBytes)
	}

	// Re-submitting the finished batch answers the stored report verbatim
	// (idempotent retry), without re-analyzing.
	before := sC.m.completed.Value()
	resp, err := http.Post(tsC.URL+"/v1/batch", "application/json",
		bytes.NewReader(mustJSON(t, map[string]any{
			"spec": specs.Echo, "batch_id": "handoff-case", "budget": 10000, "deadline_ms": 5000,
			"traces": wire,
		})))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), refBytes) {
		t.Fatalf("idempotent retry: %d, body diverged=%v", resp.StatusCode, !bytes.Equal(buf.Bytes(), refBytes))
	}
	if sC.m.completed.Value() != before {
		t.Fatal("idempotent retry re-ran the analysis")
	}
}

// TestHandoffReproducesBreakerStop: when the panic breaker trips mid-batch,
// the uninterrupted daemon stops early (fewer rows, last row quarantined) —
// and journals that stop. A successor recovering the batch must reproduce the
// early stop instead of analyzing the remaining traces with a fresh panic
// counter, or the recovered report would be longer than the uninterrupted one
// and the byte-identical handoff contract would break.
func TestHandoffReproducesBreakerStop(t *testing.T) {
	valid, _ := echoTraces(t)
	poison := SpecDigest(specs.TP0)
	wire := []map[string]any{
		{"name": "t0", "trace": valid},
		{"name": "t1", "trace": valid},
		{"name": "t2", "trace": valid},
	}
	traces := []batchTrace{{Name: "t0", Trace: valid}, {Name: "t1", Trace: valid}, {Name: "t2", Trace: valid}}

	// Reference: every analysis of the poisoned spec panics, the breaker trips
	// on the first one, and the batch stops after a single quarantined row.
	stRef, _ := OpenStore(t.TempDir())
	sRef, tsRef := newTestServer(t, Options{Store: stRef, BreakerPanics: 1,
		FaultHook: func(digest string) {
			if digest == poison {
				panic("injected: poisoned spec")
			}
		}})
	if err := sRef.AwaitReady(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	code, m, _ := postJSON(t, tsRef.URL+"/v1/batch", map[string]any{
		"spec": specs.TP0, "batch_id": "breaker-case", "budget": 10000, "deadline_ms": 5000,
		"traces": wire,
	})
	if code != http.StatusOK {
		t.Fatalf("reference batch: %d %v", code, m)
	}
	code, refBytes := getBody(t, tsRef.URL+"/v1/batches/breaker-case")
	if code != http.StatusOK {
		t.Fatalf("reference report: %d %s", code, refBytes)
	}
	var ref batchResponse
	if err := json.Unmarshal(refBytes, &ref); err != nil {
		t.Fatal(err)
	}
	if len(ref.Items) != 1 || !ref.Items[0].Quarantined {
		t.Fatalf("reference run did not stop on the breaker: %d items, quarantined=%v",
			len(ref.Items), len(ref.Items) > 0 && ref.Items[0].Quarantined)
	}

	// Crash scene: the predecessor journaled the admission, the quarantined
	// row, and the breaker stop, then died mid-append.
	stC, _ := OpenStore(t.TempDir())
	if err := stC.PutSpec("tp0", specs.TP0); err != nil {
		t.Fatal(err)
	}
	j, err := checkpoint.CreateBatchLog(stC.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	rec := workBatchRec{
		ID: "breaker-case", Tenant: "default", SpecDigest: ref.SpecDigest,
		Budget: ref.Budget, DeadlineMS: ref.DeadlineMS, Degraded: ref.Degraded,
		Traces: traces,
	}
	if err := j.Admit(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Row(rec.ID, 0, ref.Items[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Stop(rec.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	tornTail(t, stC.JournalPath())

	// Successor: no fault hook, fresh panic counters — if it ignored the stop
	// record it would happily analyze t1 and t2 and diverge.
	sC, tsC := newTestServer(t, Options{Store: stC})
	if err := sC.AwaitReady(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if got := sC.reg.Counter("serve.recovered_batches").Value(); got != 1 {
		t.Fatalf("recovered_batches = %d, want 1", got)
	}
	code, recBytes := getBody(t, tsC.URL+"/v1/batches/breaker-case")
	if code != http.StatusOK {
		t.Fatalf("recovered report: %d %s", code, recBytes)
	}
	if !bytes.Equal(refBytes, recBytes) {
		t.Fatalf("breaker-stopped handoff diverged from the uninterrupted run:\n--- reference ---\n%s\n--- recovered ---\n%s",
			refBytes, recBytes)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoveryAbandonsSpeclessBatch: a journaled batch whose spec never made
// it to the store is abandoned with a done mark — boot converges instead of
// replaying a doomed batch on every restart forever.
func TestRecoveryAbandonsSpeclessBatch(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	j, err := checkpoint.CreateBatchLog(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	rec := workBatchRec{ID: "orphan", Tenant: "default",
		SpecDigest: "sha256:" + fmt.Sprintf("%064x", 0), Budget: 10, DeadlineMS: 1000,
		Traces: []batchTrace{{Trace: "x"}}}
	if err := j.Admit(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Options{Store: st})
	if err := s.AwaitReady(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if got := s.reg.Counter("serve.recover_abandoned").Value(); got != 1 {
		t.Fatalf("recover_abandoned = %d, want 1", got)
	}
	// The abandonment is durable: a third generation replays nothing.
	plan, err := checkpoint.ReplayBatchLog[workBatchRec](st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Unfinished(); len(got) != 0 {
		t.Fatalf("abandoned batch still pending after restart: %v", got)
	}
}

// TestRestartLoopChaos runs several daemon generations over one store,
// alternating clean completions with injected crash artifacts (torn journal
// tails), and checks every generation boots, keeps the accumulated specs and
// reports, and finishes a fresh batch.
func TestRestartLoopChaos(t *testing.T) {
	dir := t.TempDir()
	valid, invalid := echoTraces(t)
	var digest string
	for gen := 0; gen < 4; gen++ {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, ts := newTestServer(t, Options{Store: st})
		if err := s.AwaitReady(testCtx(t)); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if gen == 0 {
			code, m, _ := postJSON(t, ts.URL+"/v1/specs", map[string]any{"spec": specs.Echo, "spec_name": "echo"})
			if code != http.StatusOK {
				t.Fatalf("gen 0 upload: %d %v", code, m)
			}
			digest = m["spec_digest"].(string)
		}
		// Every later generation must have re-warmed the spec from disk.
		code, m, _ := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"spec_digest": digest, "trace": valid})
		if code != http.StatusOK || m["verdict"] != "valid" {
			t.Fatalf("gen %d analyze: %d %v", gen, code, m)
		}
		// One batch per generation, journaled and persisted.
		id := fmt.Sprintf("gen-%d", gen)
		code, m, _ = postJSON(t, ts.URL+"/v1/batch", map[string]any{
			"spec_digest": digest, "batch_id": id,
			"traces": []map[string]any{{"name": "v", "trace": valid}, {"name": "i", "trace": invalid}},
		})
		if code != http.StatusOK {
			t.Fatalf("gen %d batch: %d %v", gen, code, m)
		}
		// Every previous generation's report is still servable.
		for g := 0; g <= gen; g++ {
			if code, body := getBody(t, ts.URL+fmt.Sprintf("/v1/batches/gen-%d", g)); code != http.StatusOK {
				t.Fatalf("gen %d: report gen-%d lost: %d %s", gen, g, code, body)
			}
		}
		ts.Close()
		// Crash, not drain: the journal handle is abandoned mid-life and the
		// next generation finds a torn tail. The store lock alone is released
		// (the kernel drops flocks with the process; Close stands in for that).
		tornTail(t, st.JournalPath())
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
