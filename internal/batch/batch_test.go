package batch

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

func compileSpec(t testing.TB, name, src string) *efsm.Spec {
	t.Helper()
	s, err := efsm.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// echoCorpus builds an in-memory corpus over the echo spec: nValid generated
// valid traces plus structural mutants that must be invalid.
func echoCorpus(t testing.TB, spec *efsm.Spec, nValid int) []Item {
	t.Helper()
	var items []Item
	for i := 0; i < nValid; i++ {
		tr, err := workload.EchoTrace(spec, 4+i, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, Item{Name: "valid-" + string(rune('a'+i)), Trace: tr, Expect: ExpectValid})
	}
	base, err := workload.EchoTrace(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := trace.Drop(base, 1) // lose the first response
	if err != nil {
		t.Fatal(err)
	}
	corrupt, err := trace.SetParam(base, 1, "d", "99") // corrupt a response payload
	if err != nil {
		t.Fatal(err)
	}
	items = append(items,
		Item{Name: "invalid-drop", Trace: drop, Expect: ExpectInvalid},
		Item{Name: "invalid-corrupt", Trace: corrupt, Expect: ExpectInvalid},
	)
	return items
}

func TestRunOrderedResultsAndAggregate(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	items := echoCorpus(t, spec, 3)
	res, err := Run(context.Background(), spec, items, Options{Workers: 4,
		Analysis: analysis.Options{Order: analysis.OrderFull}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(items) {
		t.Fatalf("got %d results, want %d", len(res.Items), len(items))
	}
	for i, r := range res.Items {
		if r.Index != i || r.Item.Name != items[i].Name {
			t.Fatalf("result %d out of order: %+v", i, r.Item.Name)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Item.Name, r.Err)
		}
		if r.Match == nil || !*r.Match {
			t.Fatalf("%s: expectation not met (verdict %v)", r.Item.Name, r.Res.Verdict)
		}
	}
	if res.Counts.Valid != 3 || res.Counts.Invalid != 2 || res.Counts.Mismatches != 0 {
		t.Fatalf("counts: %+v", res.Counts)
	}
	// All expectations match, so the aggregate is a conformance pass even
	// though invalid traces are present.
	if res.ExitCode != ClassOK {
		t.Fatalf("exit code %d, want %d", res.ExitCode, ClassOK)
	}
}

// TestBatchMatchesSingleTracePath: the batch engine must agree verdict-for-
// verdict with the plain single-trace analyzer.
func TestBatchMatchesSingleTracePath(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	items := echoCorpus(t, spec, 2)
	opts := analysis.Options{Order: analysis.OrderFull}
	res, err := Run(context.Background(), spec, items, Options{Workers: 3, Analysis: opts})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		a, err := analysis.New(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		single, err := a.AnalyzeTrace(it.Trace)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Items[i].Res
		if got.Verdict != single.Verdict {
			t.Fatalf("%s: batch verdict %v != single verdict %v", it.Name, got.Verdict, single.Verdict)
		}
		if got.Stats.TE != single.Stats.TE || got.Stats.Nodes != single.Stats.Nodes {
			t.Fatalf("%s: batch stats TE=%d nodes=%d != single TE=%d nodes=%d",
				it.Name, got.Stats.TE, got.Stats.Nodes, single.Stats.TE, single.Stats.Nodes)
		}
	}
}

func TestExpectationMismatchRaisesExit(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	tr, err := workload.EchoTrace(spec, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	items := []Item{{Name: "lying-manifest", Trace: tr, Expect: ExpectInvalid}}
	res, err := Run(context.Background(), spec, items, Options{Workers: 1,
		Analysis: analysis.Options{Order: analysis.OrderFull}})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Items[0]
	if r.Match == nil || *r.Match {
		t.Fatalf("expected a mismatch, got %+v", r)
	}
	if res.Counts.Mismatches != 1 || res.ExitCode != ClassInvalid {
		t.Fatalf("counts=%+v exit=%d", res.Counts, res.ExitCode)
	}
}

func TestGracefulDrainOnCancelledContext(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	items := echoCorpus(t, spec, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, spec, items, Options{Workers: 2,
		Analysis: analysis.Options{Order: analysis.OrderFull}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(items) {
		t.Fatalf("drained run returned %d results, want %d", len(res.Items), len(items))
	}
	for _, r := range res.Items {
		if !r.Skipped || r.Class != ClassInconclusive {
			t.Fatalf("%s: not drained: %+v", r.Item.Name, r)
		}
		if r.Res.Stop == nil || r.Res.Stop.Reason != analysis.StopCancelled {
			t.Fatalf("%s: stop %+v", r.Item.Name, r.Res.Stop)
		}
	}
	if res.ExitCode != ClassInconclusive || res.Counts.Skipped != len(items) {
		t.Fatalf("exit=%d counts=%+v", res.ExitCode, res.Counts)
	}
}

func TestGracefulDrainOnDeadline(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	items := echoCorpus(t, spec, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	res, err := Run(ctx, spec, items, Options{Workers: 1,
		Analysis: analysis.Options{Order: analysis.OrderFull}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Items {
		if r.Res.Stop == nil || r.Res.Stop.Reason != analysis.StopDeadline {
			t.Fatalf("%s: stop %+v, want deadline", r.Item.Name, r.Res.Stop)
		}
	}
}

func TestHeartbeatsAndMetrics(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	var items []Item
	for i := 0; i < 4; i++ {
		tr, err := workload.EchoTrace(spec, 40, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, Item{Name: "t" + string(rune('0'+i)), Trace: tr})
	}
	rec := &obs.Recorder{}
	var mu sync.Mutex
	var beats []Heartbeat
	res, err := Run(context.Background(), spec, items, Options{
		Workers:        2,
		Analysis:       analysis.Options{Order: analysis.OrderFull},
		Tracer:         rec,
		HeartbeatEvery: time.Nanosecond,
		OnHeartbeat: func(hb Heartbeat) {
			mu.Lock()
			beats = append(beats, hb)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != ClassOK {
		t.Fatalf("exit %d", res.ExitCode)
	}
	completed := 0
	for _, hb := range beats {
		if hb.Completed {
			completed++
			if hb.Total != len(items) {
				t.Fatalf("beat total %d, want %d", hb.Total, len(items))
			}
		}
	}
	if completed != len(items) {
		t.Fatalf("%d completion beats, want %d", completed, len(items))
	}
	// The shared tracer saw every worker's search bracketed by start/end.
	starts := 0
	for _, ev := range rec.Events {
		if ev.Kind == obs.KindSearchStart {
			starts++
		}
	}
	if starts != len(items) {
		t.Fatalf("tracer saw %d search_start events, want %d", starts, len(items))
	}
}

func TestOptionsValidation(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	if _, err := Run(context.Background(), spec, nil, Options{}); err == nil {
		t.Fatal("empty corpus did not error")
	}
	tr, _ := workload.EchoTrace(spec, 2, 1)
	items := []Item{{Name: "x", Trace: tr}}
	bad := Options{Analysis: analysis.Options{Tracer: obs.Nop}}
	if _, err := Run(context.Background(), spec, items, bad); err == nil {
		t.Fatal("per-analysis tracer did not error")
	}
	badIP := Options{Analysis: analysis.Options{DisabledIPs: []string{"nope"}}}
	if _, err := Run(context.Background(), spec, items, badIP); err == nil {
		t.Fatal("unknown disabled IP did not error")
	}
}

func TestBadTraceAndMissingFileClasses(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	dir := t.TempDir()
	badPath := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(badPath, []byte("in S nosuchinteraction\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	items := []Item{
		{Name: "bad", Path: badPath},
		{Name: "missing", Path: filepath.Join(dir, "missing.trace")},
	}
	res, err := Run(context.Background(), spec, items, Options{Workers: 1,
		Analysis: analysis.Options{Order: analysis.OrderFull}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].Class != ClassBadTrace || res.Items[1].Class != ClassError {
		t.Fatalf("classes: %d, %d", res.Items[0].Class, res.Items[1].Class)
	}
	// Operational errors are the most severe aggregate class.
	if res.ExitCode != ClassError {
		t.Fatalf("exit %d, want %d", res.ExitCode, ClassError)
	}
}

func TestCollectDirAndManifest(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	tr, err := workload.EchoTrace(spec, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sub := filepath.Join(dir, "valid")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	text := trace.Format(tr)
	for _, name := range []string{"b.trace", "a.trace"} {
		if err := os.WriteFile(filepath.Join(sub, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	manifest := filepath.Join(dir, "manifest.txt")
	if err := os.WriteFile(manifest, []byte("# corpus\nvalid/a.trace valid\nvalid/b.trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	items, err := Collect([]string{dir + string(filepath.Separator)})
	if err != nil {
		t.Fatal(err)
	}
	// Directory walk picks up *.trace sorted; the manifest has no .trace
	// suffix and is skipped by the walk.
	if len(items) != 2 || !strings.HasSuffix(items[0].Path, "a.trace") || !strings.HasSuffix(items[1].Path, "b.trace") {
		t.Fatalf("dir collect: %+v", items)
	}

	items, err = Collect([]string{manifest})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Expect != ExpectValid || items[1].Expect != "" {
		t.Fatalf("manifest collect: %+v", items)
	}
	res, err := Run(context.Background(), spec, items, Options{Workers: 2,
		Analysis: analysis.Options{Order: analysis.OrderFull}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != ClassOK {
		t.Fatalf("exit %d", res.ExitCode)
	}

	if _, err := Collect([]string{filepath.Join(dir, "nope")}); err == nil {
		t.Fatal("missing arg did not error")
	}
	badManifest := filepath.Join(dir, "bad.txt")
	os.WriteFile(badManifest, []byte("a.trace maybe\n"), 0o644)
	if _, err := Collect([]string{badManifest}); err == nil {
		t.Fatal("bad expectation did not error")
	}
}

// TestShuffleAndWorkerCountDeterminism: the normalized tango.batch/1 report
// must be byte-identical across -j 1, -j 8 and -shuffle runs.
func TestShuffleAndWorkerCountDeterminism(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	items := echoCorpus(t, spec, 4)
	opts := analysis.Options{Order: analysis.OrderFull}
	var reports [][]byte
	for _, o := range []Options{
		{Workers: 1, Analysis: opts},
		{Workers: 8, Analysis: opts},
		{Workers: 8, Analysis: opts, Shuffle: true, Seed: 42},
		{Workers: 3, Analysis: opts, Shuffle: true, Seed: 7},
	} {
		res, err := Run(context.Background(), spec, items, o)
		if err != nil {
			t.Fatal(err)
		}
		rep := BuildReport("echo.estelle", "FULL", spec, o, res)
		rep.Normalize()
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, b)
	}
	for i := 1; i < len(reports); i++ {
		if string(reports[i]) != string(reports[0]) {
			t.Fatalf("normalized report %d differs:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
	}
}

// TestWorkerPanicContained: a job that panics its worker must not take the
// pool (or the process) down, and must appear exactly once in the result set
// and report with its final status.
func TestWorkerPanicContained(t *testing.T) {
	spec := compileSpec(t, "echo", specs.Echo)
	items := echoCorpus(t, spec, 3)
	opts := Options{Workers: 2, Analysis: analysis.Options{Order: analysis.OrderFull}}
	opts.FaultHook = func(_ int, it Item) {
		if it.Name == "valid-b" {
			panic("injected analyzer fault")
		}
	}
	res, err := Run(context.Background(), spec, items, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(items) {
		t.Fatalf("got %d results, want %d", len(res.Items), len(items))
	}
	seen := 0
	for i, r := range res.Items {
		if r.Index != i || r.Item.Name != items[i].Name {
			t.Fatalf("result %d out of order: %q", i, r.Item.Name)
		}
		if r.Item.Name != "valid-b" {
			if r.Err != nil {
				t.Fatalf("%s: unexpected error %v", r.Item.Name, r.Err)
			}
			continue
		}
		seen++
		if !r.Panicked || r.Class != ClassError || r.Err == nil ||
			!strings.Contains(r.Err.Error(), "worker panic: injected analyzer fault") {
			t.Fatalf("panicked item reported wrong: %+v", r)
		}
	}
	if seen != 1 {
		t.Fatalf("panicked item appeared %d times, want exactly once", seen)
	}
	if res.Counts.Errors != 1 || res.ExitCode != ClassError {
		t.Fatalf("counts %+v exit %d, want one error and exit %d", res.Counts, res.ExitCode, ClassError)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1: the panicked worker's Session is replaced", res.Restarts)
	}
	rep := BuildReport("spec", "full", spec, opts, res)
	row := rep.Items[1]
	if row.Trace != "valid-b" || row.ExitClass != ClassError ||
		!strings.Contains(row.Error, "worker panic") || row.Verdict != "" {
		t.Fatalf("report row for panicked item wrong: %+v", row)
	}
}
