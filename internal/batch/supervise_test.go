package batch_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/checkpoint"
	"repro/internal/efsm"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

func compileSpec(t testing.TB) *efsm.Spec {
	t.Helper()
	s, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corpus builds nValid valid echo traces plus one structurally invalid one.
func corpus(t testing.TB, spec *efsm.Spec, nValid int) []batch.Item {
	t.Helper()
	var items []batch.Item
	for i := 0; i < nValid; i++ {
		tr, err := workload.EchoTrace(spec, 4+i%3, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, batch.Item{Name: "valid-" + string(rune('a'+i)), Trace: tr, Expect: batch.ExpectValid})
	}
	base, err := workload.EchoTrace(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := trace.Drop(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	items = append(items, batch.Item{Name: "invalid-drop", Trace: drop, Expect: batch.ExpectInvalid})
	return items
}

// createJournal creates a batch log holding a CLI admission record, as
// `tango batch -checkpoint` does.
func createJournal(t *testing.T, path string) *checkpoint.BatchLog {
	t.Helper()
	j, err := checkpoint.CreateBatchLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(checkpoint.BatchMeta{}); err != nil {
		t.Fatal(err)
	}
	return j
}

// journalRows replays a batch log as `tango batch -resume` does (rows, the
// first row per index) and also returns every row record the log holds, in
// write order (logged), so tests can check what Run wrote and not only what
// replay keeps. Every record after the admission must be a row.
func journalRows(t *testing.T, path string) (rows map[int]obs.BatchItem, logged []obs.BatchItem) {
	t.Helper()
	recs, truncated, err := checkpoint.ReplayJournal(path)
	if err != nil || truncated || len(recs) == 0 || recs[0].Kind != checkpoint.KindAdmit {
		t.Fatalf("raw replay: err=%v truncated=%v records=%d", err, truncated, len(recs))
	}
	for _, rec := range recs[1:] {
		var r struct{ RowJSON []byte }
		var row obs.BatchItem
		if rec.Kind != checkpoint.KindRow || rec.Decode(&r) != nil || json.Unmarshal(r.RowJSON, &row) != nil {
			t.Fatalf("record of kind %q is not a decodable row", rec.Kind)
		}
		logged = append(logged, row)
	}
	plan, err := checkpoint.ReplayBatchLog[checkpoint.BatchMeta](path)
	if err != nil || plan.Truncated || len(plan.Batches) != 1 {
		t.Fatalf("replay: %v (plan %+v)", err, plan)
	}
	return plan.Batches[0].Rows, logged
}

func fullOrder() batch.Options {
	return batch.Options{Workers: 3, Analysis: analysis.Options{Order: analysis.OrderFull}}
}

// supervised is fullOrder with the retry and breaker limits `tango batch
// -supervise` sets.
func supervised() batch.Options {
	o := fullOrder()
	o.MaxAttempts, o.BreakerKills = 3, 3
	return o
}

func withJournal(j *checkpoint.BatchLog) batch.Options {
	o := supervised()
	o.Journal = j
	return o
}

func withDone(done map[int]obs.BatchItem) batch.Options {
	o := supervised()
	o.Done = done
	return o
}

// reportRows returns the result's tango.batch/1 rows in corpus order.
func reportRows(res *batch.Result) []obs.BatchItem {
	out := make([]obs.BatchItem, len(res.Items))
	for i := range res.Items {
		out[i] = batch.ReportItem(&res.Items[i])
	}
	return out
}

func normalized(t *testing.T, rep *obs.BatchReport) []byte {
	t.Helper()
	rep.Normalize()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSupervisedMatchesPlainBatch: without faults, a supervised run's
// normalized report is byte-identical to the plain engine's.
func TestSupervisedMatchesPlainBatch(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 4)

	plain, err := batch.Run(context.Background(), spec, items, fullOrder())
	if err != nil {
		t.Fatal(err)
	}
	sup, err := batch.Run(context.Background(), spec, items, supervised())
	if err != nil {
		t.Fatal(err)
	}
	if sup.ExitCode != plain.ExitCode {
		t.Fatalf("exit %d != plain %d", sup.ExitCode, plain.ExitCode)
	}
	a := normalized(t, batch.BuildReport("spec", "full", spec, fullOrder(), plain))
	b := normalized(t, batch.BuildReport("spec", "full", spec, supervised(), sup))
	if string(a) != string(b) {
		t.Fatalf("normalized reports differ:\nplain:      %s\nsupervised: %s", a, b)
	}
}

// TestQuarantineAfterRepeatedPanics: a job that panics every worker it meets
// must trip the circuit breaker instead of wedging the pool.
func TestQuarantineAfterRepeatedPanics(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 3)
	opts := fullOrder()
	opts.MaxAttempts, opts.BreakerKills = 10, 3
	opts.FaultHook = func(attempt int, it batch.Item) {
		if it.Name == "valid-b" {
			panic("poisoned item")
		}
	}
	res, err := batch.Run(context.Background(), spec, items, opts)
	if err != nil {
		t.Fatal(err)
	}
	row := reportRows(res)[1]
	if !row.Quarantined || row.ExitClass != batch.ClassError ||
		!strings.Contains(row.Error, "quarantined after killing 3 workers") {
		t.Fatalf("poisoned row not quarantined: %+v", row)
	}
	if res.Counts.Quarantined != 1 || res.Counts.Requeued != 2 {
		t.Fatalf("counts: %+v, want 1 quarantined / 2 requeued", res.Counts)
	}
	if res.Restarts < 3 {
		t.Fatalf("restarts = %d, want >= 3 (one per kill)", res.Restarts)
	}
	if res.ExitCode != batch.ClassError {
		t.Fatalf("exit = %d, want %d", res.ExitCode, batch.ClassError)
	}
	// The rest of the corpus still completed normally.
	for i, r := range reportRows(res) {
		if i == 1 {
			continue
		}
		if r.Match == nil || !*r.Match {
			t.Fatalf("row %d (%s) did not complete: %+v", i, r.Trace, r)
		}
	}
}

// TestRequeueThenSucceed: one crash is a retry, not a verdict.
func TestRequeueThenSucceed(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 3)
	opts := supervised()
	opts.FaultHook = func(attempt int, it batch.Item) {
		if it.Name == "valid-c" && attempt == 1 {
			panic("transient fault")
		}
	}
	res, err := batch.Run(context.Background(), spec, items, opts)
	if err != nil {
		t.Fatal(err)
	}
	row := reportRows(res)[2]
	if row.Verdict != "valid" || row.Attempts != 2 || row.Quarantined {
		t.Fatalf("retried row wrong: %+v", row)
	}
	if res.Counts.Requeued != 1 || res.Restarts != 1 {
		t.Fatalf("requeued=%d restarts=%d, want 1/1", res.Counts.Requeued, res.Restarts)
	}
	if res.ExitCode != batch.ClassOK {
		t.Fatalf("exit = %d, want %d", res.ExitCode, batch.ClassOK)
	}
}

// TestWedgedWorkerWatchdog: a worker stuck past the job deadline plus grace
// is abandoned and replaced, and its job is retried on the fresh worker.
func TestWedgedWorkerWatchdog(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 2)
	opts := supervised()
	opts.JobTimeout = 50 * time.Millisecond
	opts.FaultHook = func(attempt int, it batch.Item) {
		if it.Name == "valid-a" && attempt == 1 {
			time.Sleep(600 * time.Millisecond) // ignores every deadline: wedged
		}
	}
	res, err := batch.Run(context.Background(), spec, items, opts)
	if err != nil {
		t.Fatal(err)
	}
	row := reportRows(res)[0]
	if row.Verdict != "valid" || row.Attempts != 2 {
		t.Fatalf("wedged-then-retried row wrong: %+v", row)
	}
	if res.Restarts < 1 || res.Counts.Requeued < 1 {
		t.Fatalf("restarts=%d requeued=%d, want >=1/>=1", res.Restarts, res.Counts.Requeued)
	}
}

// TestJournalResumeEquality: a run resumed from a partial journal restores
// finished rows verbatim, re-runs the rest, and its normalized report is
// byte-identical to an uninterrupted run's.
func TestJournalResumeEquality(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 5)

	// Uninterrupted reference.
	ref, err := batch.Run(context.Background(), spec, items, supervised())
	if err != nil {
		t.Fatal(err)
	}
	want := normalized(t, batch.BuildReport("spec", "full", spec, supervised(), ref))

	// Journaled run.
	dir := t.TempDir()
	path := filepath.Join(dir, checkpoint.JournalFile)
	j := createJournal(t, path)
	full, err := batch.Run(context.Background(), spec, items, withJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if full.Counts.Resumed != 0 {
		t.Fatalf("fresh journaled run claims %d resumed rows", full.Counts.Resumed)
	}

	// Replay the journal, keep an arbitrary half as "done", resume the rest.
	// The journal holds exactly one row record per item.
	rows, logged := journalRows(t, path)
	if len(logged) != len(items) || len(rows) != len(items) {
		t.Fatalf("journal has %d row records for %d indexes, want %d of each", len(logged), len(rows), len(items))
	}
	done := map[int]obs.BatchItem{}
	for _, idx := range []int{0, 2, 4} {
		done[idx] = rows[idx]
	}
	resumed, err := batch.Run(context.Background(), spec, items, withDone(done))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Counts.Resumed != 3 {
		t.Fatalf("resumed count = %d, want 3", resumed.Counts.Resumed)
	}
	got := normalized(t, batch.BuildReport("spec", "full", spec, supervised(), resumed))
	if string(got) != string(want) {
		t.Fatalf("resumed report differs from uninterrupted:\nwant: %s\ngot:  %s", want, got)
	}
}

// TestDrainedRowsNotJournaled: cancellation drains unfinished items as
// skipped rows, but those placeholders must not persist — a resume after a
// graceful shutdown has to re-analyze them, not restore "skipped" forever.
func TestDrainedRowsNotJournaled(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, checkpoint.JournalFile)
	j := createJournal(t, path)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := batch.Run(ctx, spec, items, withJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Counts.Skipped == 0 {
		t.Fatal("cancelled run sealed no skipped rows; test exercises nothing")
	}
	done, logged := journalRows(t, path)
	for _, row := range logged {
		if row.Skipped {
			t.Fatalf("skipped row journaled: %+v", row)
		}
	}
	if len(done) != len(logged) {
		t.Fatalf("%d row records for %d indexes: a row was journaled twice", len(logged), len(done))
	}

	// A resume with those rows completes the whole corpus with real verdicts,
	// matching an uninterrupted run.
	resumed, err := batch.Run(context.Background(), spec, items, withDone(done))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := batch.Run(context.Background(), spec, items, supervised())
	if err != nil {
		t.Fatal(err)
	}
	got := normalized(t, batch.BuildReport("spec", "full", spec, supervised(), resumed))
	want := normalized(t, batch.BuildReport("spec", "full", spec, supervised(), ref))
	if string(got) != string(want) {
		t.Fatalf("resume after drain differs from uninterrupted:\nwant: %s\ngot:  %s", want, got)
	}
}

// TestCancelledRowsNotJournaled: a row sealed after the batch's own context
// ended is never journaled, whatever the dispatcher was doing when the
// cancellation landed. The fault hook holds item 0 until item 1's completion
// heartbeat cancels the run and releases it; the heartbeat returns once item
// 0's search has ended cut short, so its result races the cancellation to
// the dispatcher (and so would a job dispatched after the cancel). Every
// run's journal must hold only complete rows, and resume to the
// uninterrupted report.
func TestCancelledRowsNotJournaled(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 5)
	ref, err := batch.Run(context.Background(), spec, items, fullOrder())
	if err != nil {
		t.Fatal(err)
	}
	want := normalized(t, batch.BuildReport("spec", "full", spec, fullOrder(), ref))

	for run := 0; run < 20; run++ {
		path := filepath.Join(t.TempDir(), checkpoint.JournalFile)
		j := createJournal(t, path)
		ctx, cancel := context.WithCancel(context.Background())
		release := make(chan struct{})
		var once sync.Once
		opts := withJournal(j)
		opts.Workers = 2
		opts.FaultHook = func(_ int, it batch.Item) {
			if it.Name == items[0].Name {
				<-release
			}
		}
		cut := &searchEnd{verdict: analysis.Partial.String(), ch: make(chan struct{})}
		opts.Tracer = cut
		opts.OnHeartbeat = func(hb batch.Heartbeat) {
			if hb.Completed && hb.Index == 1 {
				once.Do(func() {
					cancel()
					close(release)
					<-cut.ch // item 0's cut-short result is on its way
				})
			}
		}
		_, err := batch.Run(ctx, spec, items, opts)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		done, logged := journalRows(t, path)
		for _, row := range logged {
			if row.StopReason != "" || row.Skipped {
				t.Fatalf("run %d: journaled a row the cancellation cut short: %+v", run, row)
			}
		}
		resumed, err := batch.Run(context.Background(), spec, items, withDone(done))
		if err != nil {
			t.Fatal(err)
		}
		got := normalized(t, batch.BuildReport("spec", "full", spec, fullOrder(), resumed))
		if string(got) != string(want) {
			t.Fatalf("run %d: resume differs from uninterrupted:\nwant: %s\ngot:  %s", run, want, got)
		}
	}
}

// TestDrainOnCancel: cancelling mid-run still yields a complete report.
func TestDrainOnCancel(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := batch.Run(ctx, spec, items, supervised())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(items) {
		t.Fatalf("got %d rows, want %d", len(res.Items), len(items))
	}
	if res.Counts.Skipped == 0 {
		t.Fatal("cancelled run reports no skipped rows")
	}
	if res.ExitCode != batch.ClassInconclusive {
		t.Fatalf("exit = %d, want %d", res.ExitCode, batch.ClassInconclusive)
	}
}

// TestJournalKeepsMismatchRow: a row whose manifest expectation failed
// (Match=&false) must come back from the journal with Match still set and
// false, and a resume from it must render the uninterrupted report.
func TestJournalKeepsMismatchRow(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 1)
	items[0].Expect = batch.ExpectInvalid // a valid trace: the expectation fails

	path := filepath.Join(t.TempDir(), checkpoint.JournalFile)
	j := createJournal(t, path)
	ref, err := batch.Run(context.Background(), spec, items, withJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if m := reportRows(ref)[0].Match; m == nil || *m {
		t.Fatalf("reference row Match = %v, want &false", m)
	}
	want := normalized(t, batch.BuildReport("spec", "full", spec, supervised(), ref))

	done, _ := journalRows(t, path)
	if m := done[0].Match; m == nil || *m {
		t.Fatalf("journaled row Match = %v, want &false", m)
	}
	resumed, err := batch.Run(context.Background(), spec, items, withDone(done))
	if err != nil {
		t.Fatal(err)
	}
	got := normalized(t, batch.BuildReport("spec", "full", spec, supervised(), resumed))
	if string(got) != string(want) {
		t.Fatalf("resumed report differs from uninterrupted:\nwant: %s\ngot:  %s", want, got)
	}
}

// TestJournalFailuresReported: appends to a journal whose file is already
// closed fail. The run still seals every row with its verdict, and the
// result counts the failures and keeps the first error, so the CLI can warn
// that the run is not resumable as journaled.
func TestJournalFailuresReported(t *testing.T) {
	spec := compileSpec(t)
	items := corpus(t, spec, 2)
	j := createJournal(t, filepath.Join(t.TempDir(), checkpoint.JournalFile))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := batch.Run(context.Background(), spec, items, withJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	if res.JournalFailures != len(items) || !errors.Is(res.JournalErr, os.ErrClosed) {
		t.Fatalf("journal failures = %d (first %v), want %d and os.ErrClosed",
			res.JournalFailures, res.JournalErr, len(items))
	}
	if res.ExitCode != batch.ClassOK || res.Counts.Valid+res.Counts.Invalid != len(items) {
		t.Fatalf("run lost verdicts: exit %d, counts %+v", res.ExitCode, res.Counts)
	}
}

// searchEnd closes ch at the first search that ends with the given verdict.
type searchEnd struct {
	verdict string
	ch      chan struct{}
	once    sync.Once
}

func (s *searchEnd) Event(ev obs.Event) {
	if ev.Kind == obs.KindSearchEnd && ev.Detail == s.verdict {
		s.once.Do(func() { close(s.ch) })
	}
}
