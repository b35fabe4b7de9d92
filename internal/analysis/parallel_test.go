package analysis

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/specs"
)

// The differential over the full golden corpus (all specs, j∈{2,4,8}, every
// pruning configuration) lives in the repo-root conformance suite
// (TestParallelSearchDifferential); these tests pin engine-internal
// properties that the corpus cannot see from the outside.

// TestParallelExploresExactlySequentialTree: on a conclusively invalid trace
// with no pruning enabled, both engines must refute by exhausting the same
// tree — not just the same verdict, but identical TE/GE/Nodes/MaxDepth.
func TestParallelExploresExactlySequentialTree(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 2)

	seqA, err := New(spec, Options{Order: OrderNone})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := seqA.AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Verdict != Invalid {
		t.Fatalf("sequential verdict = %v, want invalid", seq.Verdict)
	}
	for _, j := range []int{2, 8} {
		parA, err := New(spec, Options{Order: OrderNone, Parallelism: j})
		if err != nil {
			t.Fatal(err)
		}
		par, err := parA.AnalyzeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if par.Verdict != Invalid {
			t.Fatalf("j=%d verdict = %v, want invalid", j, par.Verdict)
		}
		ss, ps := seqA.Stats(), parA.Stats()
		if ps.TE != ss.TE || ps.GE != ss.GE || ps.Nodes != ss.Nodes || ps.MaxDepth != ss.MaxDepth {
			t.Errorf("j=%d explored a different tree: TE=%d/%d GE=%d/%d nodes=%d/%d maxdepth=%d/%d",
				j, ps.TE, ss.TE, ps.GE, ss.GE, ps.Nodes, ss.Nodes, ps.MaxDepth, ss.MaxDepth)
		}
		if diagJSON(t, par) != diagJSON(t, seq) {
			t.Errorf("j=%d diagnosis differs:\n%s\n---\n%s", j, diagJSON(t, par), diagJSON(t, seq))
		}
	}
}

// TestParallelBudgetExhausted: the shared transition budget must stop the
// fleet with the sequential engine's Exhausted verdict shape.
func TestParallelBudgetExhausted(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 3)
	a, err := New(spec, Options{Order: OrderNone, Parallelism: 4, MaxTransitions: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Exhausted {
		t.Fatalf("verdict = %v, want exhausted", res.Verdict)
	}
	if res.Stop == nil || res.Stop.Reason != StopBudget {
		t.Fatalf("stop info = %+v, want budget reason", res.Stop)
	}
	if res.Diagnosis == nil {
		t.Fatal("exhausted verdict carries no diagnosis")
	}
}

// TestParallelContextCancel: cancellation mid-search yields a Partial verdict
// with the interruption reason, not an error or a hang.
func TestParallelContextCancel(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 3)
	a, err := New(spec, Options{Order: OrderNone, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := a.AnalyzeTraceContext(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Partial {
		t.Fatalf("verdict = %v, want partial", res.Verdict)
	}
	if res.Stop == nil || res.Stop.Reason != StopCancelled {
		t.Fatalf("stop info = %+v, want cancelled reason", res.Stop)
	}
}

// TestParallelCheckpointResume: a checkpoint captured by a parallel run must
// replay and resume (also in parallel) to the uninterrupted verdict, with an
// identical solution path.
func TestParallelCheckpointResume(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	opts := Options{Order: OrderFull, CheckpointEvery: time.Nanosecond, Parallelism: 4}
	a, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTrace(t, longAckTrace(40))
	var captured atomic.Int64
	a.opts.OnCheckpoint = func(ck *CheckpointState) { captured.Add(1) }
	full, err := a.AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if full.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", full.Verdict)
	}
	ck := a.LastCheckpoint()
	if ck == nil || captured.Load() == 0 {
		t.Fatalf("no checkpoint captured (callback fired %d times)", captured.Load())
	}
	if len(ck.Steps) == 0 || len(ck.VMState) == 0 || ck.Verified <= 0 {
		t.Fatalf("checkpoint looks empty: steps=%d vm=%d verified=%d",
			len(ck.Steps), len(ck.VMState), ck.Verified)
	}

	b, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed, used, err := b.ResumeTrace(context.Background(), tr, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Error("resume fell back to a fresh search")
	}
	if resumed.Verdict != Valid {
		t.Fatalf("resumed verdict = %v, want valid", resumed.Verdict)
	}
	if len(resumed.Solution) != len(full.Solution) {
		t.Fatalf("resumed solution has %d steps, uninterrupted %d",
			len(resumed.Solution), len(full.Solution))
	}
	for i := range full.Solution {
		if full.Solution[i].String() != resumed.Solution[i].String() {
			t.Fatalf("solution step %d differs: %s vs %s",
				i, resumed.Solution[i], full.Solution[i])
		}
	}
}

// TestParallelForcedCheckpoint: a parallel run stopped by its context
// forces a final capture of its best node, as the sequential search does, so
// the last checkpoint verifies the stop's whole prefix; and it resumes on a
// fresh analyzer to the uninterrupted verdict and diagnosis. A capture
// interval of an hour leaves the forced capture as the only one.
func TestParallelForcedCheckpoint(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 4)
	want, err := mustAnalyzer(t, spec, Options{Order: OrderNone, Memo: true}).AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{2, 4} {
		a := mustAnalyzer(t, spec, Options{Order: OrderNone, Parallelism: j, CheckpointEvery: time.Hour})
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		res, err := a.AnalyzeTraceContext(ctx, tr)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Partial || res.Stop == nil {
			t.Fatalf("j=%d: verdict %v, stop %+v; want a partial verdict at the deadline", j, res.Verdict, res.Stop)
		}
		ck := a.LastCheckpoint()
		if ck == nil {
			t.Fatalf("j=%d: no checkpoint captured at the stop", j)
		}
		if ck.Verified != res.Stop.VerifiedPrefix {
			t.Errorf("j=%d: checkpoint verifies %d events, the stop %d", j, ck.Verified, res.Stop.VerifiedPrefix)
		}
		b := mustAnalyzer(t, spec, Options{Order: OrderNone, Parallelism: j, Memo: true})
		got, _, err := b.ResumeTrace(context.Background(), tr, ck)
		if err != nil {
			t.Fatalf("j=%d: resume: %v", j, err)
		}
		if diagJSON(t, got) != diagJSON(t, want) {
			t.Errorf("j=%d: resumed result differs from the uninterrupted one:\n%s\n---\n%s", j, diagJSON(t, got), diagJSON(t, want))
		}
	}
}

// TestParallelInitialStateSearch: the per-retry engine rebuild must keep the
// initial-state search semantics (retry every state, first non-invalid wins).
func TestParallelInitialStateSearch(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 1)
	for _, j := range []int{1, 4} {
		a, err := New(spec, Options{Order: OrderNone, Parallelism: j, InitialStateSearch: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.AnalyzeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if j == 1 {
			continue
		}
		b, err := New(spec, Options{Order: OrderNone, InitialStateSearch: true})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := b.AnalyzeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != seq.Verdict || res.InitialState != seq.InitialState {
			t.Errorf("j=%d: verdict/init %v/%d, sequential %v/%d",
				j, res.Verdict, res.InitialState, seq.Verdict, seq.InitialState)
		}
	}
}

// TestWSDequeTransfers hammers one owner (push/pop) against three thieves:
// every pushed node must be consumed exactly once. Run with -race.
func TestWSDequeTransfers(t *testing.T) {
	const total = 20000
	d := newWSDeque()
	nodes := make([]node, total)
	var got atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n := d.steal(); n != nil {
					got.Add(1)
					continue
				}
				select {
				case <-stop:
					// Drain what the owner left behind.
					for n := d.steal(); n != nil; n = d.steal() {
						got.Add(1)
					}
					return
				default:
				}
			}
		}()
	}
	for i := range nodes {
		d.push(&nodes[i])
		if i%3 == 0 {
			if n := d.pop(); n != nil {
				got.Add(1)
			}
		}
	}
	for n := d.pop(); n != nil; n = d.pop() {
		got.Add(1)
	}
	close(stop)
	wg.Wait()
	if got.Load() != total {
		t.Fatalf("transferred %d nodes, pushed %d", got.Load(), total)
	}
}
