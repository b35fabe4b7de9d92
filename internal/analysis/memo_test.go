package analysis

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/efsm"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

// deepInvalidTP0 builds the deep-backtracking workload of the benchmarks: a
// TP0 bulk trace with k data interactions each way and the last data
// parameter corrupted, analyzed without order checking so revisits abound.
func deepInvalidTP0(t *testing.T, spec *efsm.Spec, k int) *trace.Trace {
	t.Helper()
	tr, err := workload.TP0BulkTrace(spec, k, int64(k), true)
	if err != nil {
		t.Fatal(err)
	}
	tr, err = workload.CorruptLastData(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// diagJSON serializes the verdict-relevant parts of a Result — everything
// except the search counters, which legitimately differ when the memo
// prunes. Steps are rendered as strings because they hold compiled-spec
// pointers.
func diagJSON(t *testing.T, res *Result) string {
	t.Helper()
	steps := func(path []Step) []string {
		out := make([]string, len(path))
		for i, s := range path {
			out[i] = s.String()
		}
		return out
	}
	payload := struct {
		Verdict      string
		Solution     []string
		InitialState int
		Reason       string
		Explained    int
		Total        int
		State        string
		FirstUnexpl  string
		Path         []string
		Faults       []string
	}{
		Verdict:      res.Verdict.String(),
		Solution:     steps(res.Solution),
		InitialState: res.InitialState,
		Reason:       res.Reason,
	}
	if d := res.Diagnosis; d != nil {
		payload.Explained, payload.Total = d.Explained, d.Total
		payload.State, payload.FirstUnexpl = d.State, d.FirstUnexplained
		payload.Path, payload.Faults = steps(d.Path), d.Faults
	}
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMemoDifferentialDeepBacktrack is the soundness differential on the
// workload where the memo actually fires: with and without the memo (and
// with the collision-paranoid memo) the verdict and diagnosis must be
// byte-identical, while the memoized run must do strictly less work.
func TestMemoDifferentialDeepBacktrack(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 3)

	base, err := mustAnalyzer(t, spec, Options{}).AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if base.Verdict != Invalid {
		t.Fatalf("baseline verdict = %v, want invalid", base.Verdict)
	}
	want := diagJSON(t, base)

	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"memo", Options{Memo: true}},
		{"memo-paranoid", Options{Memo: true, CollisionCheck: true}},
	} {
		res, err := mustAnalyzer(t, spec, cfg.opts).AnalyzeTrace(tr)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if got := diagJSON(t, res); got != want {
			t.Errorf("%s: diagnosis differs from unmemoized run:\n got %s\nwant %s", cfg.name, got, want)
		}
		if res.Stats.PrunedByMemo == 0 {
			t.Errorf("%s: memo never fired on the deep-backtracking workload", cfg.name)
		}
		if res.Stats.TE >= base.Stats.TE {
			t.Errorf("%s: memoized TE %d not below baseline %d", cfg.name, res.Stats.TE, base.Stats.TE)
		}
		if cfg.opts.CollisionCheck && res.Stats.Collisions != 0 {
			t.Errorf("%s: observed %d hash collisions", cfg.name, res.Stats.Collisions)
		}
	}
}

// TestMemoEvictionTinyBudget forces generation rotation with a budget far
// below the workload's footprint: evictions must be counted and the verdict
// and diagnosis must be unaffected (a memo miss is never wrong, only slow).
func TestMemoEvictionTinyBudget(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 3)

	base, err := mustAnalyzer(t, spec, Options{}).AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustAnalyzer(t, spec, Options{Memo: true, MemoBytes: 2048}).AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MemoEvictions == 0 {
		t.Fatal("2KiB budget did not evict on a workload with thousands of dead states")
	}
	if got, want := diagJSON(t, res), diagJSON(t, base); got != want {
		t.Errorf("eviction changed the diagnosis:\n got %s\nwant %s", got, want)
	}
}

// TestMemoUnderStateHashing runs memo and seen-state pruning together: the
// seen set subsumes the memo (every memoized fingerprint was seen first), so
// the combination must agree with hashing alone.
func TestMemoUnderStateHashing(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 3)

	hashOnly, err := mustAnalyzer(t, spec, Options{StateHashing: true}).AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	both, err := mustAnalyzer(t, spec, Options{StateHashing: true, Memo: true}).AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := diagJSON(t, both), diagJSON(t, hashOnly); got != want {
		t.Errorf("memo+hash diagnosis differs from hash-only:\n got %s\nwant %s", got, want)
	}
	if both.Stats.PrunedByMemo != 0 {
		t.Errorf("memo fired %d times under state hashing; the seen set should subsume it",
			both.Stats.PrunedByMemo)
	}
}

// TestMemoOnlineDynamic guards the dynamic-mode soundness rule (inserts only
// after EOF, savePG poisons the parent): an on-line chunked delivery with the
// memo must return the off-line verdict.
func TestMemoOnlineDynamic(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	text := longAckTrace(12)

	plain, err := mustAnalyzer(t, spec, Options{Order: OrderFull}).AnalyzeTrace(mustTrace(t, text))
	if err != nil {
		t.Fatal(err)
	}
	full := mustTrace(t, text)
	var chunks [][]trace.Event
	for i := 0; i < len(full.Events); i += 2 {
		end := i + 2
		if end > len(full.Events) {
			end = len(full.Events)
		}
		chunk := make([]trace.Event, end-i)
		copy(chunk, full.Events[i:end])
		chunks = append(chunks, chunk)
	}
	a := mustAnalyzer(t, spec, Options{Order: OrderFull, Memo: true})
	res, err := a.AnalyzeSource(trace.NewSliceSource(chunks, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != plain.Verdict {
		t.Fatalf("on-line memoized verdict %v != off-line %v", res.Verdict, plain.Verdict)
	}
}

// TestMemoResumeMatchesUninterrupted interrupts a memoized run on a budget,
// resumes it from the checkpoint on a fresh memoized analyzer, and requires
// the uninterrupted verdict — the memo is in-process state and must not leak
// into (or be expected from) the cross-process checkpoint.
func TestMemoResumeMatchesUninterrupted(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	text := longAckTrace(40)

	plain, err := mustAnalyzer(t, spec, Options{Order: OrderFull, Memo: true}).AnalyzeTrace(mustTrace(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Verdict != Valid {
		t.Fatalf("uninterrupted verdict = %v, want valid", plain.Verdict)
	}

	opts := ckptOptions()
	opts.Memo = true
	opts.MaxTransitions = 60
	a := mustAnalyzer(t, spec, opts)
	res, err := a.AnalyzeTrace(mustTrace(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Exhausted {
		t.Fatalf("interrupted verdict = %v, want exhausted", res.Verdict)
	}
	ck := a.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}
	resumeOpts := ckptOptions()
	resumeOpts.Memo = true
	fresh := mustAnalyzer(t, spec, resumeOpts)
	res2, resumed, err := fresh.ResumeTrace(context.Background(), mustTrace(t, text), ck)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != plain.Verdict {
		t.Fatalf("resumed memoized verdict %v != uninterrupted %v", res2.Verdict, plain.Verdict)
	}
	if !resumed {
		t.Fatal("resume fell back to a full search")
	}
}

// TestMemoInitialStateSearch checks the per-retry reset: with the memo on,
// initial-state search must land on the same initial state and verdict as
// without it (each retry starts with a fresh memo, so retry N is
// byte-identical to a standalone run from that state).
func TestMemoInitialStateSearch(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 2)

	base, err := mustAnalyzer(t, spec, Options{InitialStateSearch: true}).AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustAnalyzer(t, spec, Options{InitialStateSearch: true, Memo: true}).AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := diagJSON(t, res), diagJSON(t, base); got != want {
		t.Errorf("memoized state-search diagnosis differs:\n got %s\nwant %s", got, want)
	}
}
