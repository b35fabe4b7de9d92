package analysis

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/efsm"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

// longAckTrace builds a valid ack trace of n rounds (3n events), long enough
// that the search crosses several checkpoint-capture boundaries.
func longAckTrace(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString("in A x\nin B y\nout A ack\n")
	}
	return sb.String()
}

func ckptOptions() Options {
	// FULL order checking keeps the two-queue interleaving space linear;
	// CheckpointEvery of 1ns captures at every 64-expansion boundary.
	return Options{Order: OrderFull, CheckpointEvery: time.Nanosecond}
}

func TestCheckpointCapturedDuringSearch(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	a, err := New(spec, ckptOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeTrace(mustTrace(t, longAckTrace(40)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", res.Verdict)
	}
	ck := a.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint captured during a 120-event search")
	}
	if ck.Verified <= 0 || len(ck.Steps) == 0 || len(ck.VMState) == 0 {
		t.Fatalf("checkpoint looks empty: verified=%d steps=%d vm=%d bytes",
			ck.Verified, len(ck.Steps), len(ck.VMState))
	}
	if ck.SpecDigest != SpecDigest(spec) {
		t.Fatal("checkpoint spec digest does not match the spec")
	}
}

func TestResumeMatchesUninterruptedVerdict(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	text := longAckTrace(40)

	// Uninterrupted run.
	plain, err := mustAnalyzer(t, spec, Options{Order: OrderFull}).AnalyzeTrace(mustTrace(t, text))
	if err != nil {
		t.Fatal(err)
	}

	// Capture a mid-run checkpoint, then resume on a fresh analyzer.
	a := mustAnalyzer(t, spec, ckptOptions())
	if _, err := a.AnalyzeTrace(mustTrace(t, text)); err != nil {
		t.Fatal(err)
	}
	ck := a.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}
	fresh := mustAnalyzer(t, spec, ckptOptions())
	res, resumed, err := fresh.ResumeTrace(context.Background(), mustTrace(t, text), ck)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != plain.Verdict {
		t.Fatalf("resumed verdict %v != uninterrupted verdict %v", res.Verdict, plain.Verdict)
	}
	if !resumed {
		t.Fatal("resume fell back to a full search on a matching checkpoint")
	}
	// The resumed solution must still be a complete accepting path from the
	// root (the replayed prefix plus the searched suffix).
	if len(res.Solution) == 0 {
		t.Fatal("resumed valid result has no solution path")
	}
}

func TestResumeFromBudgetInterruptedRun(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	text := longAckTrace(40)
	opts := ckptOptions()
	opts.MaxTransitions = 60 // stop mid-search (the full run needs 120 firings)
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
		t.Fatal("budget interruption did not force a checkpoint")
	}
	fresh := mustAnalyzer(t, spec, ckptOptions())
	res2, resumed, err := fresh.ResumeTrace(context.Background(), mustTrace(t, text), ck)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != Valid {
		t.Fatalf("resumed verdict = %v, want valid", res2.Verdict)
	}
	// The budget usually expires on a dead frontier step; prefix backoff must
	// still restart below an ancestor instead of falling back to a full run.
	if !resumed {
		t.Fatal("budget-interrupted resume fell back to a full search")
	}
	if res2.Stats.TE >= 120 {
		t.Fatalf("resumed search fired %d transitions, want fewer than the full run's 120", res2.Stats.TE)
	}
}

func TestResumeRejectsWrongWorkload(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	text := longAckTrace(20)
	a := mustAnalyzer(t, spec, ckptOptions())
	if _, err := a.AnalyzeTrace(mustTrace(t, text)); err != nil {
		t.Fatal(err)
	}
	ck := a.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}

	// Different trace.
	fresh := mustAnalyzer(t, spec, ckptOptions())
	if _, _, err := fresh.ResumeTrace(context.Background(), mustTrace(t, longAckTrace(21)), ck); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("different trace: err = %v, want ErrCheckpointMismatch", err)
	}
	// Different specification.
	other := compile(t, "tp0", specs.TP0)
	b := mustAnalyzer(t, other, ckptOptions())
	if _, _, err := b.ResumeTrace(context.Background(), mustTrace(t, text), ck); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("different spec: err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestResumeTamperedStateFallsBack: a checkpoint whose serialized VM state
// was corrupted (but whose container CRC would still pass, e.g. bit rot
// before the write) must never half-resume — the replay cross-check refuses
// it and a full fresh search still produces the right verdict.
func TestResumeTamperedStateFallsBack(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	text := longAckTrace(20)
	a := mustAnalyzer(t, spec, ckptOptions())
	if _, err := a.AnalyzeTrace(mustTrace(t, text)); err != nil {
		t.Fatal(err)
	}
	ck := a.LastCheckpoint()
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}
	tampered := *ck
	tampered.VMState = append([]byte(nil), ck.VMState...)
	tampered.VMState[len(tampered.VMState)-1] ^= 0x20
	fresh := mustAnalyzer(t, spec, ckptOptions())
	res, resumed, err := fresh.ResumeTrace(context.Background(), mustTrace(t, text), &tampered)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("tampered checkpoint was accepted for resume")
	}
	if res.Verdict != Valid {
		t.Fatalf("fallback verdict = %v, want valid", res.Verdict)
	}
}

func TestSessionCheckpointFileRoundTrip(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	text := longAckTrace(40)
	path := filepath.Join(t.TempDir(), checkpoint.SnapshotFile)

	s, err := NewSession(spec, ckptOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(path); err == nil {
		t.Fatal("Checkpoint before any capture should fail")
	}
	if _, err := s.Analyze(context.Background(), mustTrace(t, text)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	s2, err := NewSession(spec, ckptOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, resumed, err := s2.ResumeFrom(context.Background(), path, mustTrace(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Valid || !resumed {
		t.Fatalf("verdict = %v resumed = %v, want valid/true", res.Verdict, resumed)
	}

	// A corrupt file surfaces the typed codec error, never a partial resume.
	s3, err := NewSession(spec, ckptOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := writeTruncatedCopy(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s3.ResumeFrom(context.Background(), bad, mustTrace(t, text)); !errors.Is(err, checkpoint.ErrCorruptCheckpoint) {
		t.Fatalf("corrupt file: err = %v, want ErrCorruptCheckpoint", err)
	}
}

func mustAnalyzer(t *testing.T, spec *efsm.Spec, opts Options) *Analyzer {
	t.Helper()
	a, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// writeTruncatedCopy copies src to dst minus its last few bytes.
func writeTruncatedCopy(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b[:len(b)-4], 0o644)
}

// TestCheckpointsAfterReleasesResume captures checkpoints throughout deep
// invalid TP0 searches (k=3 and k=4, bulk and full-buffer, NR+memo). These
// searches pop thousands of nodes, so most captures happen while the best
// node has already been popped and its states handed back to the vm pool;
// the capture must then serialize the search's own snapshot of its state.
// Every distinct checkpoint must pass the full-path replay's fingerprint and
// codec cross-check on a fresh analyzer (tryResume's trusted flag; the
// resumed flag of ResumeTrace is false on an invalid trace by design, since a
// refuted subtree proves nothing above the restored node), and resuming from
// it must give the uninterrupted run's verdict and diagnosis.
func TestCheckpointsAfterReleasesResume(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	ctx := context.Background()
	opts := Options{Order: OrderNone, Memo: true}
	for _, k := range []int{3, 4} {
		for _, shape := range []struct {
			name string
			gen  func(*efsm.Spec, int, int64, bool) (*trace.Trace, error)
		}{{"bulk", workload.TP0BulkTrace}, {"full", workload.TP0FullBufferTrace}} {
			tr, err := shape.gen(spec, k, int64(k), true)
			if err != nil {
				t.Fatal(err)
			}
			if tr, err = workload.CorruptLastData(tr); err != nil {
				t.Fatal(err)
			}
			plain, err := mustAnalyzer(t, spec, opts).AnalyzeTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Verdict != Invalid {
				t.Fatalf("%s k=%d: verdict = %v, want invalid", shape.name, k, plain.Verdict)
			}
			want := diagJSON(t, plain)

			var cks []*CheckpointState
			seen := make(map[string]bool)
			copts := opts
			copts.CheckpointEvery = time.Nanosecond
			copts.OnCheckpoint = func(ck *CheckpointState) {
				key := fmt.Sprintf("%v|%s|%x", ck.Steps, ck.Fingerprint, ck.VMState)
				if !seen[key] {
					seen[key] = true
					cks = append(cks, ck)
				}
			}
			res, err := mustAnalyzer(t, spec, copts).AnalyzeTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := diagJSON(t, res); got != want {
				t.Fatalf("%s k=%d: checkpointing changed the result:\n got %s\nwant %s", shape.name, k, got, want)
			}
			if len(cks) == 0 {
				t.Fatalf("%s k=%d: no checkpoint captured", shape.name, k)
			}
			for i, ck := range cks {
				if _, _, trusted := mustAnalyzer(t, spec, opts).tryResume(ctx, tr, ck, len(ck.Steps)); !trusted {
					t.Fatalf("%s k=%d checkpoint %d (%d steps): the replay's fingerprint or codec cross-check refused it",
						shape.name, k, i, len(ck.Steps))
				}
				got, _, err := mustAnalyzer(t, spec, opts).ResumeTrace(ctx, tr, ck)
				if err != nil {
					t.Fatalf("%s k=%d checkpoint %d: %v", shape.name, k, i, err)
				}
				if g := diagJSON(t, got); g != want {
					t.Fatalf("%s k=%d checkpoint %d: resumed result differs:\n got %s\nwant %s", shape.name, k, i, g, want)
				}
			}
			t.Logf("%s k=%d: %d distinct checkpoints resumed", shape.name, k, len(cks))
		}
	}
}

// TestForcedCheckpointVerifiesStop: a search stopped by its transition budget
// or its deadline forces a final capture of its best node, so the last
// checkpoint verifies the stop's whole prefix; and it resumes on a fresh
// analyzer to the uninterrupted verdict and diagnosis. A capture interval of
// an hour leaves the forced capture as the only one.
func TestForcedCheckpointVerifiesStop(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	for _, c := range []struct {
		k        int
		budget   int64
		deadline time.Duration
	}{{3, 2000, 0}, {4, 20000, 0}, {4, 0, 20 * time.Millisecond}} {
		name := fmt.Sprintf("k=%d budget=%d deadline=%v", c.k, c.budget, c.deadline)
		tr := deepInvalidTP0(t, spec, c.k)
		want, err := mustAnalyzer(t, spec, Options{Order: OrderNone, Memo: true}).AnalyzeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if c.deadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, c.deadline)
		}
		a := mustAnalyzer(t, spec, Options{Order: OrderNone, MaxTransitions: c.budget, CheckpointEvery: time.Hour})
		res, err := a.AnalyzeTraceContext(ctx, tr)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop == nil {
			t.Fatalf("%s: verdict %v without a stop; want the search stopped", name, res.Verdict)
		}
		ck := a.LastCheckpoint()
		if ck == nil {
			t.Fatalf("%s: no checkpoint captured at the stop", name)
		}
		if ck.Verified != res.Stop.VerifiedPrefix {
			t.Errorf("%s: checkpoint verifies %d events, the stop %d", name, ck.Verified, res.Stop.VerifiedPrefix)
		}
		got, _, err := mustAnalyzer(t, spec, Options{Order: OrderNone, Memo: true}).ResumeTrace(context.Background(), tr, ck)
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		if diagJSON(t, got) != diagJSON(t, want) {
			t.Errorf("%s: resumed result differs from the uninterrupted one:\n%s\n---\n%s", name, diagJSON(t, got), diagJSON(t, want))
		}
	}
}
