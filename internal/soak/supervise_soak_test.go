package soak

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/checkpoint"
	"repro/internal/efsm"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/specs"
)

// TestSoakSuperviseKillResume hammers the supervised pool with randomized fault
// injection: every round runs a journaled batch whose workers panic or wedge
// at random, then "crashes" it by replaying a random byte prefix of the
// journal into a resumed run, and checks the invariants that survive any such schedule —
// the verdict set equals the fault-free reference, every row is present
// exactly once, and requeues never inflate the row count.
//
// The default budget is ~2 seconds; CI sets SOAK_SUPERVISE_SECONDS=30.
func TestSoakSuperviseKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short mode")
	}
	budget := 2 * time.Second
	if s := os.Getenv("SOAK_SUPERVISE_SECONDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SOAK_SUPERVISE_SECONDS=%q: %v", s, err)
		}
		budget = time.Duration(n) * time.Second
	}

	spec, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	var items []batch.Item
	for i := 0; i < 6; i++ {
		tr, err := workload.EchoTrace(spec, 3+i, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, batch.Item{Name: "echo-" + strconv.Itoa(i), Trace: tr, Expect: batch.ExpectValid})
	}
	pool := batch.Options{Workers: 3, Analysis: analysis.Options{Order: analysis.OrderFull},
		MaxAttempts: 3, BreakerKills: 3}

	// Fault-free reference verdicts.
	ref, err := batch.Run(context.Background(), spec, items, pool)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeRows(t, spec, pool, ref)

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	deadline := time.Now().Add(budget)
	rounds := 0
	for time.Now().Before(deadline) {
		rounds++
		seed := rng.Int63()
		dir := t.TempDir()
		jpath := filepath.Join(dir, checkpoint.JournalFile)
		j, err := checkpoint.CreateBatchLog(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Admit(checkpoint.BatchMeta{NumItems: len(items)}); err != nil {
			t.Fatal(err)
		}

		// Faulty journaled run: first attempts panic or wedge at random, so
		// every job still terminates (retries run clean) while the pool sees
		// a different crash schedule each round.
		fr := rand.New(rand.NewSource(seed))
		var frMu sync.Mutex // the hook runs on concurrent worker goroutines
		opts := pool
		opts.Journal = j
		opts.MaxAttempts = 4
		if fr.Intn(2) == 0 {
			opts.JobTimeout = 50 * time.Millisecond
		}
		opts.FaultHook = func(attempt int, it batch.Item) {
			if attempt > 1 {
				return
			}
			frMu.Lock()
			fault := fr.Intn(4)
			frMu.Unlock()
			switch fault {
			case 0:
				panic("soak: injected crash")
			case 1:
				if opts.JobTimeout > 0 {
					time.Sleep(150 * time.Millisecond) // wedge past the watchdog
				}
			}
		}
		faulty, err := batch.Run(context.Background(), spec, items, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got := normalizeRows(t, spec, pool, faulty); got != want {
			t.Fatalf("seed %d: faulty run verdicts differ\nwant: %s\ngot:  %s", seed, want, got)
		}

		// Crash simulation: resume from a random byte prefix of the journal,
		// as a SIGKILL mid-append leaves it (torn final record included).
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		cut := len(checkpoint.Magic) + rng.Intn(len(data)-len(checkpoint.Magic)+1)
		if err := os.WriteFile(jpath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		plan, err := checkpoint.ReplayBatchLog[checkpoint.BatchMeta](jpath)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		done := map[int]obs.BatchItem{}
		if len(plan.Batches) == 1 {
			done = plan.Batches[0].Rows
		}
		resume := pool
		resume.Done = done
		resumed, err := batch.Run(context.Background(), spec, items, resume)
		if err != nil {
			t.Fatalf("seed %d: resume: %v", seed, err)
		}
		if resumed.Counts.Resumed != len(done) {
			t.Fatalf("seed %d: resumed %d rows, want %d", seed, resumed.Counts.Resumed, len(done))
		}
		if got := normalizeRows(t, spec, pool, resumed); got != want {
			t.Fatalf("seed %d: resumed run verdicts differ\nwant: %s\ngot:  %s", seed, want, got)
		}
	}
	t.Logf("soak: %d kill/resume rounds in %s", rounds, budget)
}

// normalizeRows canonicalizes a supervised result for comparison across runs
// with different fault schedules.
func normalizeRows(t *testing.T, spec *efsm.Spec, pool batch.Options, res *batch.Result) string {
	t.Helper()
	rep := batch.BuildReport("spec", "full", spec, pool, res)
	rep.Normalize()
	b, err := json.Marshal(rep.Items)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
