package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

// benchConfigs are the analyzer configurations `tango bench` compares. "cow"
// is the copy-on-write search core and the reference verdict; "cow+memo"
// adds the dead-state memo; the par-jN axis scales the work-stealing
// parallel search over the same core (par-j1 is the sequential anchor for
// that axis — speedup on a row is par-j1 ns/op over par-jN ns/op, and tracks
// available cores, not N). Every configuration must reproduce the same
// verdict on every workload.
var benchConfigs = []struct {
	name string
	opts analysis.Options
}{
	{"cow", analysis.Options{}},
	{"cow+memo", analysis.Options{Memo: true}},
	{"par-j1", analysis.Options{Parallelism: 1}},
	{"par-j2", analysis.Options{Parallelism: 2}},
	{"par-j4", analysis.Options{Parallelism: 4}},
	{"par-j8", analysis.Options{Parallelism: 8}},
}

// benchWorkload is one benchmarked scenario: a spec, a trace, and the verdict
// every configuration must reproduce.
type benchWorkload struct {
	name  string
	spec  *efsm.Spec
	tr    *trace.Trace
	order analysis.OrderOpts
	want  analysis.Verdict
}

// runBench implements `tango bench`: run the search-core benchmark matrix
// (workloads × configurations) with testing.Benchmark, cross-check that every
// configuration returns the same verdict on every workload (the memoization
// soundness invariant, enforced — a disagreement is a hard failure, exit 1),
// and write the rows as a tango.bench/1 report. Timing varies with the host;
// verdicts and the relative allocs/op trend do not, which is what CI asserts.
func runBench(args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "CI smoke mode: smallest workloads, one measured iteration per cell")
	reportPath := fs.String("report", "BENCH_search.json", "write the tango.bench/1 report to this file ('' = skip)")
	k := fs.Int("k", 3, "data interactions each way in the deep-backtracking TP0 workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return usageError{}
	}

	workloads, err := benchWorkloads(*k, *quick)
	if err != nil {
		return err
	}

	rep := &obs.BenchReport{Schema: obs.BenchSchema}
	for _, wl := range workloads {
		verdicts := make(map[string]analysis.Verdict)
		for _, cfg := range benchConfigs {
			opts := cfg.opts
			opts.Order = wl.order
			var (
				last    analysis.Stats
				verdict analysis.Verdict
				runErr  error
			)
			run := func() {
				a, err := analysis.New(wl.spec, opts)
				if err != nil {
					runErr = err
					return
				}
				res, err := a.AnalyzeTrace(wl.tr)
				if err != nil {
					runErr = err
					return
				}
				verdict, last = res.Verdict, res.Stats
			}
			var br testing.BenchmarkResult
			if *quick {
				// One measured iteration: enough for verdict cross-checks and
				// an allocs/op datum without testing.Benchmark's ~1s budget.
				br = singleRun(run)
			} else {
				br = testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						run()
					}
				})
			}
			if runErr != nil {
				return fmt.Errorf("bench %s/%s: %w", wl.name, cfg.name, runErr)
			}
			verdicts[cfg.name] = verdict
			row := obs.BenchRow{
				Workload:       wl.name,
				Config:         cfg.name,
				Iterations:     int64(br.N),
				NsPerOp:        br.NsPerOp(),
				AllocsPerOp:    br.AllocsPerOp(),
				BytesPerOp:     br.AllocedBytesPerOp(),
				Verdict:        verdict.String(),
				StatesExplored: last.TE,
				MemoHits:       last.PrunedByMemo,
			}
			if last.Nodes > 0 {
				row.MemoHitRate = float64(last.PrunedByMemo) / float64(last.Nodes)
			}
			rep.Rows = append(rep.Rows, row)
			fmt.Fprintf(w, "%-28s %-10s %12d ns/op %10d allocs/op %10d B/op  TE=%d memo-hits=%d %s\n",
				wl.name, cfg.name, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp,
				row.StatesExplored, row.MemoHits, row.Verdict)
		}
		if v := verdicts["cow"]; v != wl.want {
			return fmt.Errorf("bench %s: verdict %s, want %s", wl.name, v, wl.want)
		}
		for _, cfg := range benchConfigs {
			if verdicts[cfg.name] != verdicts["cow"] {
				return fmt.Errorf("bench %s: config %s returned %s but cow returned %s — memoization soundness violated",
					wl.name, cfg.name, verdicts[cfg.name], verdicts["cow"])
			}
		}
	}

	if *reportPath != "" {
		if err := rep.WriteFile(*reportPath); err != nil {
			return err
		}
		fmt.Fprintf(ew, "tango: bench report written to %s (%d rows)\n", *reportPath, len(rep.Rows))
	}
	return nil
}

// benchWorkloads builds the benchmark matrix: the deep-backtracking invalid
// TP0 trace analyzed without order checking (the paper's worst case, where
// revisits and deep Save/Restore churn dominate) plus a slice of the golden
// corpus shapes as valid-trace workloads.
func benchWorkloads(k int, quick bool) ([]benchWorkload, error) {
	tp0, err := efsm.Compile("tp0.estelle", specs.TP0)
	if err != nil {
		return nil, err
	}
	if quick && k > 2 {
		k = 2
	}
	deep, err := experiments.Fig4InvalidTrace(tp0, k)
	if err != nil {
		return nil, err
	}
	wls := []benchWorkload{
		{fmt.Sprintf("tp0/deep-backtrack/k=%d", k), tp0, deep, analysis.OrderNone, analysis.Invalid},
	}

	valid, err := workload.TP0Trace(tp0, 10, 10, 1, true)
	if err != nil {
		return nil, err
	}
	wls = append(wls, benchWorkload{"tp0/valid/k=10", tp0, valid, analysis.OrderFull, analysis.Valid})

	if !quick {
		lapd, err := efsm.Compile("lapd.estelle", specs.LAPD)
		if err != nil {
			return nil, err
		}
		lapdTr, err := workload.LAPDTrace(lapd, 25, 25)
		if err != nil {
			return nil, err
		}
		wls = append(wls, benchWorkload{"lapd/valid/DI=25", lapd, lapdTr, analysis.OrderFull, analysis.Valid})
	}
	return wls, nil
}

// singleRun measures one invocation of f — wall time and allocation counters
// — without testing.Benchmark's iteration scaling, for -quick smoke runs
// where the verdict cross-check matters and the timing is noise anyway.
func singleRun(f func()) testing.BenchmarkResult {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return testing.BenchmarkResult{
		N:         1,
		T:         elapsed,
		MemAllocs: after.Mallocs - before.Mallocs,
		MemBytes:  after.TotalAlloc - before.TotalAlloc,
	}
}
