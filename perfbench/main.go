// Command perfbench is the repository's end-to-end benchmark. It drives the
// analyzer through its three public entry points, one per workload:
//
//	analyze-deep   analysis.New + AnalyzeTrace on deep invalid traces (1 client, closed loop)
//	batch-corpus   batch.Run over on-disk trace files (1 caller, 2 pool workers, closed loop)
//	serve-open     an in-process store-backed serve daemon (open loop, 2 connections)
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Inputs (spec sources, trace files, request bodies) are generated from the
// seed before anything is timed, and every verdict is checked against the
// independent BFS oracle sim.CheckTrace. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// measures half its time untraced and half traced (spans around the public
// calls plus a CPU profile) and reports the per-layer set. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// setupRounds is how often a run repeats its set-up; setup_s is the median.
const setupRounds = 31

// outDir holds everything a run leaves behind, relative to the checkout root.
const outDir = ".bench_build/perfbench"

// scenario is one benchmark workload.
type scenario interface {
	// prepare generates the inputs under dir and their reference verdicts.
	// It is not timed.
	prepare(dir string) error
	// setup performs the program's one-off work: compiling the specs or,
	// for serve-open, booting the daemon and uploading the specs, which the
	// daemon compiles. It runs setupRounds times; the ops use the last
	// round's state. teardown releases a round's state before the next one
	// and is not timed.
	setup(rec *recorder, parent int64) error
	teardown()
	// warmup runs every distinct op once, untimed, checking verdicts and
	// recording the per-trace counters later ops must repeat.
	warmup() error
	// measure runs the timed phase for d. rec is nil when tracing is off.
	measure(d time.Duration, rec *recorder) (*phase, error)
	// layers reports the workload's per-layer metrics for a traced phase.
	layers(ph *phase, rec *recorder, m metrics)
	// facts describes fixed parameters of the workload for the result record.
	facts() map[string]any
	close()
}

func newWorkload(name string, seed int64, rate float64) (scenario, error) {
	switch name {
	case "analyze-deep":
		return &analyzeDeep{seed: seed}, nil
	case "batch-corpus":
		return &batchCorpus{seed: seed}, nil
	case "serve-open":
		return &serveOpen{seed: seed, rate: rate}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want analyze-deep, batch-corpus or serve-open)", name)
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "analyze-deep, batch-corpus or serve-open")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	rate := fs.Float64("serve-rate", serveRate, "serve-open arrival rate in requests/s; change it only to repeat the capacity sweep")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || *rate <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds and --serve-rate must be positive and --trace 0 or 1")
		return 2
	}
	wl, err := newWorkload(*name, *seed, *rate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, record, err := execute(wl, *name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traced)
	if err := writeJSON(filepath.Join(outDir, "results", tag+".json"), record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed or disagreed with their reference\n", res.Failed, res.Attempted)
	}
	host, _ := json.Marshal(record["host"])
	fmt.Printf("host: %s\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// execute runs one workload end to end and returns the result line plus
// the full record written under outDir/results.
func execute(wl scenario, name string, seed int64, seconds float64, traced bool) (*result, map[string]any, error) {
	work := filepath.Join(outDir, fmt.Sprintf("work-%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	defer wl.close()

	host := hostFacts()
	ticks0 := readTicks()
	if err := wl.prepare(work); err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}

	// One recorder holds a traced run's spans: set-up rounds (op -1) and the
	// traced half of the measurement. The untraced run records nothing.
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			wl.teardown()
		}
		// Every round starts from a collected heap, so garbage left by input
		// generation or an earlier round is not charged to it.
		runtime.GC()
		root := rec.begin("setup", 0, -1)
		t0 := time.Now()
		if err := wl.setup(rec, root.id); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rec.end(root)
	}
	if err := wl.warmup(); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}

	d := time.Duration(seconds * float64(time.Second))
	m := metrics{}
	res := &result{Metrics: m}
	record := map[string]any{"workload": name, "seed": seed, "seconds": seconds, "traced": traced, "workload_facts": wl.facts()}
	if !traced {
		cpu0, t0 := processCPU(), readTicks()
		ph, err := wl.measure(d, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("measure: %w", err)
		}
		measured := map[string]any{
			"wall_s": ph.wall.Seconds(), "process_cpu_s": processCPU() - cpu0,
			"latency_p50_ms_by_input": ph.byLabel(),
		}
		readTicks().since(t0, measured)
		record["measured"] = measured
		ph.endToEnd(m)
		m.set("setup_s", median(setups), "s")
		res.Attempted, res.Failed = ph.ops, ph.failed
		ph.reportErr()
	} else {
		plain, err := wl.measure(d/2, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("measure (untraced half): %w", err)
		}
		ph, shares, profPath, err := tracedPhase(wl, d/2, rec, name, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("measure (traced half): %w", err)
		}
		for _, def := range perLayer {
			m.set(def.name, 0, def.unit) // metrics a workload does not exercise read 0
		}
		setupLayers(rec, m)
		wl.layers(ph, rec, m)
		for _, b := range shareBuckets {
			m.set(b+"_share", shares[b], "ratio")
		}
		m.set("bench.tracing_overhead_ratio", ratio(ph.p(0.5), plain.p(0.5)), "ratio")
		res.Attempted, res.Failed = plain.ops+ph.ops, plain.failed+ph.failed
		plain.reportErr()
		ph.reportErr()

		spanPath := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeSpans(spanPath, rec.spans); err != nil {
			return nil, nil, err
		}
		record["untraced_latency_p50_ms"] = plain.p(0.5)
		record["traced_latency_p50_ms"] = ph.p(0.5)
		record["span_summary"] = summarize(rec.spans)
		record["cpu_shares"] = shares
		record["spans_file"] = spanPath
		record["profile_file"] = profPath
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	readTicks().since(ticks0, host)
	record["host"] = host
	record["setup_rounds_s"] = setups
	record["result"] = res
	return res, record, nil
}

// tracedPhase measures with spans on and a CPU profile running, and returns
// the profile's per-layer shares.
func tracedPhase(wl scenario, d time.Duration, rec *recorder, name string, seed int64) (*phase, map[string]float64, string, error) {
	profPath := filepath.Join(outDir, "profiles", fmt.Sprintf("%s-seed%d.pprof", name, seed))
	if err := os.MkdirAll(filepath.Dir(profPath), 0o755); err != nil {
		return nil, nil, "", err
	}
	f, err := os.Create(profPath)
	if err != nil {
		return nil, nil, "", err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, "", err
	}
	ph, err := wl.measure(d, rec)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, "", err
	}
	shares, err := profileShares(profPath)
	return ph, shares, profPath, err
}

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// phase is what one measured phase observed.
type phase struct {
	lat        []float64 // per-op latency, ms
	labels     []string  // per-op input label
	live       []float64 // /gc/heap/live:bytes sampled after each op
	ops        int
	failed     int
	firstErr   error
	wall       time.Duration
	allocBytes uint64
	acc        layerAcc
}

// byLabel returns the median latency of each input.
func (ph *phase) byLabel() map[string]float64 {
	per := map[string][]float64{}
	for i, l := range ph.labels {
		per[l] = append(per[l], ph.lat[i])
	}
	out := make(map[string]float64, len(per))
	for l, v := range per {
		out[l] = median(v)
	}
	return out
}

// p returns a latency quantile in ms.
func (ph *phase) p(q float64) float64 { return quantile(ph.lat, q) }

func (ph *phase) noteErr(err error) {
	if ph.firstErr == nil && err != nil {
		ph.firstErr = err
	}
}

func (ph *phase) reportErr() {
	if ph.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", ph.firstErr)
	}
}

func (ph *phase) endToEnd(m metrics) {
	if len(ph.lat) < 100 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d ops; latency_p90_ms needs at least 100 to be valid\n", len(ph.lat))
	}
	m.set("throughput_ops_s", float64(ph.ops)/ph.wall.Seconds(), "ops/s")
	m.set("latency_p50_ms", ph.p(0.5), "ms")
	m.set("latency_p90_ms", ph.p(0.9), "ms")
	m.set("alloc_kb_per_op", float64(ph.allocBytes)/1024/float64(max(ph.ops, 1)), "KiB")
	m.set("live_heap_p90_mb", quantile(ph.live, 0.9)/(1<<20), "MiB")
}

// quantile interpolates linearly between order statistics.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
