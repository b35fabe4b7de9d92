package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// analyzeDeep is the paper's Figure 4 worst case: deep invalid traces
// analyzed with no order checking and the dead-state memo on, one at a time,
// as `tango analyze -order NR -memo` does. The search (DFS, memo, vm
// Save/Restore and hashing) does nearly all the work; reading the short
// trace files almost none.
type analyzeDeep struct {
	seed   int64
	ss     *specSet
	inputs []*deepInput
	specs  map[string]*efsm.Spec
	order  []int
}

type deepInput struct {
	label, spec, path string
	want              analysis.Verdict
	// Recorded by the warm-up pass; every later op must repeat them.
	out   string
	stats counts
}

var deepOptions = analysis.Options{Order: analysis.OrderNone, Memo: true, Parallelism: 1}

func (w *analyzeDeep) prepare(dir string) error {
	ss, err := writeSpecs(dir, []string{"tp0", "lapd-cnet"})
	if err != nil {
		return err
	}
	w.ss = ss
	rng := rand.New(rand.NewSource(w.seed))
	tp0, cnet := ss.ref["tp0"], ss.ref["lapd-cnet"]
	type draw struct {
		label string
		gen   func(seed int64) (*trace.Trace, error)
		spec  string
	}
	var draws []draw
	// TP0 (paper §4.2): k data interactions each way, either interleaved
	// (bulk) or with the buffers filled first (full-buffer). Half the inputs
	// are k=3, so the median falls inside that cluster rather than on the
	// ×6 step to k=4.
	for _, c := range []struct{ k, n int }{{3, 10}, {4, 2}} {
		k := c.k
		for i := 0; i < c.n; i++ {
			draws = append(draws,
				draw{fmt.Sprintf("tp0-bulk-k%d", k), func(s int64) (*trace.Trace, error) { return workload.TP0BulkTrace(tp0, k, s, true) }, "tp0"},
				draw{fmt.Sprintf("tp0-full-k%d", k), func(s int64) (*trace.Trace, error) { return workload.TP0FullBufferTrace(tp0, k, s, true) }, "tp0"})
		}
	}
	// LAPD at CNET scale, one trace per data-interaction count.
	for di := 5; di <= 20; di++ {
		draws = append(draws, draw{fmt.Sprintf("lapd-cnet-di%d", di), func(s int64) (*trace.Trace, error) { return workload.LAPDTrace(cnet, di, s) }, "lapd-cnet"})
	}
	var jobs []refJob
	for i, d := range draws {
		tr, err := d.gen(rng.Int63())
		if err != nil {
			return fmt.Errorf("%s: %w", d.label, err)
		}
		if tr, err = workload.CorruptLastData(tr); err != nil {
			return fmt.Errorf("%s: %w", d.label, err)
		}
		in := &deepInput{label: d.label, spec: d.spec, path: filepath.Join(dir, fmt.Sprintf("deep-%02d.trace", i))}
		if err := writeTrace(in.path, tr); err != nil {
			return err
		}
		w.inputs = append(w.inputs, in)
		jobs = append(jobs, refJob{ss.ref[d.spec], tr, orderOf(deepOptions.Order), &in.want})
	}
	w.order = cycle(rng, len(w.inputs), 64)
	return references(jobs)
}

func (w *analyzeDeep) setup(rec *recorder, parent int64) error {
	specs, err := w.ss.compile(rec, parent)
	w.specs = specs
	return err
}

func (w *analyzeDeep) teardown() {}

// op is one `tango analyze` call: read the trace file, build the analyzer,
// search, and render the verdict with its diagnosis.
func (w *analyzeDeep) op(in *deepInput, rec *recorder, id int64) (string, *analysis.Result, error) {
	root := rec.begin("op", 0, id)
	defer rec.end(root)
	sp := rec.begin("trace.Read", root.id, id)
	f, err := os.Open(in.path)
	if err != nil {
		return "", nil, err
	}
	tr, err := trace.Read(f)
	f.Close()
	rec.end(sp)
	if err != nil {
		return "", nil, err
	}
	sp = rec.begin("analysis.New", root.id, id)
	a, err := analysis.New(w.specs[in.spec], deepOptions)
	rec.end(sp)
	if err != nil {
		return "", nil, err
	}
	sp = rec.begin("analysis.AnalyzeTrace", root.id, id)
	res, err := a.AnalyzeTrace(tr)
	rec.end(sp)
	if err != nil {
		return "", nil, err
	}
	sp = rec.begin("render", root.id, id)
	out := render(res)
	rec.end(sp)
	return out, res, nil
}

// render prints the verdict and diagnosis the way `tango analyze` does,
// without the timing fields.
func render(res *analysis.Result) string {
	var b strings.Builder
	s := res.Stats
	fmt.Fprintf(&b, "verdict: %s\nstats: TE=%d GE=%d RE=%d SA=%d depth=%d\n", res.Verdict, s.TE, s.GE, s.RE, s.SA, s.MaxDepth)
	if d := res.Diagnosis; d != nil {
		fmt.Fprintf(&b, "diagnosis: best path explains %d/%d events, ending in state %s\n", d.Explained, d.Total, d.State)
		if d.FirstUnexplained != "" {
			fmt.Fprintf(&b, "  first unexplained interaction: %s\n", d.FirstUnexplained)
		}
		b.WriteString("  path:")
		for _, st := range d.Path {
			b.WriteString(" " + st.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func pathLen(res *analysis.Result) int {
	if res.Diagnosis != nil {
		return len(res.Diagnosis.Path)
	}
	return len(res.Solution)
}

func (w *analyzeDeep) warmup() error {
	for _, in := range w.inputs {
		out, res, err := w.op(in, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", in.label, err)
		}
		if res.Verdict != in.want {
			return fmt.Errorf("%s: verdict %s, reference %s", in.label, res.Verdict, in.want)
		}
		in.out, in.stats = out, countsOf(res.Stats.Report())
	}
	return nil
}

func (w *analyzeDeep) measure(d time.Duration, rec *recorder) (*phase, error) {
	return closedLoop(d, func(i int, ph *phase) (string, bool, error) {
		in := w.inputs[w.order[i%len(w.order)]]
		out, res, err := w.op(in, rec, int64(i))
		if err != nil {
			return in.label, false, fmt.Errorf("%s: %w", in.label, err)
		}
		ok := res.Verdict == in.want && out == in.out && countsOf(res.Stats.Report()) == in.stats
		if rec != nil {
			ph.acc.addSearch(in.spec, res.Stats.Report(), float64(res.Stats.SearchTime), pathLen(res))
		}
		return in.label, ok, nil
	})
}

func (w *analyzeDeep) layers(ph *phase, rec *recorder, m metrics) {
	searchLayers(ph, rec, m)
	// The search span is the benchmark's own timing of AnalyzeTrace.
	m.set("analysis.search_ms_p50", median(rec.named("analysis.AnalyzeTrace", false)), "ms")
}

func (w *analyzeDeep) facts() map[string]any {
	labels := map[string]int{}
	for _, in := range w.inputs {
		labels[in.label]++
	}
	return map[string]any{"order": deepOptions.Order.String(), "memo": true, "parallelism": 1, "inputs": labels}
}

func (w *analyzeDeep) close() {}

// closedLoop runs ops back to back until d has passed. op reports whether
// the op's answer matched its reference; an op that errs counts as failed.
func closedLoop(d time.Duration, op func(i int, ph *phase) (string, bool, error)) (*phase, error) {
	ph := &phase{}
	runtime.GC()
	alloc0, _ := heapReading()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t0 := time.Now()
		label, ok, err := op(i, ph)
		lat := time.Since(t0)
		ph.noteErr(err)
		ph.ops++
		if !ok || err != nil {
			ph.failed++
		}
		ph.lat = append(ph.lat, ms(lat))
		ph.labels = append(ph.labels, label)
		_, live := heapReading()
		ph.live = append(ph.live, float64(live))
	}
	ph.wall = time.Since(start)
	alloc1, _ := heapReading()
	ph.allocBytes = alloc1 - alloc0
	return ph, nil
}
