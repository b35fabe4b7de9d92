package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

// allSpecs are the specifications the workloads draw from, in growing size:
// the paper's "more declarations, fewer transitions per second" axis.
// lapd-cnet is LAPD inflated to the CNET specification's 845 declarations.
var allSpecs = []string{"echo", "tp0", "lapd", "lapd-cnet"}

func specSource(name string) (string, error) {
	switch name {
	case "echo":
		return specs.Echo, nil
	case "tp0":
		return specs.TP0, nil
	case "lapd":
		return specs.LAPD, nil
	case "lapd-cnet":
		return experiments.InflateLAPD(800)
	}
	return "", fmt.Errorf("unknown spec %q", name)
}

// specSet is a workload's specifications: the source files the program
// compiles in set-up, and a separately compiled copy that only input
// generation and the reference oracle use.
type specSet struct {
	names []string
	src   map[string]string
	files map[string]string
	ref   map[string]*efsm.Spec
}

func writeSpecs(dir string, names []string) (*specSet, error) {
	ss := &specSet{names: names, src: map[string]string{}, files: map[string]string{}, ref: map[string]*efsm.Spec{}}
	for _, name := range names {
		src, err := specSource(name)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, name+".estelle")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return nil, err
		}
		ss.files[name], ss.src[name] = path, src
		if ss.ref[name], err = efsm.Compile(name+".estelle", src); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

// compile is the set-up work every workload does: read each spec file and
// run it through the front end (parser, sema) and the EFSM indexer.
func (ss *specSet) compile(rec *recorder, parent int64) (map[string]*efsm.Spec, error) {
	out := make(map[string]*efsm.Spec, len(ss.names))
	for _, name := range ss.names {
		src, err := os.ReadFile(ss.files[name])
		if err != nil {
			return nil, err
		}
		sp := rec.begin("parser.Parse", parent, -1)
		tree, err := parser.Parse(name+".estelle", string(src))
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.begin("sema.Check", parent, -1)
		prog, err := sema.Check(tree)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.begin("efsm.New", parent, -1)
		out[name] = efsm.New(prog)
		rec.end(sp)
	}
	return out, nil
}

// refJob asks the oracle for one trace's verdict.
type refJob struct {
	spec  *efsm.Spec
	tr    *trace.Trace
	order sim.Order
	out   *analysis.Verdict
}

// references computes every job's verdict with the independent BFS oracle,
// on two goroutines. An undecided trace is an error: the workload must only
// hold inputs whose answer is known.
func references(jobs []refJob) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		next = make(chan int)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				r, err := sim.CheckTrace(j.spec, j.tr, sim.OracleOptions{Order: j.order})
				switch {
				case err != nil:
				case r.Verdict == sim.OracleValid:
					*j.out = analysis.Valid
				case r.Verdict == sim.OracleInvalid:
					*j.out = analysis.Invalid
				default:
					err = fmt.Errorf("oracle undecided (%d nodes)", r.Nodes)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("reference %d: %w", i, err))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

func orderOf(o analysis.OrderOpts) sim.Order {
	return sim.Order{InBeforeOut: o.InBeforeOut, OutBeforeIn: o.OutBeforeIn, IPOrder: o.IPOrder}
}

func writeTrace(path string, tr *trace.Trace) error {
	return os.WriteFile(path, []byte(trace.Format(tr)), 0o644)
}

// validTrace generates a valid trace of the given size for a spec.
func validTrace(spec string, s *efsm.Spec, size int, seed int64) (*trace.Trace, error) {
	switch spec {
	case "echo":
		return workload.EchoTrace(s, size, seed)
	case "tp0":
		return workload.TP0Trace(s, size, size, seed, true)
	default:
		return workload.LAPDTrace(s, size, seed)
	}
}

// sizedTrace draws one input: a valid trace of the given size or, when
// invalid, a mutant of one. Specs with mutLo > 0 take their mutants from a
// small trace of mutLo..mutHi instead: their invalid traces backtrack
// heavily under FULL order with the memo off.
func sizedTrace(rng *rand.Rand, spec string, ref *efsm.Spec, size int, invalid bool, mutLo, mutHi int) (*trace.Trace, error) {
	if invalid && mutLo > 0 {
		size = between(rng, mutLo, mutHi)
	}
	tr, err := validTrace(spec, ref, size, rng.Int63())
	if err == nil && invalid {
		tr, err = mutant(tr, rng)
	}
	return tr, err
}

// mutant derives an invalid candidate from a valid trace: the §4.2 recipe
// (last data parameter corrupted) or a structural edit (lost, duplicated or
// reordered event). Some structural edits keep the trace valid; the oracle
// decides which.
func mutant(tr *trace.Trace, rng *rand.Rand) (*trace.Trace, error) {
	n := len(tr.Events)
	i := n/4 + rng.Intn(n/2)
	switch rng.Intn(4) {
	case 0:
		return trace.Drop(tr, i)
	case 1:
		return trace.Duplicate(tr, i)
	case 2:
		return trace.Swap(tr, i, i+1)
	}
	return workload.CorruptLastData(tr)
}

// ladder returns n evenly spaced values from lo to hi.
func ladder(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(max(n-1, 1))
	}
	return out
}

// split draws n sizes whose mean is mean, each within ±30% before
// renormalizing, so a group's total work is fixed while its traces differ.
func split(rng *rand.Rand, mean float64, n int) []int {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 0.7 + 0.6*rng.Float64()
		sum += w[i]
	}
	out := make([]int, n)
	for i := range w {
		out[i] = max(1, int(w[i]/sum*mean*float64(n)+0.5))
	}
	return out
}

// between draws an integer uniformly from [lo, hi].
func between(rng *rand.Rand, lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

// counts are the per-trace search counters that must repeat exactly.
type counts struct{ TE, GE, RE, SA int64 }

func countsOf(s obs.SearchStats) counts { return counts{s.TE, s.GE, s.RE, s.SA} }

// layerAcc accumulates per-layer counters over one traced phase. Only the
// goroutine that runs the phase touches it.
type layerAcc struct {
	te, ge   int64
	re, sa   int64
	nodes    int64
	pruned   int64
	evicted  int64
	pathLen  int64
	searchNS float64
	events   int64
	specTE   map[string]int64
	specNS   map[string]float64
	searchMS []float64

	itemMS         []float64 // batch-corpus: per-item analysis time
	busy, capacity time.Duration
	serve          *serveAcc
}

// addSearch folds one analysis into the accumulator. searchNS is the search
// time the analyzer reported; pathLen the length of the returned solution or
// best partial path, or -1 when the entry point does not return it.
func (a *layerAcc) addSearch(spec string, s obs.SearchStats, searchNS float64, pathLen int) {
	if a.specTE == nil {
		a.specTE, a.specNS = map[string]int64{}, map[string]float64{}
	}
	a.te += s.TE
	a.ge += s.GE
	a.re += s.RE
	a.sa += s.SA
	a.nodes += s.Nodes
	a.pruned += s.PrunedByMemo
	a.evicted += s.MemoEvictions
	if pathLen > 0 {
		a.pathLen += int64(pathLen)
	}
	a.searchNS += searchNS
	a.events += int64(s.Events)
	a.specTE[spec] += s.TE
	a.specNS[spec] += searchNS
	a.searchMS = append(a.searchMS, searchNS/1e6)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// searchLayers reports the analysis, vm and trace metrics every workload
// shares.
func searchLayers(ph *phase, rec *recorder, m metrics) {
	a := &ph.acc
	ops := float64(max(ph.ops, 1))
	te := float64(a.te)
	m.set("analysis.search_ms_p50", median(a.searchMS), "ms")
	m.set("analysis.te_per_op", te/ops, "count")
	m.set("analysis.ge_per_op", float64(a.ge)/ops, "count")
	m.set("analysis.re_per_op", float64(a.re)/ops, "count")
	m.set("analysis.sa_per_op", float64(a.sa)/ops, "count")
	m.set("analysis.nodes_per_op", float64(a.nodes)/ops, "count")
	m.set("analysis.memo_prune_ratio", ratio(float64(a.pruned), float64(a.nodes)), "ratio")
	m.set("analysis.memo_evictions", float64(a.evicted)/ops, "count")
	m.set("analysis.useful_te_ratio", ratio(float64(a.pathLen), te), "ratio")
	m.set("analysis.te_per_s", ratio(te, a.searchNS/1e9), "1/s")
	for _, s := range allSpecs {
		m.set("analysis.te_per_s."+s, ratio(float64(a.specTE[s]), a.specNS[s]/1e9), "1/s")
	}
	m.set("vm.us_per_te", ratio(a.searchNS/1e3, te), "us")
	m.set("vm.alloc_b_per_te", ratio(float64(ph.allocBytes), te), "B")
	m.set("trace.events_per_op", float64(a.events)/ops, "count")
	m.set("trace.read_ms_per_op", sum(rec.named("trace.Read", false))/ops, "ms")
}

// setupLayers reports the front-end and indexer times: per set-up round the
// sum over the workload's specs, then the median over rounds.
func setupLayers(rec *recorder, m metrics) {
	perRound := map[string][]float64{}
	for _, root := range rec.spans {
		if root.Name != "setup" {
			continue
		}
		sums := map[string]float64{}
		for _, s := range rec.spans {
			if s.Parent == root.ID {
				sums[s.Name] += ms(s.dur())
			}
		}
		for name, v := range sums {
			perRound[name] = append(perRound[name], v)
		}
	}
	m.set("estelle.parse_ms", median(perRound["parser.Parse"]), "ms")
	m.set("estelle.check_ms", median(perRound["sema.Check"]), "ms")
	m.set("efsm.index_ms", median(perRound["efsm.New"]), "ms")
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// Heap readings from runtime/metrics.
var heapSamples = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}

var heapMu sync.Mutex

func heapReading() (allocs, live uint64) {
	heapMu.Lock()
	defer heapMu.Unlock()
	rtmetrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()
}

// cpuTicks is the aggregate cpu line of /proc/stat: ticks the hypervisor
// stole, ticks idle while waiting for I/O, and all ticks.
type cpuTicks struct{ steal, iowait, total uint64 }

func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		switch i {
		case 5:
			t.iowait = v
		case 8:
			t.steal = v
		}
	}
	return t
}

// since records the ticks spent since t0 in rec.
func (t cpuTicks) since(t0 cpuTicks, rec map[string]any) {
	rec["steal_ticks"] = t.steal - t0.steal
	rec["iowait_ticks"] = t.iowait - t0.iowait
	rec["total_ticks"] = t.total - t0.total
}

// processCPU is the user+system CPU time the process has used, in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostFacts records what the numbers depend on besides the code.
func hostFacts() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  model,
	}
}

// cycle returns a seeded op order: n passes over the inputs, each pass a
// fresh permutation, so every input recurs at the same rate.
func cycle(rng *rand.Rand, inputs, passes int) []int {
	out := make([]int, 0, inputs*passes)
	for p := 0; p < passes; p++ {
		out = append(out, rng.Perm(inputs)...)
	}
	return out
}
