// Benchmarks regenerating the paper's evaluation (one benchmark family per
// table/figure), plus ablation benches for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the search counters of the paper (TE, and where
// meaningful trans/s) via b.ReportMetric, so the Figure 3/4 rows can be read
// straight from the bench output. cmd/experiments prints the same data as
// paper-style tables.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/specs"
)

func compileB(b *testing.B, name, src string) *efsm.Spec {
	b.Helper()
	s, err := efsm.Compile(name, src)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func analyzeB(b *testing.B, spec *efsm.Spec, opts analysis.Options, tr *trace.Trace,
	want analysis.Verdict) analysis.Stats {
	b.Helper()
	a, err := analysis.New(spec, opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := a.AnalyzeTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	if res.Verdict != want {
		b.Fatalf("verdict %v, want %v", res.Verdict, want)
	}
	return res.Stats
}

var fig3Modes = []struct {
	name string
	mode analysis.OrderOpts
}{
	{"NR", analysis.OrderNone},
	{"IO", analysis.OrderIO},
	{"IP", analysis.OrderIP},
	{"FULL", analysis.OrderFull},
}

// BenchmarkFig3LAPD regenerates Figure 3: a LAPD TAM analyzing valid traces
// of DI user data packets under each order-checking mode.
func BenchmarkFig3LAPD(b *testing.B) {
	spec := compileB(b, "lapd.estelle", specs.LAPD)
	for _, m := range fig3Modes {
		for _, di := range []int{5, 25, 100} {
			tr, err := workload.LAPDTrace(spec, di, int64(di))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/DI=%d", m.name, di), func(b *testing.B) {
				var st analysis.Stats
				for i := 0; i < b.N; i++ {
					st = analyzeB(b, spec, analysis.Options{Order: m.mode}, tr, analysis.Valid)
				}
				b.ReportMetric(float64(st.TE), "TE")
				b.ReportMetric(float64(st.RE), "RE")
				b.ReportMetric(float64(st.SA), "SA")
			})
		}
	}
}

// BenchmarkFig4TP0 regenerates Figure 4: invalid TP0 traces. The paper's
// depths 13/21/29 correspond to k = 3/5/7 data interactions each way.
func BenchmarkFig4TP0(b *testing.B) {
	spec := compileB(b, "tp0.estelle", specs.TP0)
	cases := []struct {
		name string
		k    int
		mode analysis.OrderOpts
	}{
		{"depth13/NR", 3, analysis.OrderNone},
		{"depth13/IO", 3, analysis.OrderIO},
		{"depth13/IP", 3, analysis.OrderIP},
		{"depth13/FULL", 3, analysis.OrderFull},
		{"depth21/FULL", 5, analysis.OrderFull},
		{"depth29/FULL", 7, analysis.OrderFull},
	}
	for _, c := range cases {
		tr, err := experiments.Fig4InvalidTrace(spec, c.k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			var st analysis.Stats
			for i := 0; i < b.N; i++ {
				st = analyzeB(b, spec, analysis.Options{Order: c.mode}, tr, analysis.Invalid)
			}
			b.ReportMetric(float64(st.TE), "TE")
			b.ReportMetric(st.AverageFanout(), "fanout")
		})
	}
}

// BenchmarkFig4TP0FullBuffer measures the fully-buffered trace variant whose
// unordered analysis reproduces the paper's depth-13 NR row within 8 counts.
func BenchmarkFig4TP0FullBuffer(b *testing.B) {
	spec := compileB(b, "tp0.estelle", specs.TP0)
	tr, err := workload.TP0FullBufferTrace(spec, 3, 3, true)
	if err != nil {
		b.Fatal(err)
	}
	tr, err = workload.CorruptLastData(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("depth13/NRstar", func(b *testing.B) {
		var st analysis.Stats
		for i := 0; i < b.N; i++ {
			st = analyzeB(b, spec, analysis.Options{Order: analysis.OrderNone}, tr, analysis.Invalid)
		}
		b.ReportMetric(float64(st.TE), "TE")
		b.ReportMetric(float64(st.SA), "SA")
	})
}

// BenchmarkTransitionsPerSecond regenerates the §4 throughput comparison:
// the same analyzer over specifications of growing size.
func BenchmarkTransitionsPerSecond(b *testing.B) {
	type tgt struct {
		name string
		spec *efsm.Spec
		tr   *trace.Trace
	}
	var targets []tgt

	echo := compileB(b, "echo.estelle", specs.Echo)
	echoTr, err := workload.EchoTrace(echo, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	targets = append(targets, tgt{fmt.Sprintf("echo_%dtrans", echo.TransitionCount()), echo, echoTr})

	tp0 := compileB(b, "tp0.estelle", specs.TP0)
	tp0Tr, err := workload.TP0Trace(tp0, 20, 20, 1, true)
	if err != nil {
		b.Fatal(err)
	}
	targets = append(targets, tgt{fmt.Sprintf("tp0_%dtrans", tp0.TransitionCount()), tp0, tp0Tr})

	lapd := compileB(b, "lapd.estelle", specs.LAPD)
	lapdTr, err := workload.LAPDTrace(lapd, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	targets = append(targets, tgt{fmt.Sprintf("lapd_%dtrans", lapd.TransitionCount()), lapd, lapdTr})

	big, err := experiments.InflateLAPD(800)
	if err != nil {
		b.Fatal(err)
	}
	bigSpec := compileB(b, "lapd-inflated.estelle", big)
	bigTr, err := workload.LAPDTrace(bigSpec, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	targets = append(targets, tgt{fmt.Sprintf("lapd_%dtrans", bigSpec.TransitionCount()), bigSpec, bigTr})

	for _, t := range targets {
		b.Run(t.name, func(b *testing.B) {
			var te int64
			for i := 0; i < b.N; i++ {
				st := analyzeB(b, t.spec, analysis.Options{Order: analysis.OrderNone}, t.tr, analysis.Valid)
				te += st.TE
			}
			b.ReportMetric(float64(te)/b.Elapsed().Seconds(), "trans/s")
		})
	}
}

// BenchmarkValidLinear supports the §4.2 linear-time claim for valid traces
// under full order checking: ns/op should grow linearly with trace length.
func BenchmarkValidLinear(b *testing.B) {
	spec := compileB(b, "tp0.estelle", specs.TP0)
	for _, k := range []int{5, 10, 20, 40, 80} {
		tr, err := workload.TP0Trace(spec, k, k, int64(k), true)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("events=%d", tr.Len()), func(b *testing.B) {
			var st analysis.Stats
			for i := 0; i < b.N; i++ {
				st = analyzeB(b, spec, analysis.Options{Order: analysis.OrderFull}, tr, analysis.Valid)
			}
			b.ReportMetric(float64(st.TE)/float64(tr.Len()), "TE/event")
		})
	}
}

// BenchmarkAblationStateHash ablates the visited-state hash table the paper
// proposes at the end of §4.2, on an invalid TP0 trace without order
// checking (where revisits abound).
func BenchmarkAblationStateHash(b *testing.B) {
	spec := compileB(b, "tp0.estelle", specs.TP0)
	tr, err := experiments.Fig4InvalidTrace(spec, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, hash := range []bool{false, true} {
		name := "off"
		if hash {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var st analysis.Stats
			for i := 0; i < b.N; i++ {
				st = analyzeB(b, spec,
					analysis.Options{Order: analysis.OrderNone, StateHashing: hash},
					tr, analysis.Invalid)
			}
			b.ReportMetric(float64(st.TE), "TE")
			b.ReportMetric(float64(st.HashHits), "hash-hits")
		})
	}
}

// BenchmarkAblationReorder ablates §3.1.3 dynamic node reordering in MDFS on
// the ack on-line scenario scaled up.
func BenchmarkAblationReorder(b *testing.B) {
	spec := compileB(b, "ack.estelle", specs.Ack)
	ev := func(d trace.Dir, ip, inter string) trace.Event {
		return trace.Event{Dir: d, IP: ip, Interaction: inter}
	}
	mkChunks := func() [][]trace.Event {
		var chunks [][]trace.Event
		for r := 0; r < 6; r++ {
			chunks = append(chunks,
				[]trace.Event{ev(trace.In, "A", "x"), ev(trace.In, "A", "x")},
				[]trace.Event{ev(trace.In, "B", "y"), ev(trace.Out, "A", "ack")},
			)
		}
		return chunks
	}
	for _, reorder := range []bool{false, true} {
		name := "off"
		if reorder {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var st analysis.Stats
			for i := 0; i < b.N; i++ {
				a, err := analysis.New(spec, analysis.Options{Reorder: reorder})
				if err != nil {
					b.Fatal(err)
				}
				res, err := a.AnalyzeSource(trace.NewSliceSource(mkChunks(), true))
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != analysis.Valid {
					b.Fatalf("verdict %v", res.Verdict)
				}
				st = res.Stats
			}
			b.ReportMetric(float64(st.TE), "TE")
			b.ReportMetric(float64(st.Regens), "regens")
		})
	}
}

// BenchmarkAblationPGAVPrune ablates the footnote-2 optimization: dropping
// non-PGAV nodes once a PGAV node exists.
func BenchmarkAblationPGAVPrune(b *testing.B) {
	spec := compileB(b, "tp0.estelle", specs.TP0)
	valid, err := workload.TP0BulkTrace(spec, 6, 1, true)
	if err != nil {
		b.Fatal(err)
	}
	// Deliver the trace in small chunks to exercise the on-line path.
	mkChunks := func() [][]trace.Event {
		var chunks [][]trace.Event
		for i := 0; i < len(valid.Events); i += 4 {
			end := i + 4
			if end > len(valid.Events) {
				end = len(valid.Events)
			}
			chunk := make([]trace.Event, end-i)
			copy(chunk, valid.Events[i:end])
			chunks = append(chunks, chunk)
		}
		return chunks
	}
	for _, prune := range []bool{false, true} {
		name := "off"
		if prune {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var st analysis.Stats
			for i := 0; i < b.N; i++ {
				a, err := analysis.New(spec, analysis.Options{
					Order: analysis.OrderFull, PGAVPrune: prune,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := a.AnalyzeSource(trace.NewSliceSource(mkChunks(), true))
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != analysis.Valid {
					b.Fatalf("verdict %v", res.Verdict)
				}
				st = res.Stats
			}
			b.ReportMetric(float64(st.SA), "SA")
			b.ReportMetric(float64(st.PGNodes), "pg-nodes")
		})
	}
}

// BenchmarkAblationOrderChecking isolates the order-checking options on one
// invalid trace (the §2.4.2 claim that checking shrinks the state space).
func BenchmarkAblationOrderChecking(b *testing.B) {
	spec := compileB(b, "tp0.estelle", specs.TP0)
	tr, err := experiments.Fig4InvalidTrace(spec, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range fig3Modes {
		b.Run(m.name, func(b *testing.B) {
			var st analysis.Stats
			for i := 0; i < b.N; i++ {
				st = analyzeB(b, spec, analysis.Options{Order: m.mode}, tr, analysis.Invalid)
			}
			b.ReportMetric(float64(st.TE), "TE")
		})
	}
}

// BenchmarkStateSnapshot measures the Save operation (§2.2) on a TP0 state
// with dynamic memory in the buffers — the cost §3.2.2 worries about.
func BenchmarkStateSnapshot(b *testing.B) {
	spec := compileB(b, "tp0.estelle", specs.TP0)
	e := vm.New(spec.Code)
	st, _, err := e.RunInit()
	if err != nil {
		b.Fatal(err)
	}
	// Fill buffer2 with 64 cells via T13.
	var t13 interface{ Spontaneous() bool }
	for _, ti := range spec.Prog.Trans {
		if ti.Name == "T13" {
			for i := 0; i < 64; i++ {
				if _, err := e.Execute(st, ti, []vm.Value{vm.MakeInt(int64(i))}); err != nil {
					b.Fatal(err)
				}
			}
			t13 = ti
		}
	}
	if t13 == nil {
		b.Fatal("T13 not found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Snapshot()
	}
}

// BenchmarkCompile measures the tool-generation step itself (Pet + Dingo).
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"tp0", specs.TP0},
		{"lapd", specs.LAPD},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := efsm.Compile(c.name, c.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateTrace measures implementation generation mode.
func BenchmarkGenerateTrace(b *testing.B) {
	spec := compileB(b, "lapd.estelle", specs.LAPD)
	b.Run("lapd/DI=25", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.LAPDTrace(spec, 25, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTracerOverhead measures the cost of the observability hooks on a
// representative MDFS search: nil tracer (every hook skipped by a nil check)
// against an attached no-op tracer and a full metrics registry. The nil and
// nop cases must stay within a few percent of each other — the hooks are in
// the search hot loop, and CI runs this with -benchtime=100x as a smoke test.
func BenchmarkTracerOverhead(b *testing.B) {
	spec := compileB(b, "tp0.estelle", specs.TP0)
	tr, err := workload.TP0Trace(spec, 40, 40, 1, true)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		opts func() analysis.Options
	}{
		{"nil", func() analysis.Options { return analysis.Options{Order: analysis.OrderFull} }},
		{"nop", func() analysis.Options {
			return analysis.Options{Order: analysis.OrderFull, Tracer: obs.Nop}
		}},
		{"metrics", func() analysis.Options {
			return analysis.Options{Order: analysis.OrderFull, Metrics: obs.NewRegistry()}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var st analysis.Stats
			for i := 0; i < b.N; i++ {
				st = analyzeB(b, spec, c.opts(), tr, analysis.Valid)
			}
			b.ReportMetric(float64(st.TE), "TE")
		})
	}
}

// BenchmarkDeepBacktrackAllocs is the headline benchmark of the search core:
// the deep-backtracking invalid TP0 trace analyzed without order checking,
// under the copy-on-write heap and COW plus the dead-state memo (CI runs it
// once per build as a smoke test; TestCorpusMemoDifferential checks that the
// two configurations agree on every verdict).
func BenchmarkDeepBacktrackAllocs(b *testing.B) {
	spec := compileB(b, "tp0.estelle", specs.TP0)
	tr, err := experiments.Fig4InvalidTrace(spec, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts analysis.Options
	}{
		{"cow", analysis.Options{Order: analysis.OrderNone}},
		{"cow+memo", analysis.Options{Order: analysis.OrderNone, Memo: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var st analysis.Stats
			for i := 0; i < b.N; i++ {
				st = analyzeB(b, spec, c.opts, tr, analysis.Invalid)
			}
			b.ReportMetric(float64(st.TE), "TE")
			b.ReportMetric(float64(st.PrunedByMemo), "memo-hits")
		})
	}
}
