// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the Figure 3 LAPD table, the Figure 4 invalid-TP0 table,
// the transitions-per-second comparison across specification sizes, the
// fanout measurements of §4.2, and the linear-time claim for valid traces.
// The experiment ids here match the index in DESIGN.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

// Recorder collects the measured rows of a run as machine-readable data, so
// the same execution that prints the paper-style tables can also emit a
// tango.experiments/1 report (cmd/experiments -report). A nil *Recorder is
// valid and records nothing.
type Recorder struct {
	Rows []obs.ExperimentRow
}

// Record appends one measured cell.
func (r *Recorder) Record(experiment, label string, verdict analysis.Verdict, stats analysis.Stats) {
	if r == nil {
		return
	}
	r.Rows = append(r.Rows, obs.ExperimentRow{
		Experiment: experiment,
		Label:      label,
		Verdict:    verdict.String(),
		Search:     stats.Report(),
	})
}

// Report packages the recorded rows.
func (r *Recorder) Report() *obs.ExperimentsReport {
	return &obs.ExperimentsReport{Schema: obs.ExperimentsSchema, Rows: r.Rows}
}

type recorderKey struct{}

// WithRecorder attaches a Recorder to the context passed to experiment
// runners; the runners' signatures stay uniform.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// recorderFrom returns the context's Recorder, or nil (record nothing).
func recorderFrom(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

// Modes are the four relative-order-checking configurations of the paper's
// tables, in presentation order.
var Modes = []analysis.OrderOpts{
	analysis.OrderNone,
	analysis.OrderIO,
	analysis.OrderIP,
	analysis.OrderFull,
}

// Row is one measurement row in a paper-style table.
type Row struct {
	Label   string
	Verdict analysis.Verdict
	Stats   analysis.Stats
}

// optionsFor builds analysis options for one mode with a transition budget.
func optionsFor(mode analysis.OrderOpts, budget int64) analysis.Options {
	return analysis.Options{Order: mode, MaxTransitions: budget}
}

func runOnce(ctx context.Context, spec *efsm.Spec, opts analysis.Options, tr *trace.Trace) (Row, error) {
	a, err := analysis.New(spec, opts)
	if err != nil {
		return Row{}, err
	}
	res, err := a.AnalyzeTraceContext(ctx, tr)
	if err != nil {
		return Row{}, err
	}
	return Row{Verdict: res.Verdict, Stats: res.Stats}, nil
}

func header(w io.Writer, cols ...string) {
	fmt.Fprintf(w, "%-8s %10s %8s %8s %8s %8s  %s\n",
		cols[0], "CPUT", "TE", "GE", "RE", "SA", "verdict")
	fmt.Fprintln(w, strings.Repeat("-", 70))
}

func printRow(w io.Writer, r Row) {
	fmt.Fprintf(w, "%-8s %10s %8d %8d %8d %8d  %s\n",
		r.Label, fmtDur(r.Stats.CPUTime), r.Stats.TE, r.Stats.GE, r.Stats.RE, r.Stats.SA,
		r.Verdict)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Microseconds()))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// ---------------------------------------------------------------------------
// FIG3: TAM on valid LAPD traces

// Fig3DIs are the data-interaction counts of Figure 3.
var Fig3DIs = []int{5, 10, 15, 25, 50, 75, 100}

// Fig3 reproduces Figure 3: execution statistics of a LAPD TAM on valid
// traces of increasing size under each order-checking mode.
func Fig3(ctx context.Context, w io.Writer) error {
	spec, err := efsm.Compile("lapd.estelle", specs.LAPD)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG3: TAM on valid LAPD traces (paper Figure 3)")
	fmt.Fprintf(w, "spec: lapd (%d transition declarations)\n\n", spec.TransitionCount())
	for _, mode := range Modes {
		fmt.Fprintf(w, "mode %s\n", mode)
		header(w, "DI")
		for _, di := range Fig3DIs {
			tr, err := workload.LAPDTrace(spec, di, int64(di))
			if err != nil {
				return fmt.Errorf("di=%d: %w", di, err)
			}
			row, err := runOnce(ctx, spec, analysis.Options{Order: mode}, tr)
			if err != nil {
				return err
			}
			row.Label = fmt.Sprint(di)
			printRow(w, row)
			recorderFrom(ctx).Record("fig3", fmt.Sprintf("%s/%d", mode, di), row.Verdict, row.Stats)
			if row.Verdict != analysis.Valid {
				return fmt.Errorf("fig3: di=%d mode=%s verdict=%s", di, mode, row.Verdict)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "expected shape (paper): TE/GE/RE/SA grow linearly with DI;")
	fmt.Fprintln(w, "search effort ordering NR >= IO >= IP >= FULL; RE is near zero under FULL.")
	return nil
}

// ---------------------------------------------------------------------------
// FIG4: TAM on invalid TP0 traces

// Fig4Row describes one Figure 4 configuration: k data interactions each way
// (the paper's depths 13/21/29 correspond to k = 3/5/7).
type Fig4Row struct {
	K    int
	Mode analysis.OrderOpts
}

// Fig4Rows are the configurations of Figure 4.
var Fig4Rows = []Fig4Row{
	{3, analysis.OrderNone},
	{3, analysis.OrderIO},
	{3, analysis.OrderIP},
	{3, analysis.OrderFull},
	{5, analysis.OrderFull},
	{7, analysis.OrderFull},
}

// Fig4InvalidTrace builds the §4.2 invalid TP0 trace with k data
// interactions in each direction, ending with a disconnect exchange, and the
// last data parameter corrupted.
func Fig4InvalidTrace(spec *efsm.Spec, k int) (*trace.Trace, error) {
	tr, err := workload.TP0BulkTrace(spec, k, int64(k), true)
	if err != nil {
		return nil, err
	}
	return workload.CorruptLastData(tr)
}

// Fig4 reproduces Figure 4: execution statistics on invalid TP0 traces.
func Fig4(ctx context.Context, w io.Writer, budget int64) error {
	spec, err := efsm.Compile("tp0.estelle", specs.TP0)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG4: TAM on invalid TP0 traces (paper Figure 4)")
	fmt.Fprintf(w, "spec: tp0 (%d transition declarations)\n\n", spec.TransitionCount())
	header(w, "k/mode")
	for _, cfg := range Fig4Rows {
		tr, err := Fig4InvalidTrace(spec, cfg.K)
		if err != nil {
			return err
		}
		opts := analysis.Options{Order: cfg.Mode, MaxTransitions: budget}
		row, err := runOnce(ctx, spec, opts, tr)
		if err != nil {
			return err
		}
		row.Label = fmt.Sprintf("%d/%s", depthOf(cfg.K), cfg.Mode)
		printRow(w, row)
		recorderFrom(ctx).Record("fig4", row.Label, row.Verdict, row.Stats)
	}
	fmt.Fprintln(w)

	// The fully-buffered trace variant, analyzed without order checking,
	// lands within a few counts of the paper's depth-13 NR row (TE 88329,
	// GE 36687, RE 51642, SA 34440) — strong evidence the paper's trace had
	// the same all-inputs-first shape for the unordered measurement.
	full, err := workload.TP0FullBufferTrace(spec, 3, 3, true)
	if err != nil {
		return err
	}
	full, err = workload.CorruptLastData(full)
	if err != nil {
		return err
	}
	row, err := runOnce(ctx, spec, analysis.Options{Order: analysis.OrderNone, MaxTransitions: budget}, full)
	if err != nil {
		return err
	}
	row.Label = "15/NR*"
	fmt.Fprintln(w, "fully-buffered trace variant (paper row: TE=88329 GE=36687 RE=51642 SA=34440):")
	printRow(w, row)
	recorderFrom(ctx).Record("fig4", row.Label, row.Verdict, row.Stats)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "expected shape (paper): without order checking the search explodes")
	fmt.Fprintln(w, "(paper: 1469s vs 0.9s at depth 13); under FULL the cost still grows")
	fmt.Fprintln(w, "exponentially with depth (0.9s -> 32.1s -> 2658s for depths 13/21/29).")
	return nil
}

// depthOf maps k (data interactions each way) to the nominal search depth the
// paper reports: handshake (2) + 4k relay transitions + disconnect (1).
func depthOf(k int) int { return 4*k + 3 }

// ---------------------------------------------------------------------------
// TPS: transitions per second vs specification size (§4 text)

// InflateLAPD appends n never-fireable transition declarations to the LAPD
// source, synthesizing the "behemoth-like" specification scale of the CNET
// LAPD (800+ declarations) to recover the paper's observation that bigger
// specifications search fewer transitions per second.
func InflateLAPD(n int) (string, error) {
	src := specs.LAPD
	marker := "end;\n\nend."
	i := strings.LastIndex(src, marker)
	if i < 0 {
		return "", fmt.Errorf("inflate: end marker not found")
	}
	var sb strings.Builder
	sb.WriteString(src[:i])
	for j := 0; j < n; j++ {
		fmt.Fprintf(&sb, `
  from st7 to st7 when P.RR provided (nr = %d) and (pf = %d) name pad%d:
    begin vs := vs; end;
`, 1000+j, 2000+j, j)
	}
	sb.WriteString(marker)
	return sb.String(), nil
}

// TPSResult is one throughput measurement.
type TPSResult struct {
	Spec      string
	Trans     int
	TE        int64
	CPU       time.Duration
	PerSecond float64
}

// TPS measures search throughput (transitions per second) across
// specifications of increasing size, as discussed in §4 (simple spec ≈ 250/s,
// TP0 ≈ 40–60/s, LAPD ≈ 10/s on a SUN 4; absolute numbers differ on modern
// hardware, the monotone decrease with specification size is the claim).
func TPS(ctx context.Context, w io.Writer) error {
	type target struct {
		name string
		spec *efsm.Spec
		tr   *trace.Trace
	}
	var targets []target

	echoSpec, err := efsm.Compile("echo.estelle", specs.Echo)
	if err != nil {
		return err
	}
	echoTr, err := workload.EchoTrace(echoSpec, 200, 1)
	if err != nil {
		return err
	}
	targets = append(targets, target{"echo", echoSpec, echoTr})

	tp0Spec, err := efsm.Compile("tp0.estelle", specs.TP0)
	if err != nil {
		return err
	}
	tp0Tr, err := workload.TP0Trace(tp0Spec, 40, 40, 1, true)
	if err != nil {
		return err
	}
	targets = append(targets, target{"tp0", tp0Spec, tp0Tr})

	lapdSpec, err := efsm.Compile("lapd.estelle", specs.LAPD)
	if err != nil {
		return err
	}
	lapdTr, err := workload.LAPDTrace(lapdSpec, 40, 1)
	if err != nil {
		return err
	}
	targets = append(targets, target{"lapd", lapdSpec, lapdTr})

	for _, n := range []int{200, 800} {
		src, err := InflateLAPD(n)
		if err != nil {
			return err
		}
		s, err := efsm.Compile("lapd-inflated.estelle", src)
		if err != nil {
			return err
		}
		tr, err := workload.LAPDTrace(s, 40, 1)
		if err != nil {
			return err
		}
		targets = append(targets, target{fmt.Sprintf("lapd+%d", n), s, tr})
	}

	fmt.Fprintln(w, "TPS: search throughput vs specification size (§4 text)")
	fmt.Fprintf(w, "%-12s %8s %10s %12s %14s\n", "spec", "trans", "TE", "CPUT", "trans/sec")
	fmt.Fprintln(w, strings.Repeat("-", 60))
	for _, tg := range targets {
		// Repeat the analysis to get a stable timing on fast hardware.
		const reps = 5
		var te int64
		var cpu time.Duration
		for r := 0; r < reps; r++ {
			row, err := runOnce(ctx, tg.spec, analysis.Options{Order: analysis.OrderNone}, tg.tr)
			if err != nil {
				return err
			}
			if row.Verdict != analysis.Valid {
				return fmt.Errorf("tps: %s verdict %s", tg.name, row.Verdict)
			}
			te += row.Stats.TE
			cpu += row.Stats.CPUTime
		}
		res := TPSResult{
			Spec:  tg.name,
			Trans: tg.spec.TransitionCount(),
			TE:    te,
			CPU:   cpu,
		}
		if cpu > 0 {
			res.PerSecond = float64(te) / cpu.Seconds()
		}
		fmt.Fprintf(w, "%-12s %8d %10d %12s %14.0f\n",
			res.Spec, res.Trans, res.TE, fmtDur(res.CPU), res.PerSecond)
		recorderFrom(ctx).Record("tps", res.Spec, analysis.Valid,
			analysis.Stats{TE: res.TE, SearchTime: res.CPU, CPUTime: res.CPU})
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "expected shape (paper): throughput decreases as the number of")
	fmt.Fprintln(w, "transition declarations grows (250/s -> 40-60/s -> 10/s on SUN 4),")
	fmt.Fprintln(w, "because Generate evaluates the guard of every declaration. Here Generate")
	fmt.Fprintln(w, "skips the guards whose leading `param = constant` test the input refutes,")
	fmt.Fprintln(w, "and every lapd+N pad is keyed on nr, so the trend is a property of the")
	fmt.Fprintln(w, "unindexed Generate: the lapd+N rows need not fall below lapd's.")
	return nil
}

// ---------------------------------------------------------------------------
// FANOUT: §4.2 average-fanout measurements

// Fanout reports the average search-tree fanout on invalid TP0 traces with
// and without full order checking (paper: 2.6 vs 1.5).
func Fanout(ctx context.Context, w io.Writer, budget int64) error {
	spec, err := efsm.Compile("tp0.estelle", specs.TP0)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FANOUT: average fanout on invalid TP0 traces (§4.2)")
	fmt.Fprintf(w, "%-8s %-6s %10s %10s %8s\n", "k", "mode", "TE", "GE", "fanout")
	fmt.Fprintln(w, strings.Repeat("-", 48))
	for _, k := range []int{2, 3} {
		tr, err := Fig4InvalidTrace(spec, k)
		if err != nil {
			return err
		}
		for _, mode := range []analysis.OrderOpts{analysis.OrderNone, analysis.OrderFull} {
			row, err := runOnce(ctx, spec, analysis.Options{Order: mode, MaxTransitions: budget}, tr)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8d %-6s %10d %10d %8.2f\n",
				k, mode, row.Stats.TE, row.Stats.GE, row.Stats.AverageFanout())
			recorderFrom(ctx).Record("fanout", fmt.Sprintf("%d/%s", k, mode), row.Verdict, row.Stats)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "expected shape (paper): full checking reduces fanout (2.6 -> 1.5).")
	return nil
}

// ---------------------------------------------------------------------------
// LINEAR: valid traces analyze in linear time under order checking

// Linear demonstrates the §2.4.2/§4.2 claim: on valid traces with full order
// checking, TE grows linearly with trace length and RE stays near zero.
func Linear(ctx context.Context, w io.Writer) error {
	tp0, err := efsm.Compile("tp0.estelle", specs.TP0)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "LINEAR: valid-trace cost vs length under FULL checking (§4.2)")
	fmt.Fprintf(w, "%-8s %8s %8s %8s %12s\n", "events", "TE", "RE", "depth", "TE/event")
	fmt.Fprintln(w, strings.Repeat("-", 50))
	for _, k := range []int{5, 10, 20, 40, 80} {
		tr, err := workload.TP0Trace(tp0, k, k, int64(k), true)
		if err != nil {
			return err
		}
		row, err := runOnce(ctx, tp0, analysis.Options{Order: analysis.OrderFull}, tr)
		if err != nil {
			return err
		}
		if row.Verdict != analysis.Valid {
			return fmt.Errorf("linear: k=%d verdict %s", k, row.Verdict)
		}
		fmt.Fprintf(w, "%-8d %8d %8d %8d %12.2f\n",
			tr.Len(), row.Stats.TE, row.Stats.RE, row.Stats.MaxDepth,
			float64(row.Stats.TE)/float64(tr.Len()))
		recorderFrom(ctx).Record("linear", fmt.Sprint(tr.Len()), row.Verdict, row.Stats)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "expected shape (paper): TE/event stays constant; RE stays near zero.")
	return nil
}

// ---------------------------------------------------------------------------
// FIG1 / FIG2 scenario demonstrations

// Fig1 demonstrates the §3.1 ack scenario: on-line analysis that requires
// revisiting PG-nodes.
func Fig1(ctx context.Context, w io.Writer) error {
	spec, err := efsm.Compile("ack.estelle", specs.Ack)
	if err != nil {
		return err
	}
	ev := func(d trace.Dir, ip, inter string) trace.Event {
		return trace.Event{Dir: d, IP: ip, Interaction: inter}
	}
	src := trace.NewSliceSource([][]trace.Event{
		{ev(trace.In, "A", "x"), ev(trace.In, "A", "x"), ev(trace.In, "A", "x")},
		{ev(trace.In, "B", "y"), ev(trace.Out, "A", "ack")},
	}, true)
	a, err := analysis.New(spec, analysis.Options{})
	if err != nil {
		return err
	}
	res, err := a.AnalyzeSourceContext(ctx, src)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG1: on-line analysis of the ack specification (§3.1)")
	fmt.Fprintf(w, "inputs [x x x] at A, [y] at B, output [ack]\n")
	fmt.Fprintf(w, "verdict: %s\n", res.Verdict)
	fmt.Fprintf(w, "solution: %s\n", res.SolutionString())
	fmt.Fprintf(w, "stats: TE=%d GE=%d RE=%d SA=%d PG-nodes=%d re-generates=%d\n",
		res.Stats.TE, res.Stats.GE, res.Stats.RE, res.Stats.SA,
		res.Stats.PGNodes, res.Stats.Regens)
	recorderFrom(ctx).Record("fig1", "ack", res.Verdict, res.Stats)
	return nil
}

// Fig2 demonstrates §3.1.2 on ip3': the invalid interaction o is undetected
// while data keeps flowing at B/C, and detected once the EOF marker arrives.
func Fig2(ctx context.Context, w io.Writer) error {
	spec, err := efsm.Compile("ip3prime.estelle", specs.IP3Prime)
	if err != nil {
		return err
	}
	tr, err := trace.ReadString(`
in A x
out A p
out A o
in B data
out C data
in C data
out B data
`)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG2: ip3' and the limits of on-line verdicts (§3.1.2)")
	for _, withEOF := range []bool{false, true} {
		src := trace.NewSliceSource([][]trace.Event{tr.Events}, withEOF)
		a, err := analysis.New(spec, analysis.Options{MaxIdlePolls: 4})
		if err != nil {
			return err
		}
		res, err := a.AnalyzeSourceContext(ctx, src)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "eof-marker=%-5v -> verdict: %s\n", withEOF, res.Verdict)
		recorderFrom(ctx).Record("fig2", fmt.Sprintf("eof=%v", withEOF), res.Verdict, res.Stats)
	}
	fmt.Fprintln(w, "expected (paper): no conclusive result before the eof marker;")
	fmt.Fprintln(w, "invalid once the marker forces termination.")
	return nil
}

// ---------------------------------------------------------------------------
// Registry

// All maps experiment ids to runners. Budget-bound experiments receive the
// given transition budget.
func All(budget int64) map[string]func(context.Context, io.Writer) error {
	return map[string]func(context.Context, io.Writer) error{
		"fig1":   Fig1,
		"fig2":   Fig2,
		"fig3":   Fig3,
		"fig4":   func(ctx context.Context, w io.Writer) error { return Fig4(ctx, w, budget) },
		"tps":    TPS,
		"fanout": func(ctx context.Context, w io.Writer) error { return Fanout(ctx, w, budget) },
		"linear": Linear,
	}
}

// Names returns the experiment ids in run order.
func Names() []string {
	names := []string{"fig1", "fig2", "fig3", "fig4", "tps", "fanout", "linear"}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return names
}
