package analysis

import (
	"strings"
	"testing"

	"repro/internal/efsm"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/specs"
)

func compile(t *testing.T, name, src string) *efsm.Spec {
	t.Helper()
	spec, err := efsm.Compile(name, src)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return spec
}

func mustTrace(t *testing.T, text string) *trace.Trace {
	t.Helper()
	tr, err := trace.ReadString(text)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func analyze(t *testing.T, spec *efsm.Spec, opts Options, text string) *Result {
	t.Helper()
	a, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeTrace(mustTrace(t, text))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// --- ack (Figure 1) -------------------------------------------------------

const ackScenario = `
in A x
in A x
in A x
in B y
out A ack
`

func TestAckValidStatic(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	res := analyze(t, spec, Options{}, ackScenario)
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", res.Verdict)
	}
	// The accepting path must be T1 T2 T3 T1 or a permutation placing T2 at
	// one of the three x positions before y.
	sol := res.SolutionString()
	if !strings.Contains(sol, "T2") || !strings.Contains(sol, "T3") {
		t.Fatalf("solution %q does not use T2 and T3", sol)
	}
	if len(res.Solution) != 4 {
		t.Fatalf("solution length = %d, want 4 (%s)", len(res.Solution), sol)
	}
}

func TestAckInvalidStatic(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	// Two acks can never be produced from one y.
	res := analyze(t, spec, Options{}, `
in A x
in B y
out A ack
out A ack
`)
	if res.Verdict != Invalid {
		t.Fatalf("verdict = %v, want invalid", res.Verdict)
	}
}

func TestAckRequiresBacktracking(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	res := analyze(t, spec, Options{}, ackScenario)
	if res.Stats.RE == 0 {
		t.Fatalf("expected backtracking (RE > 0), stats: %+v", res.Stats)
	}
}

// TestAckOnline replays §3.1: inputs arrive in chunks, the greedy path
// consumes everything at A, and MDFS must revisit PG-nodes to validate.
func TestAckOnline(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	ev := func(dir trace.Dir, ip, inter string) trace.Event {
		return trace.Event{Dir: dir, IP: ip, Interaction: inter}
	}
	for _, reorder := range []bool{false, true} {
		src := trace.NewSliceSource([][]trace.Event{
			{ev(trace.In, "A", "x"), ev(trace.In, "A", "x"), ev(trace.In, "A", "x")},
			{ev(trace.In, "B", "y")},
			{ev(trace.Out, "A", "ack")},
		}, true)
		a, err := New(spec, Options{Reorder: reorder})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.AnalyzeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Valid {
			t.Fatalf("reorder=%v: verdict = %v, want valid", reorder, res.Verdict)
		}
	}
}

// TestAckOnlineNoEOF checks the §3.1.2 in-progress verdict: without an EOF
// marker, a consistent prefix yields "valid so far".
func TestAckOnlineNoEOF(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	src := trace.NewSliceSource([][]trace.Event{
		{{Dir: trace.In, IP: "A", Interaction: "x"}},
	}, false)
	a, err := New(spec, Options{MaxIdlePolls: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != ValidSoFar {
		t.Fatalf("verdict = %v, want valid so far", res.Verdict)
	}
}

// --- ip3 / ip3' (Figure 2) ------------------------------------------------

// the §3.1.2 scenario: x then o at A is invalid for ip3' but the B/C data
// cycling keeps MDFS inconclusive until EOF.
const ip3Scenario = `
in A x
out A p
out A o
in B data
out C data
in C data
out B data
`

func TestIP3PrimeInvalidOnlyAtEOF(t *testing.T) {
	spec := compile(t, "ip3prime", specs.IP3Prime)

	// Without the EOF marker: no conclusive result (likely invalid).
	tr := mustTrace(t, ip3Scenario)
	src := trace.NewSliceSource([][]trace.Event{tr.Events}, false)
	a, err := New(spec, Options{MaxIdlePolls: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != LikelyInvalid {
		t.Fatalf("pre-EOF verdict = %v, want likely invalid", res.Verdict)
	}

	// With the EOF marker the invalid interaction is detected conclusively.
	src = trace.NewSliceSource([][]trace.Event{tr.Events}, true)
	a, err = New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = a.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Invalid {
		t.Fatalf("post-EOF verdict = %v, want invalid", res.Verdict)
	}
}

func TestIP3ValidAfterFinished(t *testing.T) {
	spec := compile(t, "ip3", specs.IP3)
	// With t4/t5 defined, finishing B and sending another x validates o.
	res := analyze(t, spec, Options{}, ip3Scenario+`
in B finished
in A x
`)
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", res.Verdict)
	}
}

// --- order checking -------------------------------------------------------

// TestOrderModesReduceSearch checks the paper's central performance claim:
// enabling relative order checking reduces TE/GE/SA on valid traces.
func TestOrderModesReduceSearch(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	valid := `
in U TCONreq
out N CR
in N CC
out U TCONconf
in U TDTreq d=1
out N DT d=1
in N DT d=2
out U TDTind d=2
in U TDTreq d=3
out N DT d=3
in U TDISreq
out N DR
`
	none := analyze(t, spec, Options{Order: OrderNone}, valid)
	full := analyze(t, spec, Options{Order: OrderFull}, valid)
	if none.Verdict != Valid || full.Verdict != Valid {
		t.Fatalf("verdicts: none=%v full=%v, want valid", none.Verdict, full.Verdict)
	}
	if full.Stats.TE > none.Stats.TE {
		t.Fatalf("full checking searched more transitions (%d) than none (%d)",
			full.Stats.TE, none.Stats.TE)
	}
}

// TestOrderRejectsSwappedOutputs: under full checking, swapping two outputs
// at different IPs that were NOT produced by one transition must invalidate
// the trace, while NR mode accepts it.
func TestOrderRejectsSwappedOutputs(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	// CR is output before TCONconf in any conforming run (T1 fires before
	// T2). Swapped here:
	swapped := `
in U TCONreq
in N CC
out U TCONconf
out N CR
`
	full := analyze(t, spec, Options{Order: OrderFull}, swapped)
	if full.Verdict != Invalid {
		t.Fatalf("full: verdict = %v, want invalid", full.Verdict)
	}
	// Without order checking the same multiset of events is explainable.
	none := analyze(t, spec, Options{Order: OrderNone}, swapped)
	if none.Verdict != Valid {
		t.Fatalf("none: verdict = %v, want valid", none.Verdict)
	}
}

// TestIPOrderPermutationSpecialCase: outputs of a single transition block to
// different IPs may be permuted in the trace under IP-order checking
// (§2.4.2). LAPD's m9 outputs P.UA then U.DLRELind in one block.
func TestIPOrderPermutationSpecialCase(t *testing.T) {
	spec := compile(t, "lapd", specs.LAPD)
	base := `
in U DLESTreq
out P SABME p=1
in P UA f=1
out U DLESTconf
in P DISC p=1
`
	for _, tail := range []string{
		"out P UA f=1\nout U DLRELind\n",
		"out U DLRELind\nout P UA f=1\n",
	} {
		res := analyze(t, spec, Options{Order: OrderFull}, base+tail)
		if res.Verdict != Valid {
			t.Fatalf("tail %q: verdict = %v, want valid", tail, res.Verdict)
		}
	}
}

// --- runtime options ------------------------------------------------------

func TestDisableIP(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	// Outputs at N are unobservable; disabling N accepts the trace without
	// its CR/DT outputs.
	text := `
in U TCONreq
in N CC
out U TCONconf
in U TDTreq d=1
`
	without := analyze(t, spec, Options{Order: OrderFull}, text)
	if without.Verdict != Invalid {
		t.Fatalf("without disable: verdict = %v, want invalid", without.Verdict)
	}
	with := analyze(t, spec, Options{Order: OrderFull, DisabledIPs: []string{"N"}}, text)
	if with.Verdict != Valid {
		t.Fatalf("with disable: verdict = %v, want valid", with.Verdict)
	}
}

func TestDisableIPUnknownName(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	if _, err := New(spec, Options{DisabledIPs: []string{"XYZ"}}); err == nil {
		t.Fatal("expected error for unknown ip")
	}
}

// TestInitialStateSearch: a trace captured mid-connection (starting in the
// data state) fails from the default initial state but succeeds with the
// §2.4.1 initial-state search.
func TestInitialStateSearch(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	midTrace := `
in N DT d=7
out U TDTind d=7
in U TDISreq
out N DR
`
	plain := analyze(t, spec, Options{Order: OrderFull}, midTrace)
	if plain.Verdict != Invalid {
		t.Fatalf("without search: verdict = %v, want invalid", plain.Verdict)
	}
	searched := analyze(t, spec, Options{Order: OrderFull, InitialStateSearch: true}, midTrace)
	if searched.Verdict != Valid {
		t.Fatalf("with search: verdict = %v, want valid", searched.Verdict)
	}
	if searched.InitialState == spec.Prog.InitTo {
		t.Fatalf("accepted from the default initial state unexpectedly")
	}
	if name := spec.StateName(searched.InitialState); name != "data" {
		t.Fatalf("accepted from %s, want data", name)
	}
}

// --- state hashing --------------------------------------------------------

// TestStateHashingPrunes: on an invalid TP0 trace the visited-state table
// must cut the search without changing the verdict.
func TestStateHashingPrunes(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	invalid := `
in U TCONreq
out N CR
in N CC
out U TCONconf
in U TDTreq d=1
in N DT d=2
in U TDTreq d=3
in N DT d=4
out N DT d=1
out U TDTind d=2
out N DT d=3
out U TDTind d=99
`
	plain := analyze(t, spec, Options{Order: OrderNone}, invalid)
	hashed := analyze(t, spec, Options{Order: OrderNone, StateHashing: true}, invalid)
	if plain.Verdict != Invalid || hashed.Verdict != Invalid {
		t.Fatalf("verdicts: plain=%v hashed=%v, want invalid", plain.Verdict, hashed.Verdict)
	}
	if hashed.Stats.TE >= plain.Stats.TE {
		t.Fatalf("hashing did not prune: %d >= %d TE", hashed.Stats.TE, plain.Stats.TE)
	}
	if hashed.Stats.HashHits == 0 {
		t.Fatal("no hash hits recorded")
	}
}

// --- partial traces (§5) --------------------------------------------------

// TestUnobservedIP: analyzing TP0 with the upper interface hidden (the LAPD
// §4.1 problem transposed): inputs at U are synthesized with undefined
// parameters, outputs at U are also unobservable so U is disabled too.
func TestUnobservedIP(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	lowerOnly := `
out N CR
in N CC
out N DT d=1
out N DT d=2
in N DT d=9
`
	a, err := New(spec, Options{
		Order:         OrderFull,
		UnobservedIPs: []string{"U"},
		DisabledIPs:   []string{"U"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeTrace(mustTrace(t, lowerOnly))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid (stats %+v)", res.Verdict, res.Stats)
	}
	if res.Stats.SynthIn == 0 {
		t.Fatal("no synthesized inputs recorded")
	}
}

// TestUnobservedIPStillRejects: hidden inputs cannot explain an impossible
// output sequence (two CRs in a row without leaving wfcc is impossible).
func TestUnobservedIPStillRejects(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	impossible := `
out N CR
out N CR
`
	a, err := New(spec, Options{
		Order:            OrderFull,
		UnobservedIPs:    []string{"U"},
		DisabledIPs:      []string{"U"},
		SynthInputBudget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeTrace(mustTrace(t, impossible))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Invalid {
		t.Fatalf("verdict = %v, want invalid", res.Verdict)
	}
}

// TestUndefinedParamMatchesAnything: §5.1 — "?" in a trace parameter matches
// any generated value.
func TestUndefinedParamMatchesAnything(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	text := `
in U TCONreq
out N CR
in N CC
out U TCONconf
in U TDTreq d=5
out N DT d=?
`
	res := analyze(t, spec, Options{Order: OrderFull, Partial: true}, text)
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", res.Verdict)
	}
}

// TestDemuxPartialFails: §5.4 — with the router input unobservable, the
// output IP index is undefined; analysis must reject rather than guess.
func TestDemuxPartialFails(t *testing.T) {
	spec := compile(t, "demux", specs.Demux)
	a, err := New(spec, Options{UnobservedIPs: []string{"INP"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeTrace(mustTrace(t, "out OUTP[1] pkt dest=1 d=4\n"))
	if err != nil {
		t.Fatal(err)
	}
	// The undefined-index branch dies (runtime error kills the path), so no
	// path explains the output: the analyzer reports invalid rather than a
	// wrong valid.
	if res.Verdict != Invalid {
		t.Fatalf("verdict = %v, want invalid", res.Verdict)
	}
}

// TestDemuxObservedValid: with full observation demux traces validate.
func TestDemuxObservedValid(t *testing.T) {
	spec := compile(t, "demux", specs.Demux)
	res := analyze(t, spec, Options{Order: OrderFull}, `
in INP pkt dest=5 d=40
out OUTP[1] pkt dest=5 d=40
in INP pkt dest=4 d=41
out OUTP[0] pkt dest=4 d=41
`)
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", res.Verdict)
	}
}

// --- PGAV pruning (footnote 2) ---------------------------------------------

func TestPGAVPrune(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	ev := func(dir trace.Dir, ip, inter string) trace.Event {
		return trace.Event{Dir: dir, IP: ip, Interaction: inter}
	}
	src := trace.NewSliceSource([][]trace.Event{
		{ev(trace.In, "A", "x"), ev(trace.In, "A", "x")},
		{ev(trace.In, "B", "y"), ev(trace.Out, "A", "ack")},
		{ev(trace.In, "A", "x")},
	}, true)
	a, err := New(spec, Options{PGAVPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// This trace is valid and PGAV pruning keeps (at least) the AV thread.
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", res.Verdict)
	}
}

// --- verdict/result plumbing ------------------------------------------------

func TestExhaustedVerdict(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	invalid := `
in U TCONreq
out N CR
in N CC
out U TCONconf
in U TDTreq d=1
in N DT d=2
in U TDTreq d=3
in N DT d=4
out N DT d=1
out U TDTind d=2
out N DT d=3
out U TDTind d=99
`
	a, err := New(spec, Options{Order: OrderNone, MaxTransitions: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeTrace(mustTrace(t, invalid))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Exhausted {
		t.Fatalf("verdict = %v, want exhausted", res.Verdict)
	}
}

func TestEmptyTraceValid(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	res := analyze(t, spec, Options{}, "")
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", res.Verdict)
	}
	if len(res.Solution) != 0 {
		t.Fatalf("empty trace should need no transitions, got %s", res.SolutionString())
	}
}

func TestTraceResolutionErrors(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	a, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"in X TCONreq\n",       // unknown ip
		"in U NOPE\n",          // unknown interaction
		"out U TCONreq\n",      // wrong direction (user-sendable only)
		"in U TDTreq d=oops\n", // bad parameter value
		"in U TDTreq nope=3\n", // unknown parameter name
	}
	for _, text := range cases {
		if _, err := a.AnalyzeTrace(mustTrace(t, text)); err == nil {
			t.Errorf("trace %q: expected resolution error", strings.TrimSpace(text))
		}
	}
}

func TestStatsCounters(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	res := analyze(t, spec, Options{Order: OrderFull}, `
in U TCONreq
out N CR
in N CC
out U TCONconf
`)
	if res.Verdict != Valid {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	s := res.Stats
	if s.TE < 2 || s.GE < 2 {
		t.Fatalf("implausible counters: %+v", s)
	}
	if s.CPUTime <= 0 {
		t.Fatalf("no CPU time recorded")
	}
	if s.AverageFanout() <= 0 {
		t.Fatalf("fanout not computed")
	}
}

// TestIngestSharedValues: ingest resolves a batch into values cut from one
// array and drops outputs at disabled IPs. Every kept event's Params must
// end at its own last value, and a Session reusing the analyzer must index
// the next trace afresh. Errors keep trace order: an input at an unobserved
// IP comes before a later event that does not resolve.
func TestIngestSharedValues(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	a, err := New(spec, Options{Order: OrderFull, DisabledIPs: []string{"U"}})
	if err != nil {
		t.Fatal(err)
	}
	long := "in U TCONreq\nout N CR\nin N CC\nout U TCONconf\nin U TDTreq d=1\nout N DT d=1\n" +
		"in N DT d=2\nout U TDTind d=2\nin U TDTreq d=3\nout N DT d=3\n"
	for _, text := range []string{long, "in U TCONreq\nout N CR\n", long} {
		res, err := a.AnalyzeTrace(mustTrace(t, text))
		if err != nil || res.Verdict != Valid {
			t.Fatalf("verdict %v, err %v", res.Verdict, err)
		}
		for i, ev := range a.events {
			if cap(ev.Params) != len(ev.Params) {
				t.Fatalf("event %d: cap %d != len %d", i, cap(ev.Params), len(ev.Params))
			}
			if ev.Dir == trace.Out && ev.IP == 0 {
				t.Fatalf("event %d: output at disabled U kept", i)
			}
		}
		for i := 0; i+1 < len(a.events); i++ {
			next := append([]vm.Value(nil), a.events[i+1].Params...)
			_ = append(a.events[i].Params, vm.MakeInt(99))
			for k := range next {
				if a.events[i+1].Params[k].I != next[k].I {
					t.Fatalf("append to event %d changed event %d", i, i+1)
				}
			}
		}
	}

	hidden, err := New(spec, Options{UnobservedIPs: []string{"U"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = hidden.AnalyzeTrace(mustTrace(t, "out N CR\nin U TCONreq\nin X Y\n"))
	if err == nil || !strings.Contains(err.Error(), "unobserved ip U") {
		t.Fatalf("err = %v, want the unobserved-ip error of line 2", err)
	}
}
