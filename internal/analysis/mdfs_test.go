package analysis

import (
	"strings"
	"testing"

	"repro/internal/efsm"
	"repro/internal/gen"
	"repro/internal/trace"
	"repro/specs"
)

func newGen(t *testing.T, spec *efsm.Spec, seed int64) *gen.Generator {
	t.Helper()
	g, err := gen.New(spec, gen.NewSeededScheduler(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// --- §3.2.1 degenerate case -------------------------------------------------

// threeIPSpec has an extra IP C whose input never arrives in the workload.
const threeIPSpec = `specification deg;
channel CH(a, b);
  by a: m;
  by b: r;
module M systemprocess;
  ip A : CH(b) individual queue;
     B : CH(b) individual queue;
     C : CH(b) individual queue;
end;
body MB for M;
state S0;
initialize to S0 begin end;
trans
  from S0 to S0 when A.m name ta: begin output A.r; end;
  from S0 to S0 when B.m name tb: begin output B.r; end;
  from S0 to S0 when C.m name tc: begin output C.r; end;
end;
end.`

// TestDegenerateMDFSCase reproduces §3.2.1: with an unused IP every node is
// partially generated and must be saved; disabling the IP eliminates the PG
// flood.
func TestDegenerateMDFSCase(t *testing.T) {
	spec := compile(t, "deg", threeIPSpec)
	mkSrc := func() trace.Source {
		var chunks [][]trace.Event
		for i := 0; i < 8; i++ {
			chunks = append(chunks, []trace.Event{
				{Dir: trace.In, IP: "A", Interaction: "m"},
				{Dir: trace.Out, IP: "A", Interaction: "r"},
				{Dir: trace.In, IP: "B", Interaction: "m"},
				{Dir: trace.Out, IP: "B", Interaction: "r"},
			})
		}
		return trace.NewSliceSource(chunks, true)
	}

	a, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeSource(mkSrc())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Valid {
		t.Fatalf("verdict %v", res.Verdict)
	}
	floodPG := res.Stats.PGNodes

	a, err = New(spec, Options{DisabledIPs: []string{"C"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = a.AnalyzeSource(mkSrc())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Valid {
		t.Fatalf("disabled: verdict %v", res.Verdict)
	}
	if res.Stats.PGNodes >= floodPG {
		t.Fatalf("disable_ip did not reduce PG flood: %d -> %d",
			floodPG, res.Stats.PGNodes)
	}
}

// --- §2.4.1 unknown initial variable values ---------------------------------

func TestUndefineGlobals(t *testing.T) {
	spec := compile(t, "echo", specs.Echo)
	// A trace collected mid-run: the responder's expected sequence bit is 1,
	// not the initial 0, so the echoed payload only matches if the analyzer
	// does not trust the initialize values.
	text := `
in S req seq=1 d=5
out S resp seq=1 d=5
`
	plain := analyze(t, spec, Options{Order: OrderFull}, text)
	if plain.Verdict != Invalid {
		t.Fatalf("plain verdict %v, want invalid (init expects seq=0)", plain.Verdict)
	}
	undef := analyze(t, spec, Options{Order: OrderFull, UndefineGlobals: true}, text)
	if undef.Verdict != Valid {
		t.Fatalf("undefined-globals verdict %v, want valid", undef.Verdict)
	}
}

// --- on-line plumbing -------------------------------------------------------

// TestOnlineInvalidDetectedEarly: an impossible interaction in the first
// chunk yields invalid as soon as EOF arrives even if later data is fine.
func TestOnlineInvalidDetectedAtEOF(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	src := trace.NewSliceSource([][]trace.Event{
		{{Dir: trace.Out, IP: "N", Interaction: "CC"}}, // TP0 never outputs CC from idle
		{{Dir: trace.In, IP: "U", Interaction: "TCONreq"}},
	}, true)
	a, err := New(spec, Options{Order: OrderFull})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Invalid {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

// TestOnlineViaReaderSource drives the full text pipeline on-line.
func TestOnlineViaReaderSource(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	text := `
in U TCONreq
out N CR
in N CC
out U TCONconf
in U TDTreq d=4
out N DT d=4
eof
`
	a, err := New(spec, Options{Order: OrderFull})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeSource(trace.NewReaderSource(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Valid {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

// TestOnlineMatchesOffline: for a batch of generated TP0 traces, on-line
// analysis (chunked delivery, both MDFS variants) agrees with the off-line
// verdict.
func TestOnlineMatchesOffline(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	mkChunks := func(tr *trace.Trace, size int) [][]trace.Event {
		var chunks [][]trace.Event
		for i := 0; i < len(tr.Events); i += size {
			end := i + size
			if end > len(tr.Events) {
				end = len(tr.Events)
			}
			chunk := make([]trace.Event, end-i)
			copy(chunk, tr.Events[i:end])
			chunks = append(chunks, chunk)
		}
		return chunks
	}
	traces := []string{
		"in U TCONreq\nout N CR\nin N CC\nout U TCONconf\n",
		"in U TCONreq\nout N CR\nin N CC\nout U TCONconf\nin U TDTreq d=1\nout N DT d=1\n",
		// invalid: DT before connection
		"out N DT d=1\nin U TCONreq\n",
	}
	for _, text := range traces {
		tr := mustTrace(t, text)
		off := analyze(t, spec, Options{Order: OrderFull}, text)
		for _, reorder := range []bool{false, true} {
			for _, size := range []int{1, 3} {
				a, err := New(spec, Options{Order: OrderFull, Reorder: reorder})
				if err != nil {
					t.Fatal(err)
				}
				res, err := a.AnalyzeSource(trace.NewSliceSource(mkChunks(tr, size), true))
				if err != nil {
					t.Fatal(err)
				}
				if res.Verdict != off.Verdict {
					t.Fatalf("trace %q reorder=%v size=%d: online %v != offline %v",
						text, reorder, size, res.Verdict, off.Verdict)
				}
			}
		}
	}
}

// --- priority ----------------------------------------------------------------

const prioSpec = `specification prio;
channel CH(a, b);
  by a: m;
  by b: hi; lo;
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
state S0;
initialize to S0 begin end;
trans
  from S0 to S0 when P.m priority 5 name low: begin output P.lo; end;
  from S0 to S0 when P.m priority 1 name high: begin output P.hi; end;
end;
end.`

func TestPriorityMasksLowerTransitions(t *testing.T) {
	spec := compile(t, "prio", prioSpec)
	// Only the high-priority response is a conforming behaviour.
	if res := analyze(t, spec, Options{}, "in P m\nout P hi\n"); res.Verdict != Valid {
		t.Fatalf("hi: verdict %v", res.Verdict)
	}
	if res := analyze(t, spec, Options{}, "in P m\nout P lo\n"); res.Verdict != Invalid {
		t.Fatalf("lo: verdict %v, want invalid (masked by priority)", res.Verdict)
	}
}

// --- non-progress cycles ------------------------------------------------------

const cycleSpec = `specification cyc;
channel CH(a, b);
  by a: m;
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
var x : integer;
state S0, S1;
initialize to S0 begin x := 0 end;
trans
  from S0 to S1 name hop: begin end;
  from S1 to S0 name back: begin end;
end;
end.`

// TestNonProgressCycleBounded: the depth bound keeps DFS finite on specs with
// non-progress cycles (which the paper requires the user to avoid); state
// hashing detects the cycle immediately.
func TestNonProgressCycleBounded(t *testing.T) {
	spec := compile(t, "cyc", cycleSpec)
	// The trace has an input the spec can never consume.
	text := "in P m\n"
	res := analyze(t, spec, Options{MaxDepth: 50, MaxTransitions: 10_000}, text)
	if res.Verdict != Invalid {
		t.Fatalf("verdict %v (stats %+v)", res.Verdict, res.Stats)
	}
	hashed := analyze(t, spec, Options{MaxDepth: 50, StateHashing: true}, text)
	if hashed.Verdict != Invalid {
		t.Fatalf("hashed verdict %v", hashed.Verdict)
	}
	if hashed.Stats.TE > 4 {
		t.Fatalf("hashing should cut the cycle immediately: TE=%d", hashed.Stats.TE)
	}
}

// --- IP arrays through the analyzer ------------------------------------------

func TestDemuxIPOrderChecking(t *testing.T) {
	spec := compile(t, "demux", specs.Demux)
	// Round-robin routing with full order checking across the OUTP array.
	res := analyze(t, spec, Options{Order: OrderFull}, `
in INP pkt dest=0 d=1
out OUTP[0] pkt dest=0 d=1
in INP pkt dest=1 d=2
out OUTP[1] pkt dest=1 d=2
in INP pkt dest=2 d=3
out OUTP[2] pkt dest=2 d=3
`)
	if res.Verdict != Valid {
		t.Fatalf("verdict %v", res.Verdict)
	}
	// Mis-routed packet.
	res = analyze(t, spec, Options{Order: OrderFull}, `
in INP pkt dest=0 d=1
out OUTP[3] pkt dest=0 d=1
`)
	if res.Verdict != Invalid {
		t.Fatalf("misroute verdict %v", res.Verdict)
	}
}

// --- generated-trace soundness property ---------------------------------------

// TestGeneratedLAPDTracesValidAllModes: the fundamental soundness property on
// the LAPD side, across seeds and modes.
func TestGeneratedLAPDTracesValidAllModes(t *testing.T) {
	spec := compile(t, "lapd", specs.LAPD)
	for seed := int64(1); seed <= 5; seed++ {
		tr := lapdTrace(t, spec, 6, seed)
		for _, mode := range []OrderOpts{OrderNone, OrderIO, OrderIP, OrderFull} {
			a, err := New(spec, Options{Order: mode})
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.AnalyzeTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != Valid {
				t.Fatalf("seed %d mode %v: %v\n%s", seed, mode, res.Verdict, trace.Format(tr))
			}
		}
	}
}

// lapdTrace is a minimal local copy of the workload driver (the workload
// package imports analysis, so analysis tests cannot import it back).
func lapdTrace(t *testing.T, spec *efsm.Spec, di int, seed int64) *trace.Trace {
	t.Helper()
	g := newGen(t, spec, seed)
	feed := func(ip, inter string, params map[string]string) {
		t.Helper()
		if err := g.Feed(ip, inter, params); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(16); err != nil {
			t.Fatal(err)
		}
	}
	feed("U", "DLESTreq", nil)
	feed("P", "UA", map[string]string{"f": "1"})
	for i := 0; i < di; i++ {
		feed("U", "DLDATAreq", map[string]string{"d": "3"})
		feed("P", "RR", map[string]string{"nr": itoa((i + 1) % 128), "pf": "0"})
	}
	feed("U", "DLRELreq", nil)
	feed("P", "UA", map[string]string{"f": "1"})
	return g.Trace()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// --- any-state transitions ----------------------------------------------------

const anyStateSpec = `specification anyst;
channel CH(a, b);
  by a: ping;
  by b: pong;
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
state S0, S1;
initialize to S0 begin end;
trans
  { no from clause: fireable in every state }
  when P.ping name anyping: begin output P.pong; end;

  from S0 to S1 provided true name hop: begin output P.pong; end;
end;
end.`

// TestAnyStateTransition: a transition without a from clause fires in every
// FSM state.
func TestAnyStateTransition(t *testing.T) {
	spec := compile(t, "anyst", anyStateSpec)
	// ping answered in S0, then after hop (extra pong) in S1 too.
	res := analyze(t, spec, Options{Order: OrderFull}, `
in P ping
out P pong
out P pong
in P ping
out P pong
`)
	if res.Verdict != Valid {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

// poppedAncestorSpec lets a dead branch (t1) explain as many events as the
// live one (t2 t5) before the live one parks at a PG-node in S3.
const poppedAncestorSpec = `specification popped;
channel CH(a, b);
  by a: m(v : integer);
  by b: r(w : integer);
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body MB for M;
state S0, S1, S2, S3;
initialize to S0 begin end;
trans
  from S0 to S1 when P.m name t1: begin output P.r(1) end;
  from S0 to S2 when P.m name t2: begin end;
  from S2 to S3 name t5: begin output P.r(1) end;
  from S3 to S3 when P.m name t6: begin output P.r(2) end;
end;
end.`

// TestOnlineSolutionThroughPoppedAncestor checks an on-line Solution whose
// path runs through a node that popped before the run ended. The t1 branch
// explains two events, dies and stays the best node; the t2 node pops while
// its PG child in S3 is parked; the second chunk revives that child, and its
// t6 child is accepted. The path must be the off-line run's, so an on-line
// run must not recycle the popped t2 node.
func TestOnlineSolutionThroughPoppedAncestor(t *testing.T) {
	spec := compile(t, "popped", poppedAncestorSpec)
	events := mustTrace(t, "in P m v=0\nout P r w=1\nout P r w=2\nin P m v=3\n").Events
	opts := Options{Order: OrderNone}

	a, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	online, err := a.AnalyzeSource(trace.NewSliceSource([][]trace.Event{events[:3], events[3:]}, true))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := a.AnalyzeTrace(&trace.Trace{Events: events, EOF: true})
	if err != nil {
		t.Fatal(err)
	}
	render := func(steps []Step) string {
		var parts []string
		for _, s := range steps {
			parts = append(parts, s.String())
		}
		return strings.Join(parts, " ")
	}
	const want = "t2<0 t5 t6<3"
	if online.Verdict != Valid || render(online.Solution) != want {
		t.Errorf("on-line: verdict %v, solution %q; want valid, %q", online.Verdict, render(online.Solution), want)
	}
	if offline.Verdict != Valid || render(offline.Solution) != want {
		t.Errorf("off-line: verdict %v, solution %q; want valid, %q", offline.Verdict, render(offline.Solution), want)
	}
	if online.Stats.PGNodes == 0 {
		t.Error("the on-line run parked no PG-node; the test no longer revives a child of a popped node")
	}
}
