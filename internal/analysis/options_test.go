package analysis

import (
	"strings"
	"testing"
	"time"

	"repro/internal/estelle/sema"
	"repro/specs"
)

func TestOrderOptsString(t *testing.T) {
	cases := []struct {
		o    OrderOpts
		want string
	}{
		{OrderNone, "NR"},
		{OrderIO, "IO"},
		{OrderIP, "IP"},
		{OrderFull, "FULL"},
		{OrderOpts{InBeforeOut: true}, "I/O"},
		{OrderOpts{OutBeforeIn: true, IPOrder: true}, "O/I+IP"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.o, got, c.want)
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	cases := map[Verdict]string{
		Valid:         "valid",
		Invalid:       "invalid",
		ValidSoFar:    "valid so far",
		LikelyInvalid: "likely invalid",
		Exhausted:     "search budget exhausted",
		Verdict(99):   "verdict(99)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
	if !Valid.Conclusive() || !Invalid.Conclusive() {
		t.Error("valid/invalid must be conclusive")
	}
	for _, v := range []Verdict{ValidSoFar, LikelyInvalid, Exhausted} {
		if v.Conclusive() {
			t.Errorf("%v must not be conclusive", v)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(100)
	if o.MaxDepth != 464 {
		t.Errorf("MaxDepth = %d", o.MaxDepth)
	}
	if o.MaxTransitions != 5_000_000 || o.SynthInputBudget != 8 ||
		o.PollEvery != 32 || o.MaxIdlePolls != 64 {
		t.Errorf("defaults: %+v", o)
	}
	if o.Partial {
		t.Error("Partial should default off")
	}
	o = Options{UnobservedIPs: []string{"X"}}.withDefaults(0)
	if !o.Partial {
		t.Error("UnobservedIPs must imply Partial")
	}
	o = Options{UndefineGlobals: true}.withDefaults(0)
	if !o.Partial {
		t.Error("UndefineGlobals must imply Partial")
	}
	// Explicit values survive.
	o = Options{MaxDepth: 7, MaxTransitions: 9}.withDefaults(100)
	if o.MaxDepth != 7 || o.MaxTransitions != 9 {
		t.Errorf("explicit values overridden: %+v", o)
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	s := Stats{TE: 100, GE: 40, CPUTime: 2 * time.Second}
	if got := s.TransitionsPerSecond(); got != 50 {
		t.Errorf("TransitionsPerSecond = %v", got)
	}
	if got := s.AverageFanout(); got != 2.5 {
		t.Errorf("AverageFanout = %v", got)
	}
	var zero Stats
	if zero.TransitionsPerSecond() != 0 || zero.AverageFanout() != 0 {
		t.Error("zero stats must not divide by zero")
	}
	// Transitions executed but the clock never advanced (sub-resolution run):
	// throughput must degrade to 0, not +Inf.
	fast := Stats{TE: 1000}
	if got := fast.TransitionsPerSecond(); got != 0 {
		t.Errorf("zero-CPU TPS = %v, want 0", got)
	}
	// TE without GE (all-seed searches): fanout degrades to 0, not +Inf.
	seeded := Stats{TE: 10, CPUTime: time.Second}
	if got := seeded.AverageFanout(); got != 0 {
		t.Errorf("zero-GE fanout = %v, want 0", got)
	}
}

func TestProgressString(t *testing.T) {
	p := Progress{
		Elapsed:        2500 * time.Millisecond,
		Depth:          3,
		MaxDepth:       10,
		VerifiedPrefix: 7,
		TotalEvents:    20,
		Nodes:          41,
		TE:             99,
		TPS:            1234.4,
	}
	got := p.String()
	for _, want := range []string{"t=2.5s", "depth=3/10", "verified=7/20", "nodes=41", "TE=99", "1234 trans/s"} {
		if !strings.Contains(got, want) {
			t.Errorf("Progress.String() = %q, missing %q", got, want)
		}
	}
}

func TestStatsReportConversion(t *testing.T) {
	s := Stats{
		TE: 100, GE: 40, RE: 7, SA: 9,
		MaxDepth: 12, Nodes: 55, PGNodes: 3, Regens: 2, Forks: 1,
		HashHits: 4, SynthIn: 5, Faults: 6, Events: 20,
		CPUTime: 2 * time.Second,
	}
	r := s.Report()
	if r.TE != 100 || r.GE != 40 || r.RE != 7 || r.SA != 9 ||
		r.MaxDepth != 12 || r.Nodes != 55 || r.PGNodes != 3 ||
		r.Regens != 2 || r.Forks != 1 || r.HashHits != 4 ||
		r.SynthIn != 5 || r.Faults != 6 || r.Events != 20 {
		t.Errorf("counters not copied: %+v", r)
	}
	if r.TransPerSec != 50 || r.AvgFanout != 2.5 {
		t.Errorf("derived metrics = %v / %v, want 50 / 2.5", r.TransPerSec, r.AvgFanout)
	}
}

func TestStepString(t *testing.T) {
	ti := &dummyTrans
	cases := []struct {
		s    Step
		want string
	}{
		{Step{Trans: ti, EventSeq: 5}, "t9<5"},
		{Step{Trans: ti, EventSeq: -1}, "t9"},
		{Step{Trans: ti, EventSeq: -2, Synthesized: true}, "t9<?"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("Step.String() = %q, want %q", got, c.want)
		}
	}
}

func TestSolutionString(t *testing.T) {
	r := &Result{Solution: []Step{
		{Trans: &dummyTrans, EventSeq: 0},
		{Trans: &dummyTrans, EventSeq: -1},
	}}
	if got := r.SolutionString(); got != "t9<0 t9" {
		t.Errorf("SolutionString = %q", got)
	}
	if !strings.Contains(got3(), "t9") {
		t.Error("sanity")
	}
}

func got3() string { return (&Result{Solution: []Step{{Trans: &dummyTrans}}}).SolutionString() }

// dummyTrans backs Step rendering tests.
var dummyTrans = sema.TransInfo{Name: "t9"}

// TestParallelismIgnored: the deprecated Parallelism field changes nothing; a
// run at 8 gives the verdict, diagnosis and every search counter of a run at
// 0.
func TestParallelismIgnored(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 3)
	for _, o := range []Options{
		{Order: OrderNone},
		{Order: OrderNone, Memo: true},
		{Order: OrderFull, StateHashing: true},
	} {
		var diags [2]string
		var stats [2]Stats
		for i, j := range []int{8, 0} {
			o.Parallelism = j
			a := mustAnalyzer(t, spec, o)
			res, err := a.AnalyzeTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			diags[i], stats[i] = diagJSON(t, res), a.Stats()
			stats[i].ParseTime, stats[i].CompileTime, stats[i].SearchTime, stats[i].CPUTime = 0, 0, 0, 0
		}
		if diags[0] != diags[1] {
			t.Errorf("%s memo=%v hash=%v: diagnosis differs at Parallelism 8:\n%s\n---\n%s",
				o.Order, o.Memo, o.StateHashing, diags[0], diags[1])
		}
		if stats[0] != stats[1] {
			t.Errorf("%s memo=%v hash=%v: counters differ at Parallelism 8:\n%+v\n---\n%+v",
				o.Order, o.Memo, o.StateHashing, stats[0], stats[1])
		}
	}
}
