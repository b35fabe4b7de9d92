package fuzz

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/specs"
)

// fuzzSpecs returns the bundled specs and LAPD with 200 keyed pads
// (experiments.InflateLAPD), by name.
func fuzzSpecs(t *testing.T) map[string]string {
	t.Helper()
	srcs := specs.All()
	src, err := experiments.InflateLAPD(200)
	if err != nil {
		t.Fatal(err)
	}
	srcs["lapd+200"] = src
	return srcs
}

func compileSpec(t *testing.T, name string) *efsm.Spec {
	t.Helper()
	src, ok := fuzzSpecs(t)[name]
	if !ok {
		t.Fatalf("unknown spec %q", name)
	}
	spec, err := efsm.Compile(name+".estelle", src)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return spec
}

func runCampaign(t *testing.T, specName string, cfg Config) *Result {
	t.Helper()
	f, err := New(compileSpec(t, specName), specName, cfg)
	if err != nil {
		t.Fatalf("fuzz.New(%s): %v", specName, err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("fuzz.Run(%s): %v", specName, err)
	}
	return res
}

// TestFuzzNoDisagreements is the in-tree differential sweep: a seeded
// campaign over every bundled spec, and over LAPD with 200 keyed pads, must
// produce zero analyzer-vs-oracle verdict splits. The oracle evaluates every
// guard, so on the inflated spec it referees the analyzer's discriminant
// index.
func TestFuzzNoDisagreements(t *testing.T) {
	for name := range fuzzSpecs(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			res := runCampaign(t, name, Config{Seed: 1, N: 60, MaxEvents: 16})
			for _, d := range res.Disagreements {
				t.Errorf("%s: analyzer=%s oracle=%s on:\n%s",
					d.Name, d.Analyzer, d.Oracle, trace.Format(d.Trace))
			}
			if res.Report.Candidates == 0 {
				t.Fatalf("campaign produced no candidates")
			}
			if res.Report.OracleChecked == 0 {
				t.Fatalf("no candidate was oracle-checked")
			}
		})
	}
}

// TestInflatedLAPDKeyedMatch drives the keyed-match path of the
// discriminant index, which no generated lapd-cnet trace reaches: at st7,
// RR(nr=1005, pf=2005) fires pad5. With pf=2006 no pad fires and x1 would
// have to output SABME, so the trace is invalid. The analyzer (indexed
// Generate) and the oracle (full scan) must agree on both.
func TestInflatedLAPDKeyedMatch(t *testing.T) {
	spec := compileSpec(t, "lapd+200")
	const head = "in P SABME p=1\nout P UA f=1\nout U DLESTind\n"
	for _, c := range []struct {
		rr    string
		valid bool
	}{
		{"in P RR nr=1005 pf=2005\n", true},
		{"in P RR nr=1005 pf=2006\n", false},
	} {
		tr, err := trace.ReadString(head + c.rr + "eof\n")
		if err != nil {
			t.Fatal(err)
		}
		a, err := analysis.New(spec, analysis.Options{Order: analysis.OrderFull})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.AnalyzeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		want := analysis.Invalid
		if c.valid {
			want = analysis.Valid
			if n := len(res.Solution); n == 0 || res.Solution[n-1].Trans.Name != "pad5" {
				t.Errorf("%s: solution %s, want it to end in pad5", c.rr, res.SolutionString())
			}
		}
		if res.Verdict != want {
			t.Errorf("%s: analyzer verdict %s, want %s", c.rr, res.Verdict, want)
		}
		ref, err := sim.CheckTrace(spec, tr, sim.OracleOptions{Order: sim.FullOrder})
		if err != nil {
			t.Fatal(err)
		}
		if (ref.Verdict == sim.OracleValid) != c.valid || ref.Verdict == sim.OracleExhausted {
			t.Errorf("%s: oracle verdict %s, want valid %v", c.rr, ref.Verdict, c.valid)
		}
	}
}

// TestFuzzDeterminism: identical seeds must reproduce the identical report
// and corpus, field for field and byte for byte.
func TestFuzzDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, N: 60, MaxEvents: 16}
	a := runCampaign(t, "tp0", cfg)
	b := runCampaign(t, "tp0", cfg)
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Fatalf("reports differ across identical seeds:\n%+v\nvs\n%+v", a.Report, b.Report)
	}
	if len(a.Corpus) != len(b.Corpus) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a.Corpus), len(b.Corpus))
	}
	for i := range a.Corpus {
		if a.Corpus[i].Name != b.Corpus[i].Name ||
			trace.Format(a.Corpus[i].Trace) != trace.Format(b.Corpus[i].Trace) {
			t.Fatalf("corpus entry %d differs", i)
		}
	}
	if !reflect.DeepEqual(a.Coverage, b.Coverage) {
		t.Fatalf("coverage snapshots differ across identical seeds")
	}
}

// TestFuzzSeedsDiffer: different seeds should explore differently (sanity
// check that the seed actually feeds the generator).
func TestFuzzSeedsDiffer(t *testing.T) {
	a := runCampaign(t, "tp0", Config{Seed: 1, N: 30, MaxEvents: 16})
	b := runCampaign(t, "tp0", Config{Seed: 2, N: 30, MaxEvents: 16})
	if reflect.DeepEqual(a.Report.Verdicts, b.Report.Verdicts) &&
		len(a.Corpus) == len(b.Corpus) &&
		reflect.DeepEqual(a.Coverage, b.Coverage) {
		t.Fatalf("seeds 1 and 2 produced identical campaigns — seed is not wired through")
	}
}

// TestFuzzCorpusSurvival: every surviving entry must name at least one newly
// covered entity and carry a conclusive expectation.
func TestFuzzCorpusSurvival(t *testing.T) {
	res := runCampaign(t, "echo", Config{Seed: 7, N: 60, MaxEvents: 12})
	if len(res.Corpus) == 0 {
		t.Fatalf("no corpus survivors")
	}
	for _, c := range res.Corpus {
		if c.Expect != "valid" && c.Expect != "invalid" {
			t.Errorf("%s: expectation %q is not conclusive", c.Name, c.Expect)
		}
		if len(c.NewTrans)+len(c.NewStates)+len(c.NewIPs) == 0 {
			t.Errorf("%s: survived without covering anything new", c.Name)
		}
		if !c.Trace.EOF {
			t.Errorf("%s: corpus trace missing eof marker", c.Name)
		}
	}
}

// TestFuzzCoverageBeatsFirstTrace: the campaign's cumulative transition
// coverage must be at least that of its own first survivor — i.e. feedback
// accumulates rather than resetting.
func TestFuzzCoverageAccumulates(t *testing.T) {
	res := runCampaign(t, "abp", Config{Seed: 3, N: 80, MaxEvents: 20})
	sum := res.Report.Coverage
	if sum.TransTotal == 0 || sum.TransCovered == 0 {
		t.Fatalf("no transition coverage recorded: %+v", sum)
	}
	// The generator walks real machine executions, so states reachable in a
	// few steps must be covered.
	if sum.StatesCovered == 0 {
		t.Fatalf("no state coverage recorded: %+v", sum)
	}
}

// TestFuzzCoverTargetStop: with a trivially low target the campaign stops
// early and says why.
func TestFuzzCoverTargetStop(t *testing.T) {
	res := runCampaign(t, "echo", Config{Seed: 5, N: 200, MaxEvents: 12, CoverTarget: 0.01})
	if res.Report.Stopped != "cover-target" {
		t.Fatalf("stopped = %q, want cover-target", res.Report.Stopped)
	}
	if res.Report.Candidates >= 200 {
		t.Fatalf("cover-target did not stop the campaign early (%d candidates)", res.Report.Candidates)
	}
}
