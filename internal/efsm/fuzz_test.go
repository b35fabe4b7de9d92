package efsm_test

import (
	"testing"

	"repro/internal/efsm"
	"repro/internal/trace"
	"repro/specs"
)

// FuzzParseSpec drives the whole front end — parse, check, compile to EFSM
// programs — on arbitrary source text. Beyond no-panic, a successful compile
// must yield a spec whose surface invariants hold (non-empty state space,
// consistent counts) and whose event resolver survives arbitrary probing:
// the compiled artifact is what every downstream tool trusts blindly.
func FuzzParseSpec(f *testing.F) {
	for _, src := range specs.All() {
		f.Add(src)
	}
	f.Add("specification s; end.")
	f.Add("specification s; channel C(a,b); by a: m; module M systemprocess; ip P : C(b) individual queue; end; body B for M; state s0; initialize to s0 begin end; trans from s0 to s0 when P.m begin end; end; end.")
	// One seed per guard shape of vm's discriminant table test, keyed and
	// unkeyed, each next to a guard keyed on another constant.
	for _, guard := range []string{
		"p = 3", "3 = p", "c = green", "ch = 'x'", "fl = true", "p = k", "s = 4",
		"(p = 1) and f(q)", "((p = 1) and a) and x",
		"a and (p = 1)", "(p = 1) or a", "not (p = 1)", "p <> 1", "p = q", "r = nil",
	} {
		f.Add(`specification s; const k = 7;
channel CH(a, b); by a: m(p : integer; q : integer; c : (red, green, blue); ch : char; fl : boolean; r : ^integer; s : 0..9);
module M systemprocess; ip P : CH(b) individual queue; end;
body B for M; var a, x : boolean;
function f(n : integer) : boolean; begin f := n > 0 end;
state S0; initialize to S0 begin a := true; x := true end;
trans
  from S0 to S0 when P.m provided ` + guard + ` name g: begin end;
  from S0 to S0 when P.m provided p = 1 name h: begin end;
end; end.`)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := efsm.Compile("fuzz.estelle", src)
		if err != nil {
			if spec != nil {
				t.Fatal("non-nil spec with error")
			}
			return
		}
		if spec == nil {
			t.Fatal("nil spec without error")
		}
		if spec.NumStates() <= 0 {
			t.Fatalf("compiled spec has %d states", spec.NumStates())
		}
		if spec.TransitionCount() != len(spec.Prog.Trans) {
			t.Fatalf("TransitionCount %d != len(Trans) %d", spec.TransitionCount(), len(spec.Prog.Trans))
		}
		for i := 0; i < spec.NumIPs(); i++ {
			name := spec.IPName(i)
			if name == "" {
				t.Fatalf("IP %d has empty name", i)
			}
			if got, ok := spec.IPByName(name); !ok || got != i {
				t.Fatalf("IPByName(%q) = %d,%v, want %d", name, got, ok, i)
			}
		}
		// The resolver must reject or resolve — never panic — whatever
		// event shapes a trace file could throw at the compiled spec.
		probes := []trace.Event{
			{Dir: trace.In, IP: "P", Interaction: "m"},
			{Dir: trace.Out, IP: "nosuch", Interaction: "m"},
		}
		if spec.NumIPs() > 0 {
			probes = append(probes,
				trace.Event{Dir: trace.In, IP: spec.IPName(0), Interaction: "m"},
				trace.Event{Dir: trace.Out, IP: spec.IPName(0), Interaction: "m",
					Params: []trace.Param{{Name: "d", Value: "1"}}},
			)
		}
		for _, ev := range probes {
			_, _ = spec.ResolveEvent(ev)
		}
		checkWhenInput(t, spec)
	})
}
