package vm_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/experiments"
	"repro/internal/vm"
	"repro/specs"
)

// discriminantSpec declares one transition per provided clause, named
// g0, g1, ..., on an interaction whose parameters cover every ordinal kind
// and one pointer.
func discriminantSpec(guards []string) string {
	var b strings.Builder
	b.WriteString(`specification s;
const k = 7;
channel CH(a, b);
  by a: m(p : integer; q : integer; c : (red, green, blue); ch : char; fl : boolean; r : ^integer; s : 0..9);
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
var a, x : boolean; v : integer;
function f(n : integer) : boolean; begin f := n > 0 end;
state S0;
initialize to S0 begin a := true; x := true; v := 0 end;
trans
`)
	for i, g := range guards {
		fmt.Fprintf(&b, "  from S0 to S0 when P.m provided %s name g%d: begin end;\n", g, i)
	}
	b.WriteString("end;\nend.\n")
	return b.String()
}

func TestDiscriminantShapes(t *testing.T) {
	type key = vm.Discriminant
	cases := []struct {
		guard string
		want  *key // nil: unkeyed
	}{
		{"p = 3", &key{Param: 0, Value: 3}},
		{"3 = p", &key{Param: 0, Value: 3}},
		{"c = green", &key{Param: 2, Value: 1}},
		{"ch = 'x'", &key{Param: 3, Value: 'x'}},
		{"fl = true", &key{Param: 4, Value: 1}},
		{"false = fl", &key{Param: 4, Value: 0}},
		{"p = k", &key{Param: 0, Value: 7}},
		{"s = 4", &key{Param: 6, Value: 4}},
		{"(p = 1) and f(q)", &key{Param: 0, Value: 1}},
		{"((p = 1) and a) and x", &key{Param: 0, Value: 1}},
		{"a and (p = 1)", nil},
		{"(p = 1) or a", nil},
		{"not (p = 1)", nil},
		{"p <> 1", nil},
		{"p = q", nil},
		{"p = v", nil},
		{"p = -1", nil}, // a negated literal is an expression, not a literal
		{"r = nil", nil},
		{"f(p) and (p = 1)", nil},
	}
	guards := make([]string, len(cases))
	for i, c := range cases {
		guards[i] = c.guard
	}
	spec, err := efsm.Compile("disc.estelle", discriminantSpec(guards))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		d, ok := spec.Code.Discriminant(spec.Prog.Trans[i])
		switch {
		case c.want == nil && ok:
			t.Errorf("%s: keyed as %+v, want unkeyed", c.guard, d)
		case c.want != nil && (!ok || d != *c.want):
			t.Errorf("%s: got %+v (keyed %v), want %+v", c.guard, d, ok, *c.want)
		}
	}
	// A transition of another program has no discriminant.
	other, err := efsm.Compile("disc.estelle", discriminantSpec(guards[:1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := spec.Code.Discriminant(other.Prog.Trans[0]); ok {
		t.Error("a foreign transition reported a discriminant")
	}
}

// TestDiscriminantRefutes is the property the Generate index rests on: a
// keyed transition whose parameter is defined and not its constant has a
// guard that evaluates to exactly (false, nil), whatever the state, the
// other parameters and the mode.
func TestDiscriminantRefutes(t *testing.T) {
	srcs := specs.All()
	inflated, err := experiments.InflateLAPD(800)
	if err != nil {
		t.Fatal(err)
	}
	srcs["lapd+800"] = inflated
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	keyed := map[string]int{}
	for _, name := range names {
		spec, err := efsm.Compile(name, srcs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, partial := range []bool{false, true} {
			e := vm.New(spec.Code)
			e.Partial = partial
			st, _, err := e.RunInit()
			if err != nil {
				t.Fatalf("%s: init: %v", name, err)
			}
			fresh := e.NewState() // every global undefined in partial mode
			for _, ti := range spec.Prog.Trans {
				d, ok := spec.Code.Discriminant(ti)
				if !ok {
					continue
				}
				if !partial {
					keyed[name]++
				}
				for _, undefRest := range []bool{false, true} {
					params, ok := refutingParams(ti, d, undefRest)
					if !ok {
						continue
					}
					for _, s := range []*vm.State{st, fresh} {
						got, err := e.EvalProvided(s, ti, params)
						if got || err != nil {
							t.Errorf("%s %s (partial %v, other parameters undefined %v): EvalProvided = (%v, %v), want (false, nil)",
								name, ti.Name, partial, undefRest, got, err)
						}
					}
				}
			}
		}
	}
	if keyed["lapd"] != 2 || keyed["lapd+800"] != 802 {
		t.Errorf("keyed transitions: lapd %d, lapd+800 %d; want 2 (m4, m5) and 802", keyed["lapd"], keyed["lapd+800"])
	}
}

// refutingParams binds ti's parameters with the keyed one defined and not
// d.Value, and the others defined or undefined. It fails when the keyed
// parameter's type holds no other value.
func refutingParams(ti *sema.TransInfo, d vm.Discriminant, undefRest bool) ([]vm.Value, bool) {
	params := make([]vm.Value, len(ti.WhenInter.Params))
	for i, p := range ti.WhenInter.Params {
		if i != d.Param {
			params[i] = vm.Zero(p.Type, undefRest)
			continue
		}
		lo, hi := p.Type.OrdinalRange()
		v := d.Value + 1
		if v > hi {
			v = d.Value - 1
		}
		if v < lo || v > hi {
			return nil, false
		}
		params[i] = vm.MakeOrdinal(p.Type, v)
	}
	return params, true
}
