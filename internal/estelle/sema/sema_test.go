package sema

import (
	"strings"
	"testing"

	"repro/internal/estelle/parser"
	"repro/internal/estelle/types"
	"repro/specs"
)

func check(t *testing.T, src string) (*Program, error) {
	t.Helper()
	spec, err := parser.Parse("t.estelle", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(spec)
}

func checkOK(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := check(t, src)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

func wantErr(t *testing.T, src, frag string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not contain %q", err, frag)
	}
}

// base builds a small valid spec with a configurable body.
func base(body string) string {
	return `specification s;
channel CH(a, b);
  by a: m(v : integer);
  by b: r(w : integer);
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
` + body + `
end;
end.`
}

const minimalTail = `
state S0;
initialize to S0 begin end;
trans
  from S0 to S0 when P.m name t1: begin end;
`

func TestCheckAllEmbeddedSpecs(t *testing.T) {
	for name, src := range specs.All() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			prog := checkOK(t, src)
			if len(prog.Trans) == 0 || len(prog.States) == 0 {
				t.Fatal("empty program")
			}
		})
	}
}

func TestProgramModel(t *testing.T) {
	prog := checkOK(t, base(`
var x, y : integer;
state S0, S1;
stateset ANY0 = [S0, S1];
initialize to S1 begin x := 1 end;
trans
  from ANY0 to S0 when P.m provided v > 0 priority 2 name rx: begin y := v end;
  from S0 to same name sp: begin output P.r(x) end;
`))
	if prog.Name != "s" {
		t.Errorf("name %q", prog.Name)
	}
	if len(prog.GlobalVars) != 2 || prog.GlobalVars[1].Slot != 1 {
		t.Errorf("globals: %+v", prog.GlobalVars)
	}
	if prog.InitTo != 1 {
		t.Errorf("init to %d, want ordinal of S1", prog.InitTo)
	}
	rx := prog.Trans[0]
	if len(rx.FromStates) != 2 || rx.To != 0 || rx.Priority != 2 {
		t.Errorf("rx: %+v", rx)
	}
	if rx.WhenInter == nil || rx.WhenInter.Name != "m" || rx.WhenIPIndex != 0 {
		t.Errorf("rx when: %+v", rx)
	}
	if len(rx.ParamSyms) != 1 || rx.ParamSyms[0].Kind != InterParamVar {
		t.Errorf("rx params: %+v", rx.ParamSyms)
	}
	sp := prog.Trans[1]
	if !sp.Spontaneous() || sp.To != -1 {
		t.Errorf("sp: %+v", sp)
	}
}

func TestChannelRoleChecking(t *testing.T) {
	// Receiving an interaction the peer cannot send.
	wantErr(t, base(`
state S0;
initialize to S0 begin end;
trans
  from S0 to S0 when P.r name t1: begin end;
`), "cannot be received")
	// Outputting an interaction the module cannot send.
	wantErr(t, base(`
state S0;
initialize to S0 begin end;
trans
  from S0 to S0 when P.m name t1: begin output P.m(1) end;
`), "not sendable by role")
}

func TestErrors(t *testing.T) {
	cases := []struct{ body, frag string }{
		{`state S0; initialize to NOPE begin end;
		  trans from S0 to S0 when P.m name t: begin end;`, "unknown state"},
		{`state S0; initialize to S0 begin end;
		  trans from S0 to S0 when P.m name t: begin x := 1 end;`, "not a variable"},
		{`var x : boolean;
		  state S0; initialize to S0 begin x := 3 end;
		  trans from S0 to S0 when P.m name t: begin end;`, "cannot assign integer to boolean"},
		{`state S0; initialize to S0 begin end;
		  trans from S0 to S0 when P.m provided 3 name t: begin end;`, "must be boolean"},
		{`var x : integer;
		  state S0; initialize to S0 begin end;
		  trans from S0 to S0 when P.m name t: begin v := 3 end;`, "read-only"},
		{`state S0; initialize to S0 begin end;
		  trans from S0 to S0 when P.m priority true name t: begin end;`, "constant integer"},
		{`var x : array [1..3] of integer;
		  state S0; initialize to S0 begin x[true] := 1 end;
		  trans from S0 to S0 when P.m name t: begin end;`, "expects 1..3, got boolean"},
		{`var q : ^integer;
		  state S0; initialize to S0 begin q := 3 end;
		  trans from S0 to S0 when P.m name t: begin end;`, "cannot assign"},
		{`state S0; initialize to S0 begin end;
		  trans from S0 to S0 when P.m name t: begin output P.r end;`, "expects 1 arguments, got 0"},
		{`var x : integer;
		  state S0; initialize to S0 begin x := 1 div 0 end;
		  trans from S0 to S0 when P.m name t: begin end;`, ""},
	}
	for _, c := range cases {
		if c.frag == "" {
			continue
		}
		wantErr(t, base(c.body), c.frag)
	}
}

func TestDuplicateDeclarations(t *testing.T) {
	wantErr(t, base(`
var x : integer;
var x : boolean;`+minimalTail), "redeclared")
	wantErr(t, base(`
state S0, S0;
initialize to S0 begin end;
trans from S0 to S0 when P.m name t: begin end;
`), "redeclared")
}

func TestConstEval(t *testing.T) {
	prog := checkOK(t, base(`
const K = 4; L = K * 2 + 1; M2 = -K;
type small = 1 .. L;
var a : array [small] of integer;
`+minimalTail))
	found := false
	for _, tsym := range prog.GlobalVars {
		if tsym.Type.Kind == types.Array {
			lo, hi := tsym.Type.Indexes[0].OrdinalRange()
			if lo != 1 || hi != 9 {
				t.Fatalf("array bounds %d..%d, want 1..9", lo, hi)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("array variable not found")
	}
}

func TestEnumMembersAreConstants(t *testing.T) {
	prog := checkOK(t, base(`
type color = (red, green, blue);
var c : color;
state S0;
initialize to S0 begin c := green end;
trans
  from S0 to S0 when P.m provided c = blue name t1: begin end;
`))
	_ = prog
}

func TestForwardPointerDeclaration(t *testing.T) {
	checkOK(t, base(`
type
  listp = ^cell;
  cell = record v : integer; next : listp end;
var head : listp;
`+minimalTail))
	wantErr(t, base(`
type listp = ^nothing;
`+minimalTail), "unknown type nothing")
}

func TestFunctions(t *testing.T) {
	prog := checkOK(t, base(`
var g : integer;
function double(x : integer) : integer;
begin
  double := x * 2
end;
procedure bump(var y : integer; amt : integer);
begin
  y := y + amt
end;
state S0;
initialize to S0 begin g := double(21); bump(g, 8) end;
trans
  from S0 to S0 when P.m name t1: begin end;
`))
	if len(prog.Funcs) != 2 {
		t.Fatalf("funcs: %d", len(prog.Funcs))
	}
	d := prog.Funcs[0]
	if d.Result == nil || d.NumSlots != 2 || d.ResultSlot != 1 {
		t.Errorf("double: %+v", d)
	}
	b := prog.Funcs[1]
	if b.Result != nil || len(b.Params) != 2 || b.Params[0].Kind != RefParam {
		t.Errorf("bump: %+v", b)
	}
}

func TestFunctionRestrictions(t *testing.T) {
	wantErr(t, base(`
procedure bad;
begin
  output P.r(1)
end;
`+minimalTail), "not allowed inside functions")
	wantErr(t, base(`
procedure outer;
  procedure inner;
  begin end;
begin end;
`+minimalTail), "nested function")

	// A provided clause must not change module state, not even through a
	// routine it calls: Generate evaluates every guard on the node's saved
	// state, so a write there would leak into every later sibling.
	guard := func(decls, provided string) string {
		return base(`
var g : integer; gp : ^integer;
` + decls + `
state S0;
initialize to S0 begin g := 0 end;
trans
  from S0 to S0 when P.m provided ` + provided + ` name t1: begin output P.r(g) end;
`)
	}
	wantErr(t, guard(`
function bump(x : integer) : boolean;
begin g := g + 1; bump := true end;`, "bump(v)"), "transition t1: provided clause calls bump, which changes module state")
	for _, c := range []struct{ decls, call string }{
		{`function f(var y : integer) : boolean; begin y := 1; f := true end;`, "f(g)"},
		{`function f(x : integer) : boolean; begin gp^ := x; f := true end;`, "f(v)"},
		{`function f : boolean; var p : ^integer; begin new(p); f := true end;`, "f"},
		{`function f(x : integer) : boolean; begin dispose(gp); f := true end;`, "f(v)"},
		{`function f(x : integer) : boolean; begin for g := 1 to x do; f := true end;`, "f(v)"},
		{`procedure store; begin g := 1 end;
function f(x : integer) : boolean; begin store; f := x > 0 end;`, "(v > 0) and f(v)"},
		{`function h(x : integer) : boolean; begin g := x; h := true end;
function f(x : integer) : boolean; begin f := h(x) end;`, "not f(v)"},
	} {
		wantErr(t, guard(c.decls, c.call), "provided clause calls f, which changes module state")
	}
	// Reads, locals, value parameters and the result are fine in a guard,
	// and an impure routine is fine in a block.
	checkOK(t, guard(`
procedure store; begin g := 1 end;
function f(x : integer) : boolean; var l : integer;
begin l := x + g; if gp <> nil then l := l + gp^; x := l; f := l > 0 end;
function w(x : integer) : boolean; begin store; w := f(x) end;`, "f(v) and (g = 0)"))
}

func TestIPArrays(t *testing.T) {
	prog := checkOK(t, `specification s;
channel CH(a, b);
  by a: m;
  by b: r;
module M systemprocess;
  ip P : array [0..2] of CH(b) individual queue;
end;
body B for M;
var i : integer;
state S0;
initialize to S0 begin i := 0 end;
trans
  from S0 to S0 when P[1].m name t1: begin output P[i].r end;
end;
end.`)
	if len(prog.IPs) != 3 {
		t.Fatalf("ips: %d", len(prog.IPs))
	}
	if prog.IPs[1].Name != "P[1]" {
		t.Errorf("ip name %q", prog.IPs[1].Name)
	}
	if prog.Trans[0].WhenIPIndex != 1 {
		t.Errorf("when index %d", prog.Trans[0].WhenIPIndex)
	}
	// Non-constant when index must fail.
	wantErr(t, `specification s;
channel CH(a, b);
  by a: m;
module M systemprocess;
  ip P : array [0..2] of CH(b) individual queue;
end;
body B for M;
var i : integer;
state S0;
initialize to S0 begin end;
trans
  from S0 to S0 when P[i].m name t1: begin end;
end;
end.`, "must be constant")
}

func TestCaseLabelTypes(t *testing.T) {
	wantErr(t, base(`
var x : integer;
state S0;
initialize to S0 begin
  case x of
    true: x := 1
  end
end;
trans from S0 to S0 when P.m name t: begin end;
`), "does not match case expression type")
}

func TestSetTypeChecking(t *testing.T) {
	checkOK(t, base(`
type digits = set of 0 .. 9;
var d : digits; b : boolean;
state S0;
initialize to S0 begin d := [1, 2, 3]; b := 2 in d end;
trans from S0 to S0 when P.m name t: begin end;
`))
	wantErr(t, base(`
var b : boolean;
state S0;
initialize to S0 begin b := 1 in 2 end;
trans from S0 to S0 when P.m name t: begin end;
`), "must be a set")
}

func TestBodyForMismatch(t *testing.T) {
	wantErr(t, `specification s;
channel CH(a, b);
  by a: m;
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for OTHER;
state S0;
initialize to S0 begin end;
trans from S0 to S0 when P.m name t: begin end;
end;
end.`, "module is named")
}

func TestNilComparisons(t *testing.T) {
	checkOK(t, base(`
var q : ^integer;
state S0;
initialize to S0 begin q := nil end;
trans
  from S0 to S0 when P.m provided q = nil name t1: begin end;
`))
}

func TestRealDivisionRejected(t *testing.T) {
	wantErr(t, base(`
var x : integer;
state S0;
initialize to S0 begin x := 4 / 2 end;
trans from S0 to S0 when P.m name t: begin end;
`), "real division")
}
