package vm

import (
	"strings"
	"testing"

	"repro/internal/estelle/ast"
	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/types"
)

// checkErrSpec builds a program around body with a scalar ip P and an ip
// array Q[1..2], both receiving m(v) and sending r(w). The body starts on
// line 10 of errtab.estelle.
func checkErrSpec(t *testing.T, body string) *sema.Program {
	t.Helper()
	src := `specification s;
channel CH(a, b);
  by a: m(v : integer);
  by b: r(w : integer);
module M systemprocess;
  ip P : CH(b) individual queue;
     Q : array [1..2] of CH(b) individual queue;
end;
body B for M;
` + body + `
end;
end.`
	spec, err := parser.Parse("errtab.estelle", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sema.Check(spec)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

// firstStmt returns the first statement of transition T's block.
func firstStmt(prog *sema.Program) ast.Stmt { return prog.Trans[0].Decl.Body.Stmts[0] }

// TestRuntimeErrorText pins the exact message and position of every
// reachable RuntimeError site of the executor. The analyzer's diagnoses
// quote these strings, so a change here is a change to Tango's output.
func TestRuntimeErrorText(t *testing.T) {
	undef := UndefValue(types.Int)
	cases := []struct {
		name string
		body string
		// v is the parameter of the m interaction T consumes; nil fires T
		// with no parameters bound.
		v       *Value
		partial bool
		limits  func(*Limits)
		mutate  func(*sema.Program)
		// phase is "fire" (default), "init", "provided" or "forked".
		phase string
		want  string
	}{
		{
			name: "undefined if condition",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m name T: begin if v > 0 then x := 1 end;`,
			v:    &undef,
			want: "errtab.estelle:13:47: runtime error: condition is undefined",
		},
		{
			name: "undefined while condition",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m name T: begin while v > x do x := 1 end;`,
			v:    &undef,
			want: "errtab.estelle:13:50: runtime error: condition is undefined",
		},
		{
			name: "undefined repeat condition",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m name T: begin repeat x := 1 until v = x end;`,
			v:    &undef,
			want: "errtab.estelle:13:64: runtime error: condition is undefined",
		},
		{
			name: "undefined case selector",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m name T: begin case v of 1: x := 1 end end;`,
			v:    &undef,
			want: "errtab.estelle:13:44: runtime error: case selector is undefined",
		},
		{
			name: "undefined for bound",
			body: `var x, i : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m name T: begin for i := 1 to v do x := i end;`,
			v:    &undef,
			want: "errtab.estelle:13:44: runtime error: for-loop bound is undefined",
		},
		{
			name: "undefined array index (store)",
			body: `var a : array [1..3] of integer;
state S0;
initialize to S0 begin a[1] := 0 end;
trans from S0 to S0 when P.m name T: begin a[v] := 1 end;`,
			v:    &undef,
			want: "errtab.estelle:13:46: runtime error: array index is undefined",
		},
		{
			name: "undefined array index (load)",
			body: `var a : array [1..3] of integer; x : integer;
state S0;
initialize to S0 begin a[1] := 0 end;
trans from S0 to S0 when P.m name T: begin x := a[v] end;`,
			v:    &undef,
			want: "errtab.estelle:13:51: runtime error: array index is undefined",
		},
		{
			name: "undefined ip index",
			body: `state S0;
initialize to S0 begin end;
trans from S0 to S0 when P.m name T: begin output Q[v].r(1) end;`,
			v:    &undef,
			want: "errtab.estelle:12:53: runtime error: output ip index is undefined",
		},
		{
			name: "ip index out of range",
			body: `state S0;
initialize to S0 begin end;
trans from S0 to S0 when P.m name T: begin output Q[v].r(1) end;`,
			v:    valPtr(MakeInt(3)),
			want: "errtab.estelle:12:44: runtime error: output ip index out of range for Q",
		},
		{
			name: "array index out of range (store)",
			body: `var a : array [1..3] of integer;
state S0;
initialize to S0 begin a[1] := 0 end;
trans from S0 to S0 when P.m name T: begin a[v] := 1 end;`,
			v:    valPtr(MakeInt(4)),
			want: "errtab.estelle:13:46: runtime error: array index 4 out of range 1..3",
		},
		{
			name: "array index out of range (load)",
			body: `var a : array [1..3] of integer; x : integer;
state S0;
initialize to S0 begin a[1] := 0 end;
trans from S0 to S0 when P.m name T: begin x := a[v] end;`,
			v:    valPtr(MakeInt(0)),
			want: "errtab.estelle:13:51: runtime error: array index 0 out of range 1..3",
		},
		{
			name: "subrange assignment",
			body: `var s : 0 .. 9;
state S0;
initialize to S0 begin s := 0 end;
trans from S0 to S0 when P.m name T: begin s := v end;`,
			v:    valPtr(MakeInt(10)),
			want: "errtab.estelle:13:44: runtime error: value 10 out of range 0..9",
		},
		{
			name: "subrange value parameter",
			body: `var x : integer;
function f(n : 0 .. 9) : integer; begin f := n end;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m name T: begin x := f(v) end;`,
			v:    valPtr(MakeInt(12)),
			want: "errtab.estelle:14:51: runtime error: value 12 out of range 0..9",
		},
		{
			name: "subrange for variable",
			body: `var s : 0 .. 9;
state S0;
initialize to S0 begin s := 0 end;
trans from S0 to S0 when P.m name T: begin for s := 8 to v do ; end;`,
			v:    valPtr(MakeInt(12)),
			want: "errtab.estelle:13:44: runtime error: value 10 out of range 0..9",
		},
		{
			name: "chr out of range",
			body: `var c : char;
state S0;
initialize to S0 begin c := 'a' end;
trans from S0 to S0 when P.m name T: begin c := chr(v) end;`,
			v:    valPtr(MakeInt(300)),
			want: "errtab.estelle:13:49: runtime error: chr argument 300 out of range",
		},
		{
			name: "succ out of range",
			body: `type color = (red, green, blue);
var c : color;
state S0;
initialize to S0 begin c := blue end;
trans from S0 to S0 when P.m name T: begin c := succ(c) end;`,
			v:    valPtr(MakeInt(0)),
			want: "errtab.estelle:14:49: runtime error: succ/pred result 3 out of range 0..2",
		},
		{
			name: "pred out of range",
			body: `var s : 1 .. 5;
state S0;
initialize to S0 begin s := 1 end;
trans from S0 to S0 when P.m name T: begin s := pred(s) end;`,
			v:    valPtr(MakeInt(0)),
			want: "errtab.estelle:13:49: runtime error: succ/pred result 0 out of range 1..5",
		},
		{
			name: "div by zero",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 1 end;
trans from S0 to S0 when P.m name T: begin x := x div (v - v) end;`,
			v:    valPtr(MakeInt(3)),
			want: "errtab.estelle:13:49: runtime error: division by zero",
		},
		{
			name: "mod by zero",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 1 end;
trans from S0 to S0 when P.m name T: begin x := v mod x; x := v mod (x - x) end;`,
			v:    valPtr(MakeInt(3)),
			want: "errtab.estelle:13:63: runtime error: division by zero",
		},
		{
			name: "nil dereference (load)",
			body: `var pz : ^integer; x : integer;
state S0;
initialize to S0 begin pz := nil end;
trans from S0 to S0 when P.m name T: begin x := pz^ end;`,
			v:    valPtr(MakeInt(0)),
			want: "errtab.estelle:13:49: runtime error: nil pointer dereference",
		},
		{
			name: "nil dereference (store)",
			body: `var pz : ^integer;
state S0;
initialize to S0 begin pz := nil end;
trans from S0 to S0 when P.m name T: begin pz^ := v end;`,
			v:    valPtr(MakeInt(0)),
			want: "errtab.estelle:13:44: runtime error: nil pointer dereference",
		},
		{
			name: "undefined pointer dereference",
			body: `var pz : ^integer; x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m name T: begin x := pz^ end;`,
			v:       valPtr(MakeInt(0)),
			partial: true,
			want:    "errtab.estelle:13:49: runtime error: dereference of undefined pointer",
		},
		{
			name: "dangling dereference",
			body: `var pz, qp : ^integer; x : integer;
state S0;
initialize to S0 begin new(pz); qp := pz; dispose(pz) end;
trans from S0 to S0 when P.m name T: begin x := qp^ end;`,
			v:    valPtr(MakeInt(0)),
			want: "errtab.estelle:13:49: runtime error: dangling pointer dereference (address 1)",
		},
		{
			name: "dispose of nil",
			body: `var pz : ^integer;
state S0;
initialize to S0 begin pz := nil end;
trans from S0 to S0 when P.m name T: begin dispose(pz) end;`,
			v:    valPtr(MakeInt(0)),
			want: "errtab.estelle:13:44: runtime error: dispose of nil pointer",
		},
		{
			name: "dispose of undefined pointer",
			body: `var pz : ^integer;
state S0;
initialize to S0 begin end;
trans from S0 to S0 when P.m name T: begin dispose(pz) end;`,
			v:       valPtr(MakeInt(0)),
			partial: true,
			want:    "errtab.estelle:13:44: runtime error: dispose of undefined pointer",
		},
		{
			name: "missing field (load)",
			body: `type rec = record f : integer end;
var r : rec; x : integer;
state S0;
initialize to S0 begin r.f := 0 end;
trans from S0 to S0 when P.m name T: begin x := r.f end;`,
			v: valPtr(MakeInt(0)),
			mutate: func(p *sema.Program) {
				firstStmt(p).(*ast.AssignStmt).RHS.(*ast.SelectorExpr).Field = "zz"
			},
			want: "errtab.estelle:14:49: runtime error: no field zz",
		},
		{
			name: "missing field (store)",
			body: `type rec = record f : integer end;
var r : rec;
state S0;
initialize to S0 begin r.f := 0 end;
trans from S0 to S0 when P.m name T: begin r.f := v end;`,
			v: valPtr(MakeInt(0)),
			mutate: func(p *sema.Program) {
				firstStmt(p).(*ast.AssignStmt).LHS.(*ast.SelectorExpr).Field = "zz"
			},
			want: "errtab.estelle:14:44: runtime error: no field zz",
		},
		{
			name: "set element out of range",
			body: `var s : set of 0 .. 9; b : boolean;
state S0;
initialize to S0 begin b := false end;
trans from S0 to S0 when P.m name T: begin b := 3 in [v] end;`,
			v:    valPtr(MakeInt(5000)),
			want: "errtab.estelle:13:54: runtime error: set element out of range 0..4095",
		},
		{
			name: "unbound interaction parameter",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m name T: begin x := v end;`,
			want: "errtab.estelle:13:49: runtime error: interaction parameter v not bound",
		},
		{
			name: "statement budget",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m name T: begin while x = 0 do begin x := 0; x := 0 end end;`,
			v:      valPtr(MakeInt(0)),
			limits: func(l *Limits) { l.MaxSteps = 50 },
			want:   "errtab.estelle:13:65: runtime error: statement budget exceeded (50); possible non-terminating loop",
		},
		{
			name: "statement budget in init",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 0; repeat x := x + 1 until x < 0 end;
trans from S0 to S0 when P.m name T: begin x := v end;`,
			limits: func(l *Limits) { l.MaxSteps = 40 },
			phase:  "init",
			want:   "errtab.estelle:12:39: runtime error: statement budget exceeded (40); possible non-terminating loop",
		},
		{
			name: "call depth",
			body: `var r : integer;
function down(n : integer) : integer;
begin
  down := down(n + 1)
end;
state S0;
initialize to S0 begin r := 0 end;
trans from S0 to S0 when P.m name T: begin r := down(v) end;`,
			v:      valPtr(MakeInt(0)),
			limits: func(l *Limits) { l.MaxCallDepth = 100 },
			want:   "errtab.estelle:13:11: runtime error: call depth limit exceeded in down",
		},
		{
			name: "heap budget",
			body: `type pint = ^integer;
var g : integer; qp : pint;
state S0;
initialize to S0 begin g := 0 end;
trans from S0 to S0 when P.m name T: begin while g = 0 do new(qp) end;`,
			v:      valPtr(MakeInt(0)),
			limits: func(l *Limits) { l.MaxHeapCells = 10 },
			want:   "errtab.estelle:14:59: runtime error: heap budget exceeded (10 live cells); possible allocation loop",
		},
		{
			name: "division by zero in provided clause",
			body: `var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m provided v div x = 1 name T: begin end;`,
			v:     valPtr(MakeInt(1)),
			phase: "provided",
			want:  "errtab.estelle:13:39: runtime error: division by zero",
		},
		{
			name: "decision budget",
			body: `var x, y : integer;
state S0;
initialize to S0 begin end;
trans from S0 to S0 when P.m name T: begin
  if x > 0 then y := 1; if x > 1 then y := 2; if x > 2 then y := 3
end;`,
			v:       valPtr(MakeInt(0)),
			partial: true,
			limits:  func(l *Limits) { l.MaxForks = 4 },
			phase:   "forked",
			want:    "errtab.estelle:13:7: runtime error: transition T: partial-trace decision budget exceeded (4 forks)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := checkErrSpec(t, tc.body)
			if tc.mutate != nil {
				tc.mutate(prog)
			}
			e := New(Compile(prog))
			e.Partial = tc.partial
			if tc.limits != nil {
				tc.limits(&e.Limits)
			}
			st, _, err := e.RunInit()
			if tc.phase != "init" && err != nil {
				t.Fatalf("init: %v", err)
			}
			var params []Value
			if tc.v != nil {
				params = []Value{*tc.v}
			}
			ti := prog.Trans[0]
			switch tc.phase {
			case "", "fire":
				_, err = e.Execute(st, ti, params)
			case "provided":
				_, err = e.EvalProvided(st, ti, params)
			case "forked":
				_, err = e.ExecuteForked(st, ti, params)
			}
			if _, ok := err.(*RuntimeError); !ok {
				t.Fatalf("err = %v (%T), want *RuntimeError", err, err)
			}
			if got := err.Error(); got != tc.want {
				t.Fatalf("error text\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

func valPtr(v Value) *Value { return &v }

// TestFaultLabels pins the FaultError.Op label of each executor entry point:
// the analyzer's fault diagnoses quote it.
func TestFaultLabels(t *testing.T) {
	body := `var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans from S0 to S0 when P.m provided x = v name T: begin x := v end;`
	params := []Value{MakeInt(1)}

	prog := checkErrSpec(t, body)
	e := New(Compile(prog))
	// A state with no globals makes the guard's read of x fault.
	_, err := e.EvalProvided(&State{Heap: NewHeap()}, prog.Trans[0], params)
	if fe, ok := err.(*FaultError); !ok || fe.Op != "provided clause of T" {
		t.Fatalf("provided: err = %v (%T)", err, err)
	}

	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	e.PreTransition = func(string) { panic("boom") }
	_, err = e.Execute(st, prog.Trans[0], params)
	if fe, ok := err.(*FaultError); !ok || fe.Op != "transition T" {
		t.Fatalf("execute: err = %v (%T)", err, err)
	}
	_, err = e.ExecuteForked(st, prog.Trans[0], params)
	if fe, ok := err.(*FaultError); !ok || fe.Op != "transition T" {
		t.Fatalf("forked: err = %v (%T)", err, err)
	}

	// Dropping the globals from the program makes the initialize block's
	// assignment fault.
	prog = checkErrSpec(t, body)
	prog.GlobalVars = nil
	_, _, err = New(Compile(prog)).RunInit()
	fe, ok := err.(*FaultError)
	if !ok || fe.Op != "initialize transition" {
		t.Fatalf("init: err = %v (%T)", err, err)
	}
	if want := "execution fault in initialize transition: "; !strings.HasPrefix(fe.Error(), want) {
		t.Fatalf("fault text %q, want prefix %q", fe.Error(), want)
	}
}

// TestNestedCallFrames: calls nested in argument lists, locals in every
// function, and a var-parameter bound to a caller's local while further
// calls run. Every call's frame must stay distinct from the frames of calls
// still evaluating their arguments.
func TestNestedCallFrames(t *testing.T) {
	prog := checkErrSpec(t, `
var r, r2 : integer;
function g(n : integer) : integer;
var t : integer;
begin
  t := n * 2;
  g := t + 1
end;
function f(a, b : integer) : integer;
var s : integer;
begin
  s := a + b;
  f := s * 3
end;
procedure bump(var x : integer; d : integer);
begin
  x := x + d
end;
function h(n : integer) : integer;
var y : integer;
begin
  y := n;
  bump(y, g(f(y, g(y))));
  h := y
end;
state S0;
initialize to S0 begin r := 0; r2 := 0 end;
trans from S0 to S0 when P.m name T: begin
  r := f(v, g(f(v, g(3))));
  r2 := h(v - 58)
end;`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(st, prog.Trans[0], []Value{MakeInt(63)}); err != nil {
		t.Fatal(err)
	}
	if got := globalValue(t, prog, st, "r"); got.I != 1452 {
		t.Fatalf("r = %v, want 1452", got)
	}
	if got := globalValue(t, prog, st, "r2"); got.I != 102 {
		t.Fatalf("r2 = %v, want 102", got)
	}
}
