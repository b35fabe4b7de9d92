package vm

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/types"
)

// compileBody builds a program around the given body text.
func compileBody(t *testing.T, body string) *sema.Program {
	t.Helper()
	src := `specification s;
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
	spec, err := parser.Parse("vm_test.estelle", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sema.Check(spec)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

// runInitAndFire initializes and fires the first transition with the given
// integer parameter, returning the state, outputs and error.
func runInitAndFire(t *testing.T, prog *sema.Program, param int64) (*State, []Output, error) {
	t.Helper()
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	ti := prog.Trans[0]
	var params []Value
	if ti.WhenInter != nil {
		params = []Value{MakeInt(param)}
	}
	outs, err := e.Execute(st, ti, params)
	return st, outs, err
}

func globalValue(t *testing.T, prog *sema.Program, st *State, name string) Value {
	t.Helper()
	for _, g := range prog.GlobalVars {
		if strings.EqualFold(g.Name, name) {
			return st.Globals[g.Slot]
		}
	}
	t.Fatalf("no global %s", name)
	return Value{}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	prog := compileBody(t, `
var total, i : integer;
state S0;
initialize to S0 begin
  total := 0;
  for i := 1 to 10 do total := total + i;
  while total > 50 do total := total - 7;
  repeat total := total + 1 until total >= 50;
  if odd(total) then total := total * 2 else total := total + 100;
  case total mod 3 of
    0: total := total + 1000;
    1, 2: total := total + 2000
  end
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	// total: sum 1..10 = 55 → while: 48 → repeat: 50 → even → +100 = 150 →
	// 150 mod 3 = 0 → +1000 = 1150.
	if got := globalValue(t, prog, st, "total").I; got != 1150 {
		t.Fatalf("total = %d, want 1150", got)
	}
}

func TestInteractionParamsAndOutputs(t *testing.T) {
	prog := compileBody(t, `
var last : integer;
state S0, S1;
initialize to S0 begin last := 0 end;
trans
  from S0 to S1 when P.m name t: begin
    last := v;
    output P.r(v * 2);
  end;
`)
	st, outs, err := runInitAndFire(t, prog, 21)
	if err != nil {
		t.Fatal(err)
	}
	if st.FSM != 1 {
		t.Fatalf("FSM = %d, want 1", st.FSM)
	}
	if globalValue(t, prog, st, "last").I != 21 {
		t.Fatal("param not bound")
	}
	if len(outs) != 1 || outs[0].Inter.Name != "r" || outs[0].Params[0].I != 42 {
		t.Fatalf("outputs: %+v", outs)
	}
}

func TestDynamicMemoryLifecycle(t *testing.T) {
	prog := compileBody(t, `
type cp = ^cell;
     cell = record v : integer; next : cp end;
var head : cp; n : integer;
state S0;
initialize to S0 begin
  head := nil;
  n := 0
end;
trans
  from S0 to S0 when P.m name push: begin
    new(head);
    head^.v := v;
    n := n + 1;
  end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Execute(st, prog.Trans[0], []Value{MakeInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if st.Heap.Len() != 5 {
		t.Fatalf("heap cells = %d, want 5", st.Heap.Len())
	}
	if st.Heap.Allocs != 5 {
		t.Fatalf("allocs = %d", st.Heap.Allocs)
	}
}

func TestSnapshotRestoreIsolation(t *testing.T) {
	prog := compileBody(t, `
type cp = ^cell;
     cell = record v : integer; next : cp end;
var head : cp;
state S0;
initialize to S0 begin head := nil end;
trans
  from S0 to S0 when P.m name push: begin
    new(head);
    head^.v := v;
  end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(st, prog.Trans[0], []Value{MakeInt(1)}); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if _, err := e.Execute(st, prog.Trans[0], []Value{MakeInt(2)}); err != nil {
		t.Fatal(err)
	}
	if st.Heap.Len() != 2 || snap.Heap.Len() != 1 {
		t.Fatalf("heap isolation broken: live=%d snap=%d", st.Heap.Len(), snap.Heap.Len())
	}
	// Mutate a heap cell in the live state; the snapshot must not change.
	fpBefore := snap.Fingerprint()
	if _, err := e.Execute(st, prog.Trans[0], []Value{MakeInt(3)}); err != nil {
		t.Fatal(err)
	}
	if snap.Fingerprint() != fpBefore {
		t.Fatal("snapshot changed after executing on live state")
	}
}

func TestNilDereferenceError(t *testing.T) {
	prog := compileBody(t, `
var pz : ^integer; x : integer;
state S0;
initialize to S0 begin pz := nil end;
trans
  from S0 to S0 when P.m name boom: begin x := pz^ end;
`)
	_, _, err := runInitAndFire(t, prog, 0)
	if err == nil {
		t.Fatal("expected nil dereference error")
	}
	if _, ok := err.(*RuntimeError); !ok {
		t.Fatalf("error type %T", err)
	}
}

func TestDanglingPointerError(t *testing.T) {
	prog := compileBody(t, `
var pz, q : ^integer; x : integer;
state S0;
initialize to S0 begin new(pz); q := pz; dispose(pz) end;
trans
  from S0 to S0 when P.m name boom: begin x := q^ end;
`)
	_, _, err := runInitAndFire(t, prog, 0)
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Fatalf("err = %v, want dangling pointer", err)
	}
}

func TestSubrangeRangeCheck(t *testing.T) {
	prog := compileBody(t, `
var s : 0 .. 9;
state S0;
initialize to S0 begin s := 0 end;
trans
  from S0 to S0 when P.m name assign: begin s := v end;
`)
	if _, _, err := runInitAndFire(t, prog, 9); err != nil {
		t.Fatalf("in-range: %v", err)
	}
	if _, _, err := runInitAndFire(t, prog, 10); err == nil {
		t.Fatal("expected range error for 10")
	}
}

func TestDivisionByZeroError(t *testing.T) {
	prog := compileBody(t, `
var x : integer;
state S0;
initialize to S0 begin x := 1 end;
trans
  from S0 to S0 when P.m name boom: begin x := x div (v - v) end;
`)
	_, _, err := runInitAndFire(t, prog, 3)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestInfiniteLoopBudget(t *testing.T) {
	prog := compileBody(t, `
var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans
  from S0 to S0 when P.m name spin: begin
    while true do x := x + 1;
  end;
`)
	e := New(Compile(prog))
	e.Limits.MaxSteps = 10000
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Execute(st, prog.Trans[0], []Value{MakeInt(0)})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want statement budget error", err)
	}
}

func TestRecursionAndVarParams(t *testing.T) {
	prog := compileBody(t, `
var result : integer;
function fib(n : integer) : integer;
begin
  if n < 2 then fib := n
  else fib := fib(n - 1) + fib(n - 2)
end;
procedure swap(var a : integer; var b : integer);
var tmp : integer;
begin
  tmp := a; a := b; b := tmp
end;
var x, y : integer;
state S0;
initialize to S0 begin
  result := fib(12);
  x := 1; y := 2;
  swap(x, y);
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if got := globalValue(t, prog, st, "result").I; got != 144 {
		t.Fatalf("fib(12) = %d, want 144", got)
	}
	if globalValue(t, prog, st, "x").I != 2 || globalValue(t, prog, st, "y").I != 1 {
		t.Fatal("swap via var params failed")
	}
}

func TestEnumsAndSets(t *testing.T) {
	prog := compileBody(t, `
type color = (red, green, blue);
     palette = set of color;
var c : color; pal : palette; hit : boolean;
state S0;
initialize to S0 begin
  c := green;
  pal := [red, blue];
  hit := c in pal;
  pal := pal + [green];
  hit := c in pal;
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if globalValue(t, prog, st, "hit").I != 1 {
		t.Fatal("set membership after union failed")
	}
}

func TestBuiltins(t *testing.T) {
	prog := compileBody(t, `
type color = (red, green, blue);
var a, b, c : integer; ch : char; col : color;
state S0;
initialize to S0 begin
  a := ord('A');
  ch := chr(a + 1);
  col := succ(red);
  col := pred(blue);
  b := abs(-7);
  if odd(3) then c := 1 else c := 0;
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if globalValue(t, prog, st, "a").I != 65 {
		t.Error("ord")
	}
	if globalValue(t, prog, st, "ch").I != 66 {
		t.Error("chr")
	}
	if globalValue(t, prog, st, "col").I != 1 {
		t.Error("succ/pred")
	}
	if globalValue(t, prog, st, "b").I != 7 {
		t.Error("abs")
	}
	if globalValue(t, prog, st, "c").I != 1 {
		t.Error("odd")
	}
}

func TestProvidedClauseEvaluation(t *testing.T) {
	prog := compileBody(t, `
var x : integer;
state S0;
initialize to S0 begin x := 5 end;
trans
  from S0 to S0 when P.m provided v > x name gt: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.EvalProvided(st, prog.Trans[0], []Value{MakeInt(6)})
	if err != nil || !ok {
		t.Fatalf("provided(6): %v %v", ok, err)
	}
	ok, err = e.EvalProvided(st, prog.Trans[0], []Value{MakeInt(4)})
	if err != nil || ok {
		t.Fatalf("provided(4): %v %v", ok, err)
	}
}

// --- partial-trace (undefined value) semantics ------------------------------

func TestUndefinedProvidedIsTrueInPartialMode(t *testing.T) {
	prog := compileBody(t, `
var x : integer;
state S0;
initialize to S0 begin x := 5 end;
trans
  from S0 to S0 when P.m provided v > x name gt: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	undef := []Value{UndefValue(types.Int)}
	e.Partial = true
	ok, err := e.EvalProvided(st, prog.Trans[0], undef)
	if err != nil || !ok {
		t.Fatalf("partial: provided(undef) = %v, %v; want true", ok, err)
	}
	e.Partial = false
	ok, err = e.EvalProvided(st, prog.Trans[0], undef)
	if err != nil || ok {
		t.Fatalf("normal: provided(undef) = %v, %v; want false", ok, err)
	}
}

func TestDecisionForkingOnUndefinedCondition(t *testing.T) {
	prog := compileBody(t, `
var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans
  from S0 to S0 when P.m name branch: begin
    if v > 3 then x := 1 else x := 2;
  end;
`)
	e := New(Compile(prog))
	e.Partial = true
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.ExecuteForked(st, prog.Trans[0], []Value{UndefValue(types.Int)})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (both branches)", len(results))
	}
	got := map[int64]bool{}
	for _, r := range results {
		got[globalValue(t, prog, r.State, "x").I] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("branch outcomes: %v", got)
	}
	// Base state must be untouched.
	if globalValue(t, prog, st, "x").I != 0 {
		t.Fatal("forked execution mutated the base state")
	}
}

func TestForkBudget(t *testing.T) {
	prog := compileBody(t, `
var x : integer;
state S0;
initialize to S0 begin x := 0 end;
trans
  from S0 to S0 when P.m name spin: begin
    while v > x do x := x + 0;
  end;
`)
	e := New(Compile(prog))
	e.Partial = true
	e.Limits.MaxForks = 8
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.ExecuteForked(st, prog.Trans[0], []Value{UndefValue(types.Int)})
	if err == nil || !strings.Contains(err.Error(), "decision budget") {
		t.Fatalf("err = %v, want decision budget error", err)
	}
}

func TestKleeneLogic(t *testing.T) {
	prog := compileBody(t, `
var a, b : boolean;
state S0;
initialize to S0 begin a := false; b := true end;
trans
  from S0 to S0 when P.m provided a and (v > 0) name t1: begin end;
  from S0 to S0 when P.m provided b or (v > 0) name t2: begin end;
`)
	e := New(Compile(prog))
	e.Partial = true
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	undef := []Value{UndefValue(types.Int)}
	// false and undef = false (defined), so provided is false even in
	// partial mode.
	ok, err := e.EvalProvided(st, prog.Trans[0], undef)
	if err != nil || ok {
		t.Fatalf("false and undef = %v, want false", ok)
	}
	// true or undef = true.
	ok, err = e.EvalProvided(st, prog.Trans[1], undef)
	if err != nil || !ok {
		t.Fatalf("true or undef = %v, want true", ok)
	}
}

// --- value model properties -------------------------------------------------

func TestValueCopyIsDeep(t *testing.T) {
	rec := &types.Type{Kind: types.Record, Fields: []types.Field{
		{Name: "a", Type: types.Int},
		{Name: "b", Type: &types.Type{Kind: types.Array,
			Indexes: []*types.Type{{Kind: types.Subrange, Base: types.Int, Lo: 0, Hi: 2}},
			Elem:    types.Int}},
	}}
	v := Zero(rec, false)
	v.Elems[0].I = 7
	v.Elems[1].Elems[2].I = 9
	c := v.Copy()
	c.Elems[0].I = 100
	c.Elems[1].Elems[2].I = 200
	if v.Elems[0].I != 7 || v.Elems[1].Elems[2].I != 9 {
		t.Fatal("Copy is shallow")
	}
}

// Property: MatchParam is reflexive on defined integer values and always true
// when either side is undefined.
func TestMatchParamProperties(t *testing.T) {
	f := func(x int64, undefLeft, undefRight bool) bool {
		a, b := MakeInt(x), MakeInt(x)
		a.Undef, b.Undef = undefLeft, undefRight
		if undefLeft || undefRight {
			other := MakeInt(x + 1)
			return MatchParam(a, other) || !undefLeft
		}
		return MatchParam(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: fingerprints are equal iff scalar values are equal (integers).
func TestFingerprintDistinguishesValues(t *testing.T) {
	f := func(x, y int64) bool {
		var sx, sy strings.Builder
		MakeInt(x).Fingerprint(&sx)
		MakeInt(y).Fingerprint(&sy)
		return (sx.String() == sy.String()) == (x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: heap snapshot/restore round-trips the fingerprint.
func TestHeapSnapshotProperty(t *testing.T) {
	f := func(vals []int64) bool {
		h := NewHeap()
		for _, v := range vals {
			addr := h.Alloc(types.Int, false)
			cell, _ := h.Get(addr)
			cell.I = v
		}
		var a, b strings.Builder
		h.Fingerprint(&a)
		h.Snapshot().Fingerprint(&b)
		return a.String() == b.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValueString(t *testing.T) {
	enum := &types.Type{Kind: types.Enum, EnumNames: []string{"red", "green"}}
	cases := []struct {
		v    Value
		want string
	}{
		{MakeInt(42), "42"},
		{MakeBool(true), "true"},
		{MakeOrdinal(enum, 1), "green"},
		{MakeOrdinal(types.Chr, 'x'), "'x'"},
		{UndefValue(types.Int), "?"},
		{Zero(&types.Type{Kind: types.Pointer, Elem: types.Int}, false), "nil"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestHeapErrors(t *testing.T) {
	h := NewHeap()
	if _, err := h.Get(0); err == nil {
		t.Error("nil get")
	}
	if _, err := h.Get(99); err == nil {
		t.Error("dangling get")
	}
	if err := h.Dispose(0); err == nil {
		t.Error("nil dispose")
	}
	if err := h.Dispose(42); err == nil {
		t.Error("double dispose")
	}
	addr := h.Alloc(types.Int, false)
	if err := h.Dispose(addr); err != nil {
		t.Errorf("dispose: %v", err)
	}
	if err := h.Dispose(addr); err == nil {
		t.Error("double dispose after free")
	}
}

// TestOutputsValidUntilNextCall pins the Exec output contract: the outputs of
// one RunInit, Execute or ExecuteForked call, with their Params, stay intact
// until the next of those calls on the same Exec (a guard evaluated in
// between leaves them alone), and each ExecuteForked result keeps its own.
func TestOutputsValidUntilNextCall(t *testing.T) {
	prog := compileBody(t, `
state S0;
initialize to S0 begin output P.r(7) end;
trans
  from S0 to S0 when P.m name T1: begin if v = 1 then output P.r(10) else output P.r(20) end;
  from S0 to S0 when P.m provided v > 5 name T2: begin end;
`)
	t1, t2 := prog.Trans[0], prog.Trans[1]
	vals := func(outs []Output) []int64 {
		var got []int64
		for _, o := range outs {
			if cap(o.Params) != len(o.Params) {
				t.Errorf("output %s: Params cap %d, len %d; a caller's append could overwrite the next output",
					o, cap(o.Params), len(o.Params))
			}
			for _, p := range o.Params {
				got = append(got, p.I)
			}
		}
		return got
	}
	check := func(what string, outs []Output, want ...int64) {
		t.Helper()
		if got := vals(outs); !slices.Equal(got, want) {
			t.Errorf("%s: outputs %v, want %v", what, got, want)
		}
	}

	e := New(Compile(prog))
	st, initOuts, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvalProvided(st, t2, []Value{MakeInt(9)}); err != nil {
		t.Fatal(err)
	}
	check("RunInit, after a guard", initOuts, 7)

	outs, err := e.Execute(st, t1, []Value{MakeInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	if cap(outs) != len(outs) {
		t.Errorf("Execute outputs: cap %d, len %d", cap(outs), len(outs))
	}
	if _, err := e.EvalProvided(st, t2, []Value{MakeInt(9)}); err != nil {
		t.Fatal(err)
	}
	check("Execute v=1, after a guard", outs, 10)
	outs, err = e.Execute(st, t1, []Value{MakeInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	check("Execute v=2", outs, 20)

	// An undefined v forks T1 into both branches; each result keeps the
	// output of its own branch.
	e.Partial = true
	results, err := e.ExecuteForked(st, t1, []Value{UndefValue(types.Int)})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i, r := range results {
		if len(r.Outputs) != 1 {
			t.Fatalf("result %d: %d outputs, want 1", i, len(r.Outputs))
		}
		got = append(got, vals(r.Outputs)...)
	}
	slices.Sort(got)
	if !slices.Equal(got, []int64{10, 20}) {
		t.Errorf("forked outputs %v, want [10 20]", got)
	}
}
