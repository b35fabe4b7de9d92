package vm

import (
	"strings"
	"testing"

	"repro/internal/estelle/types"
)

func TestSetOperations(t *testing.T) {
	prog := compileBody(t, `
type digits = set of 0 .. 15;
var a, b, u, d, i : digits; ok : boolean;
state S0;
initialize to S0 begin
  a := [1, 2, 3];
  b := [3, 4];
  u := a + b;
  d := a - b;
  i := a * b;
  ok := (3 in u) and (4 in u) and (1 in d) and not (3 in d) and (3 in i) and not (1 in i);
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if globalValue(t, prog, st, "ok").I != 1 {
		t.Fatal("set algebra failed")
	}
}

func TestSetEqualityAndRanges(t *testing.T) {
	prog := compileBody(t, `
type digits = set of 0 .. 15;
var a, b : digits; ok : boolean;
state S0;
initialize to S0 begin
  a := [1 .. 4];
  b := [1, 2, 3, 4];
  ok := a = b;
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if globalValue(t, prog, st, "ok").I != 1 {
		t.Fatal("set range constructor or equality failed")
	}
}

func TestWholeRecordAndArrayComparison(t *testing.T) {
	prog := compileBody(t, `
type pair = record a, b : integer end;
     vec = array [1..3] of integer;
var p1, p2 : pair; v1, v2 : vec; ok : boolean;
state S0;
initialize to S0 begin
  p1.a := 1; p1.b := 2;
  p2 := p1;
  v1[1] := 9; v1[2] := 8; v1[3] := 7;
  v2 := v1;
  ok := (p1 = p2) and (v1 = v2);
  p2.b := 3;
  ok := ok and (p1 <> p2);
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if globalValue(t, prog, st, "ok").I != 1 {
		t.Fatal("structured comparison failed")
	}
}

func TestStructuredAssignmentIsDeepCopy(t *testing.T) {
	prog := compileBody(t, `
type vec = array [1..2] of integer;
     box = record v : vec end;
var x, y : box; ok : boolean;
state S0;
initialize to S0 begin
  x.v[1] := 5;
  y := x;
  x.v[1] := 99;
  ok := y.v[1] = 5;
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if globalValue(t, prog, st, "ok").I != 1 {
		t.Fatal("assignment aliased the source")
	}
}

func TestCaseElseAndNoMatch(t *testing.T) {
	prog := compileBody(t, `
var x, r : integer;
state S0;
initialize to S0 begin
  x := 42;
  case x of
    1: r := 1;
    2: r := 2
    else r := 99
  end;
  case x of
    1: r := r + 1000
  end
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	// else taken; unmatched case without else is a no-op.
	if got := globalValue(t, prog, st, "r").I; got != 99 {
		t.Fatalf("r = %d, want 99", got)
	}
}

func TestForDowntoAndEmptyRanges(t *testing.T) {
	prog := compileBody(t, `
var i, sum : integer;
state S0;
initialize to S0 begin
  sum := 0;
  for i := 5 downto 1 do sum := sum + i;
  for i := 3 to 1 do sum := sum + 100;
  for i := 1 downto 3 do sum := sum + 100;
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if got := globalValue(t, prog, st, "sum").I; got != 15 {
		t.Fatalf("sum = %d, want 15 (empty ranges must not execute)", got)
	}
}

func TestChrOutOfRange(t *testing.T) {
	prog := compileBody(t, `
var c : char;
state S0;
initialize to S0 begin c := 'a' end;
trans
  from S0 to S0 when P.m name boom: begin c := chr(v) end;
`)
	if _, _, err := runInitAndFire(t, prog, 300); err == nil {
		t.Fatal("expected chr range error")
	}
	if _, _, err := runInitAndFire(t, prog, 65); err != nil {
		t.Fatalf("chr(65): %v", err)
	}
}

func TestSuccPredBounds(t *testing.T) {
	prog := compileBody(t, `
type color = (red, green, blue);
var c : color;
state S0;
initialize to S0 begin c := blue end;
trans
  from S0 to S0 when P.m name boom: begin c := succ(c) end;
`)
	if _, _, err := runInitAndFire(t, prog, 0); err == nil {
		t.Fatal("expected succ(blue) range error")
	}
}

func TestCallDepthLimit(t *testing.T) {
	prog := compileBody(t, `
var r : integer;
function down(n : integer) : integer;
begin
  down := down(n + 1)
end;
state S0;
initialize to S0 begin r := 0 end;
trans
  from S0 to S0 when P.m name boom: begin r := down(0) end;
`)
	e := New(Compile(prog))
	e.Limits.MaxCallDepth = 100
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Execute(st, prog.Trans[0], []Value{MakeInt(0)})
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("err = %v", err)
	}
}

func TestArrayIndexOutOfRange(t *testing.T) {
	prog := compileBody(t, `
var a : array [1..3] of integer;
state S0;
initialize to S0 begin a[1] := 0 end;
trans
  from S0 to S0 when P.m name boom: begin a[v] := 1 end;
`)
	if _, _, err := runInitAndFire(t, prog, 2); err != nil {
		t.Fatalf("in range: %v", err)
	}
	if _, _, err := runInitAndFire(t, prog, 4); err == nil {
		t.Fatal("expected index range error")
	}
	if _, _, err := runInitAndFire(t, prog, 0); err == nil {
		t.Fatal("expected index range error for 0")
	}
}

func TestNegativeModIsNonNegative(t *testing.T) {
	prog := compileBody(t, `
var r : integer;
state S0;
initialize to S0 begin r := 0 end;
trans
  from S0 to S0 when P.m name m: begin r := v mod 7 end;
`)
	st, _, err := runInitAndFire(t, prog, -3)
	if err != nil {
		t.Fatal(err)
	}
	if got := globalValue(t, prog, st, "r").I; got != 4 {
		t.Fatalf("(-3) mod 7 = %d, want 4 (Pascal-style non-negative mod)", got)
	}
}

func TestMultiDimensionalArrays(t *testing.T) {
	prog := compileBody(t, `
var m : array [1..2, 1..3] of integer;
    i, j, sum : integer;
state S0;
initialize to S0 begin
  for i := 1 to 2 do
    for j := 1 to 3 do
      m[i, j] := i * 10 + j;
  sum := m[1, 1] + m[2, 3];
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if got := globalValue(t, prog, st, "sum").I; got != 34 {
		t.Fatalf("sum = %d, want 34", got)
	}
}

func TestLinkedListTraversal(t *testing.T) {
	prog := compileBody(t, `
type cp = ^cell;
     cell = record d : integer; next : cp end;
var head, cur : cp; sum : integer;
procedure push(v : integer);
var c : cp;
begin
  new(c);
  c^.d := v;
  c^.next := head;
  head := c
end;
state S0;
initialize to S0 begin
  head := nil;
  push(1); push(2); push(3);
  sum := 0;
  cur := head;
  while cur <> nil do begin
    sum := sum + cur^.d;
    cur := cur^.next
  end
end;
trans from S0 to S0 when P.m name t: begin end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if got := globalValue(t, prog, st, "sum").I; got != 6 {
		t.Fatalf("sum = %d, want 6", got)
	}
	if st.Heap.Len() != 3 {
		t.Fatalf("heap = %d cells", st.Heap.Len())
	}
}

func TestUndefPropagationThroughArithmetic(t *testing.T) {
	prog := compileBody(t, `
var x, y : integer;
state S0;
initialize to S0 begin x := 5 end;
trans
  from S0 to S0 when P.m name t: begin y := v + x * 2 end;
`)
	e := New(Compile(prog))
	e.Partial = true
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(st, prog.Trans[0], []Value{UndefValue(types.Int)}); err != nil {
		t.Fatal(err)
	}
	if !globalValue(t, prog, st, "y").Undef {
		t.Fatal("undefined operand should make the result undefined")
	}
}

func TestStateFingerprintSensitivity(t *testing.T) {
	prog := compileBody(t, `
var x : integer;
state S0, S1;
initialize to S0 begin x := 0 end;
trans
  from S0 to S1 when P.m name t: begin x := v end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatal(err)
	}
	fp0 := st.Fingerprint()
	snap := st.Snapshot()
	if snap.Fingerprint() != fp0 {
		t.Fatal("snapshot fingerprint differs")
	}
	if _, err := e.Execute(st, prog.Trans[0], []Value{MakeInt(3)}); err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint() == fp0 {
		t.Fatal("fingerprint insensitive to state change")
	}
}
