package vm

import (
	"strings"
	"testing"
)

// TestExecutePanicContained: a panic raised mid-transition (via the
// PreTransition hook, standing in for a VM bug) surfaces as a *FaultError,
// not a crash.
func TestExecutePanicContained(t *testing.T) {
	prog := compileBody(t, `
var g : integer;
state S0;
initialize to S0 begin g := 0 end;
trans from S0 to S0 when P.m name T1: begin g := v end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	e.PreTransition = func(string) { panic("boom") }
	_, err = e.Execute(st, prog.Trans[0], []Value{MakeInt(1)})
	fe, ok := err.(*FaultError)
	if !ok {
		t.Fatalf("err = %v (%T), want *FaultError", err, err)
	}
	if !strings.Contains(fe.Error(), "boom") {
		t.Fatalf("fault error %q does not mention the panic", fe.Error())
	}
	if len(fe.Stack) == 0 {
		t.Fatal("fault error has no stack")
	}
	if !Contained(fe) {
		t.Fatal("Contained(FaultError) = false")
	}

	// The same executor stays usable after a contained fault.
	e.PreTransition = nil
	st2, _, err := e.RunInit()
	if err != nil {
		t.Fatalf("re-init after fault: %v", err)
	}
	if _, err := e.Execute(st2, prog.Trans[0], []Value{MakeInt(7)}); err != nil {
		t.Fatalf("execute after fault: %v", err)
	}
}

// TestForkedPanicContained: the partial-trace forked execution path contains
// panics the same way.
func TestForkedPanicContained(t *testing.T) {
	prog := compileBody(t, `
var g : integer;
state S0;
initialize to S0 begin g := 0 end;
trans from S0 to S0 when P.m name T1: begin g := v end;
`)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	e.PreTransition = func(string) { panic("forked boom") }
	_, err = e.ExecuteForked(st, prog.Trans[0], []Value{MakeInt(1)})
	if _, ok := err.(*FaultError); !ok {
		t.Fatalf("err = %v (%T), want *FaultError", err, err)
	}
}

// TestHeapBudget: a transition that allocates without bound hits the
// MaxHeapCells limit as a diagnosed runtime error instead of exhausting
// process memory.
func TestHeapBudget(t *testing.T) {
	prog := compileBody(t, `
type pint = ^integer;
var g : integer; q : pint;
state S0;
initialize to S0 begin g := 0 end;
trans
  from S0 to S0 when P.m name T1: begin
    while g = 0 do
      new(q);
  end;
`)
	e := New(Compile(prog))
	e.Limits.MaxSteps = 100_000_000 // the heap budget must fire first
	e.Limits.MaxHeapCells = 1000
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	_, err = e.Execute(st, prog.Trans[0], []Value{MakeInt(1)})
	rte, ok := err.(*RuntimeError)
	if !ok {
		t.Fatalf("err = %v (%T), want *RuntimeError", err, err)
	}
	if !strings.Contains(rte.Error(), "heap budget") {
		t.Fatalf("error %q does not mention the heap budget", rte.Error())
	}
	if !Contained(err) {
		t.Fatal("Contained(RuntimeError) = false")
	}
}
