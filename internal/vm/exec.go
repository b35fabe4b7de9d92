package vm

import (
	"fmt"
	"runtime/debug"

	"repro/internal/estelle/ast"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/token"
	"repro/internal/estelle/types"
)

// Output is one interaction produced by an output statement during a
// transition block. The Exec that produced it keeps its outputs and their
// Params in buffers it reuses: an Output, and its Params, are valid until the
// next RunInit, Execute or ExecuteForked call on the same Exec. A caller that
// needs them longer copies them.
type Output struct {
	// IP is the flattened interaction-point instance id.
	IP     int
	Inter  *sema.Interaction
	Params []Value
}

// String renders the output as "IPNAME.inter(p1,p2)".
func (o Output) String() string { return o.Inter.Name }

// TransResult is one outcome of executing a transition. In partial-trace
// mode a single transition may yield several outcomes, one per feasible
// assignment of undefined branch conditions (the decision vector).
type TransResult struct {
	State     *State
	Outputs   []Output
	Decisions []bool
}

// Limits bound transition execution, protecting the analyzer from runaway
// loops in specifications.
type Limits struct {
	// MaxSteps bounds statements executed per transition (default 1e6).
	MaxSteps int
	// MaxCallDepth bounds function recursion (default 1000).
	MaxCallDepth int
	// MaxForks bounds decision-vector enumeration per transition in
	// partial-trace mode (default 64).
	MaxForks int
	// MaxHeapCells bounds live dynamic-memory cells per state, so a
	// specification allocating in a loop cannot run the analyzer out of
	// memory (default 1<<20).
	MaxHeapCells int
}

func (l Limits) withDefaults() Limits {
	if l.MaxSteps <= 0 {
		l.MaxSteps = 1_000_000
	}
	if l.MaxCallDepth <= 0 {
		l.MaxCallDepth = 1000
	}
	if l.MaxForks <= 0 {
		l.MaxForks = 64
	}
	if l.MaxHeapCells <= 0 {
		l.MaxHeapCells = 1 << 20
	}
	return l
}

// Code is a checked program compiled into Go closures, the counterpart of
// the C++ that Dingo generated: every provided clause, transition block,
// function body and the initialize block, with symbols, types, field
// indexes, builtins, call targets and output groups resolved once by
// Compile. Code is immutable, so any number of Execs on any number of
// goroutines may share one.
type Code struct {
	globals []*sema.VarSym
	initTo  int
	init    stmtFn // nil when there is no initialize block
	trans   []transCode
}

type transCode struct {
	ti       *sema.TransInfo
	provided scalarFn // nil when there is no provided clause
	body     stmtFn   // nil when there is no block
	disc     Discriminant
	keyed    bool // disc is set
}

// Discriminant is the key of a provided clause whose leftmost conjunct is
// `p = c` or `c = p`: Param is p's index among the when interaction's
// parameters and Value is c's ordinal. When that parameter is bound,
// defined and not Value, EvalProvided returns exactly (false, nil), in
// either mode, so a caller may skip the call.
type Discriminant struct {
	Param int
	Value int64
}

// Discriminant returns ti's discriminant; ok is false when its provided
// clause has none or ti is not part of the compiled program.
func (c *Code) Discriminant(ti *sema.TransInfo) (d Discriminant, ok bool) {
	if ti.Index >= len(c.trans) || c.trans[ti.Index].ti != ti {
		return Discriminant{}, false
	}
	tc := &c.trans[ti.Index]
	return tc.disc, tc.keyed
}

// The closure shapes: an expression's value; the scalar of an ordinal or
// pointer expression (its ordinal and its undefined attribute); a
// statement's effect; and a designator's location.
type (
	exprFn   func(e *Exec) (Value, error)
	scalarFn func(e *Exec) (int64, bool, error)
	stmtFn   func(e *Exec) error
	lvalFn   func(e *Exec) (*Value, error)
)

// Exec executes compiled transition blocks against a State. An Exec is not
// safe for concurrent use; create one per analysis. Distinct Execs over one
// shared *Code are safe to run concurrently: the code is read-only, and all
// mutable execution state (the current State, call frames, output buffers,
// decision vectors) lives in the Exec and in the States it creates, which
// never alias across Execs. This is the VM half of the
// compile-once/analyze-many contract that the batch engine relies on; a
// -race test in this package enforces it.
type Exec struct {
	code *Code
	// Partial enables §5 partial-trace semantics: undefined values
	// propagate, undefined provided-clauses are true, and undefined branch
	// conditions fork execution.
	Partial bool
	Limits  Limits

	// PreTransition, when non-nil, runs at the start of every transition
	// body execution with the transition's name. Fault-injection harnesses
	// use it to simulate VM crashes; a panic it raises is contained like any
	// other execution fault.
	PreTransition func(name string)

	state       *State
	interParams []Value
	steps       int

	// outBuf holds the outputs of one RunInit, Execute or ExecuteForked call
	// and valBuf their parameter values; each of those entry points
	// truncates both when it starts, and every result it returns is a
	// disjoint window of them.
	outBuf []Output
	valBuf []Value

	// frames is the call-frame stack, reused across calls: the first nres
	// are reserved. A call reserves its frame before evaluating arguments,
	// so calls nested in an argument list take the frames above it. cur is
	// the frame of the running function body (nil in transition code) and
	// calls counts running bodies, the recursion depth MaxCallDepth bounds.
	frames []*frame
	nres   int
	calls  int
	cur    *frame

	decisions []bool
	decUsed   int
}

type frame struct {
	slots []Value
	refs  []*Value
}

// RuntimeError is an execution error inside a transition block (nil
// dereference, range violation, step budget exceeded, ...). The analyzer
// reports it as a specification/trace problem rather than an invalid trace.
type RuntimeError struct {
	Pos token.Pos
	Msg string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

func rte(pos token.Pos, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// FaultError is a contained panic from transition execution: a fault the
// executor itself did not anticipate (as opposed to a RuntimeError, which is
// a diagnosed specification-level error). The analyzer treats the faulted
// transition as an infeasible branch and records the fault in its diagnosis,
// so one broken candidate cannot crash a whole analysis.
type FaultError struct {
	// Op names what was executing ("transition t_dt", "provided clause of
	// t_cr", ...).
	Op    string
	Panic any
	// Stack is the goroutine stack captured at the recover point.
	Stack []byte
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("execution fault in %s: %v", e.Op, e.Panic)
}

// finish is deferred around every entry point. It converts an escaping panic
// into a *FaultError labelled op+name (built only then) and drops the
// references to the caller's state and parameters; begin resets everything
// else except the output buffers.
func (e *Exec) finish(op, name string, err *error) {
	if r := recover(); r != nil {
		*err = &FaultError{Op: op + name, Panic: r, Stack: debug.Stack()}
	}
	e.state = nil
	e.interParams = nil
}

// Contained reports whether err is a per-transition execution failure
// (diagnosed runtime error or contained panic) that a search should treat as
// an infeasible branch rather than an analysis-level failure.
func Contained(err error) bool {
	switch err.(type) {
	case *RuntimeError, *FaultError:
		return true
	}
	return false
}

// New returns an executor for code.
func New(code *Code) *Exec {
	return &Exec{code: code, Limits: Limits{}.withDefaults()}
}

// NewState builds the pre-initialize state: every global starts undefined in
// partial mode, zero otherwise, with an empty heap.
func (e *Exec) NewState() *State {
	st := &State{FSM: e.code.initTo, Heap: NewHeap()}
	st.Globals = make([]Value, len(e.code.globals))
	for i, v := range e.code.globals {
		st.Globals[i] = Zero(v.Type, e.Partial)
	}
	return st
}

// RunInit creates a fresh state and executes the initialize transition,
// returning the state and any outputs the initialize block produced. The
// outputs are valid until the next RunInit, Execute or ExecuteForked call on
// e.
func (e *Exec) RunInit() (st *State, outs []Output, err error) {
	defer e.finish("initialize transition", "", &err)
	e.resetOutputs()
	st = e.NewState()
	e.begin(st, nil, nil)
	if e.code.init != nil {
		if err := e.code.init(e); err != nil {
			return nil, nil, err
		}
	}
	return st, e.outputsFrom(0), nil
}

// transCode returns ti's compiled code, refusing a transition of another
// program.
func (e *Exec) transCode(ti *sema.TransInfo) (*transCode, error) {
	if ti.Index < len(e.code.trans) && e.code.trans[ti.Index].ti == ti {
		return &e.code.trans[ti.Index], nil
	}
	return nil, fmt.Errorf("vm: transition %s is not part of the compiled program", ti.Name)
}

// EvalProvided evaluates a transition's provided clause against st with the
// given interaction parameters bound. Undefined results are true in partial
// mode (§5.1). Provided clauses are side-effect free: sema rejects a clause
// that calls a routine which changes module state.
func (e *Exec) EvalProvided(st *State, ti *sema.TransInfo, params []Value) (ok bool, err error) {
	tc, err := e.transCode(ti)
	if err != nil {
		return false, err
	}
	if tc.provided == nil {
		return true, nil
	}
	defer e.finish("provided clause of ", ti.Name, &err)
	e.begin(st, params, nil)
	b, undef, err := tc.provided(e)
	if err != nil {
		return false, err
	}
	if undef {
		return e.Partial, nil
	}
	return b != 0, nil
}

// Execute runs transition ti against st in place (the paper's Update
// operation), binding params as the consumed interaction's parameters, and
// returns the outputs the block produced, valid until the next RunInit,
// Execute or ExecuteForked call on e. The caller must snapshot st first if it
// needs to backtrack. Execute must not be used in partial mode when the block
// may fork; use ExecuteForked there.
func (e *Exec) Execute(st *State, ti *sema.TransInfo, params []Value) (outs []Output, err error) {
	tc, err := e.transCode(ti)
	if err != nil {
		return nil, err
	}
	defer e.finish("transition ", ti.Name, &err)
	e.resetOutputs()
	if err := e.run(tc, st, params, nil); err != nil {
		return nil, err
	}
	if ti.To >= 0 {
		st.FSM = ti.To
	}
	return e.outputsFrom(0), nil
}

// run executes tc's block against st.
func (e *Exec) run(tc *transCode, st *State, params []Value, decisions []bool) error {
	e.begin(st, params, decisions)
	if e.PreTransition != nil {
		e.PreTransition(tc.ti.Name)
	}
	if tc.body == nil {
		return nil
	}
	return tc.body(e)
}

// ExecuteForked runs ti against snapshots of st, enumerating every feasible
// assignment of undefined branch conditions up to Limits.MaxForks. In normal
// (non-partial) mode it returns exactly one result. Branches that hit runtime
// errors are dropped; if every branch errors, the first error is returned.
// Each result's Outputs are its own window of e's output buffers, valid until
// the next RunInit, Execute or ExecuteForked call on e.
func (e *Exec) ExecuteForked(st *State, ti *sema.TransInfo, params []Value) ([]TransResult, error) {
	tc, err := e.transCode(ti)
	if err != nil {
		return nil, err
	}
	e.resetOutputs()
	queue := [][]bool{nil}
	var results []TransResult
	var firstErr error
	runs := 0
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		runs++
		if runs > e.Limits.MaxForks {
			return nil, rte(ti.Decl.Pos(), "transition %s: partial-trace decision budget exceeded (%d forks)",
				ti.Name, e.Limits.MaxForks)
		}
		snap := st.Snapshot()
		// Each decision vector executes behind its own panic barrier so a
		// fault on one branch leaves the siblings explorable.
		outs, used, err := func() (outs []Output, used int, err error) {
			defer e.finish("transition ", ti.Name, &err)
			mark := len(e.outBuf)
			if err := e.run(tc, snap, params, d); err != nil {
				return nil, e.decUsed, err
			}
			return e.outputsFrom(mark), e.decUsed, nil
		}()
		// Enqueue the sibling branches discovered during this run: defaults
		// beyond the provided vector were false, so each position between
		// len(d) and used has an unexplored true-branch.
		for j := len(d); j < used; j++ {
			alt := make([]bool, j+1)
			copy(alt, d)
			// positions len(d)..j-1 stay false (the defaults taken), j is true
			alt[j] = true
			queue = append(queue, alt)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ti.To >= 0 {
			snap.FSM = ti.To
		}
		full := make([]bool, used)
		copy(full, d)
		results = append(results, TransResult{State: snap, Outputs: outs, Decisions: full})
	}
	if len(results) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

func (e *Exec) begin(st *State, params []Value, decisions []bool) {
	e.state = st
	e.interParams = params
	e.steps = 0
	e.nres, e.calls, e.cur = 0, 0, nil
	e.decisions = decisions
	e.decUsed = 0
}

// resetOutputs empties the output buffers. Only the entry points that
// return outputs call it, never begin, so that the results of one
// ExecuteForked call keep disjoint windows.
func (e *Exec) resetOutputs() {
	e.outBuf, e.valBuf = e.outBuf[:0], e.valBuf[:0]
}

// outputsFrom returns the outputs buffered from index mark on, nil when there
// are none. The window's capacity ends at its length, so a caller's append
// cannot overwrite a later window.
func (e *Exec) outputsFrom(mark int) []Output {
	end := len(e.outBuf)
	if end == mark {
		return nil
	}
	return e.outBuf[mark:end:end]
}

// decide consumes the next branch decision in partial mode.
func (e *Exec) decide() bool {
	var b bool
	if e.decUsed < len(e.decisions) {
		b = e.decisions[e.decUsed]
	}
	e.decUsed++
	return b
}

// step charges one statement against the budget.
func (e *Exec) step(pos token.Pos) error {
	e.steps++
	if e.steps > e.Limits.MaxSteps {
		return rte(pos, "statement budget exceeded (%d); possible non-terminating loop", e.Limits.MaxSteps)
	}
	return nil
}

// reserve takes the next frame off the stack, sized for n slots.
func (e *Exec) reserve(n int) *frame {
	if e.nres == len(e.frames) {
		e.frames = append(e.frames, new(frame))
	}
	fr := e.frames[e.nres]
	e.nres++
	if cap(fr.slots) < n {
		fr.slots, fr.refs = make([]Value, n), make([]*Value, n)
	}
	fr.slots, fr.refs = fr.slots[:n], fr.refs[:n]
	return fr
}

// ---------------------------------------------------------------------------
// Compilation

// Compile translates a checked program into closures. It reads the
// per-node tables of prog.Info only here; the Code keeps none of them.
func Compile(prog *sema.Program) *Code {
	if prog.Info == nil || prog.Info.Uses == nil {
		panic("vm: Compile needs the sema.Info of a freshly checked program")
	}
	c := &compiler{info: prog.Info, funcs: make([]*funcCode, len(prog.Funcs))}
	// Allocate every function first so calls, recursive ones included,
	// bind to their callee's code before its body is compiled.
	for i := range prog.Funcs {
		c.funcs[i] = new(funcCode)
	}
	for i, fs := range prog.Funcs {
		c.funcs[i].body = c.seq(fs.Decl.Body.Stmts)
	}
	code := &Code{globals: prog.GlobalVars, initTo: prog.InitTo, trans: make([]transCode, len(prog.Trans))}
	if prog.Init != nil && prog.Init.Body != nil {
		code.init = c.seq(prog.Init.Body.Stmts)
	}
	for i, ti := range prog.Trans {
		tc := &code.trans[i]
		tc.ti = ti
		if ti.Provided != nil {
			tc.provided = c.scalar(ti.Provided)
			tc.disc, tc.keyed = c.discriminant(ti.Provided)
		}
		if ti.Decl.Body != nil {
			tc.body = c.seq(ti.Decl.Body.Stmts)
		}
	}
	return code
}

type compiler struct {
	info  *sema.Info
	funcs []*funcCode // by FuncSym.Index
}

type funcCode struct{ body stmtFn }

func failExpr(pos token.Pos, format string, args ...any) exprFn {
	err := rte(pos, format, args...)
	return func(*Exec) (Value, error) { return Value{}, err }
}

func failScalar(pos token.Pos, format string, args ...any) scalarFn {
	err := rte(pos, format, args...)
	return func(*Exec) (int64, bool, error) { return 0, false, err }
}

func failLval(pos token.Pos, format string, args ...any) lvalFn {
	err := rte(pos, format, args...)
	return func(*Exec) (*Value, error) { return nil, err }
}

func failStmt(pos token.Pos, format string, args ...any) stmtFn {
	err := rte(pos, format, args...)
	return func(*Exec) error { return err }
}

// ---------------------------------------------------------------------------
// Statements

// seq runs stmts in order.
func (c *compiler) seq(stmts []ast.Stmt) stmtFn {
	fns := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		fns[i] = c.stmt(s)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(e *Exec) error {
		for _, f := range fns {
			if err := f(e); err != nil {
				return err
			}
		}
		return nil
	}
}

// stmt compiles s behind its charge against the statement budget.
func (c *compiler) stmt(s ast.Stmt) stmtFn {
	pos, run := s.Pos(), c.stmtBody(s)
	return func(e *Exec) error {
		if err := e.step(pos); err != nil {
			return err
		}
		return run(e)
	}
}

func (c *compiler) stmtBody(s ast.Stmt) stmtFn {
	pos := s.Pos()
	switch s := s.(type) {
	case *ast.Block:
		return c.seq(s.Stmts)
	case *ast.EmptyStmt:
		return func(*Exec) error { return nil }
	case *ast.AssignStmt:
		lhs := c.lvalue(s.LHS)
		if scalarType(c.info.Types[s.LHS]) {
			rhs := c.scalar(s.RHS)
			return func(e *Exec) error {
				i, undef, err := rhs(e)
				if err != nil {
					return err
				}
				lv, err := lhs(e)
				if err != nil {
					return err
				}
				return store(lv, i, undef, pos)
			}
		}
		rhs := c.expr(s.RHS)
		return func(e *Exec) error {
			v, err := rhs(e)
			if err != nil {
				return err
			}
			lv, err := lhs(e)
			if err != nil {
				return err
			}
			*lv = coerce(lv.T, v).Copy()
			return nil
		}
	case *ast.IfStmt:
		cond, then, els := c.cond(s.Cond), c.stmt(s.Then), stmtFn(nil)
		if s.Else != nil {
			els = c.stmt(s.Else)
		}
		return func(e *Exec) error {
			b, err := cond(e)
			switch {
			case err != nil:
				return err
			case b:
				return then(e)
			case els != nil:
				return els(e)
			}
			return nil
		}
	case *ast.WhileStmt:
		cond, body := c.cond(s.Cond), c.stmt(s.Body)
		return func(e *Exec) error {
			for {
				b, err := cond(e)
				if err != nil || !b {
					return err
				}
				if err := body(e); err != nil {
					return err
				}
				if err := e.step(pos); err != nil {
					return err
				}
			}
		}
	case *ast.RepeatStmt:
		body, cond := c.seq(s.Body), c.cond(s.Cond)
		return func(e *Exec) error {
			for {
				if err := body(e); err != nil {
					return err
				}
				b, err := cond(e)
				if err != nil || b {
					return err
				}
				if err := e.step(pos); err != nil {
					return err
				}
			}
		}
	case *ast.ForStmt:
		return c.forStmt(s)
	case *ast.CaseStmt:
		return c.caseStmt(s)
	case *ast.OutputStmt:
		return c.output(s)
	case *ast.CallStmt:
		if b, ok := c.info.Builtins[s]; ok {
			return c.builtinStmt(s, b)
		}
		fs := c.info.Calls[s]
		if fs == nil {
			return failStmt(pos, "unresolved procedure %s", s.Name)
		}
		call := c.call(fs, s.Args, pos)
		return func(e *Exec) error {
			_, err := call(e)
			return err
		}
	default:
		return failStmt(pos, "unsupported statement")
	}
}

func (c *compiler) forStmt(s *ast.ForStmt) stmtFn {
	pos := s.Pos()
	vs := c.info.ForVars[s]
	if vs == nil {
		return failStmt(pos, "unresolved for-loop variable %s", s.Var)
	}
	from, to, loc, body := c.scalar(s.From), c.scalar(s.To), c.varRef(vs, pos), c.stmt(s.Body)
	down := s.Down
	return func(e *Exec) error {
		fi, fu, err := from(e)
		if err != nil {
			return err
		}
		ti, tu, err := to(e)
		if err != nil {
			return err
		}
		if fu || tu {
			return rte(pos, "for-loop bound is undefined")
		}
		lv, err := loc(e)
		if err != nil {
			return err
		}
		for i := fi; !(down && i < ti || !down && i > ti); {
			if err := store(lv, i, false, pos); err != nil {
				return err
			}
			if err := body(e); err != nil {
				return err
			}
			if err := e.step(pos); err != nil {
				return err
			}
			if down {
				i--
			} else {
				i++
			}
		}
		return nil
	}
}

func (c *compiler) caseStmt(s *ast.CaseStmt) stmtFn {
	pos := s.Pos()
	type arm struct {
		labels []scalarFn
		body   stmtFn
	}
	sel, els := c.scalar(s.Expr), c.seq(s.Else)
	arms := make([]arm, len(s.Arms))
	for i, a := range s.Arms {
		arms[i] = arm{labels: c.scalars(a.Labels), body: c.stmt(a.Body)}
	}
	return func(e *Exec) error {
		v, undef, err := sel(e)
		if err != nil {
			return err
		}
		if undef {
			// Partial mode: fork over the arms with one binary decision each
			// (§5.3); the first arm whose decision is true executes.
			if !e.Partial {
				return rte(pos, "case selector is undefined")
			}
			for _, a := range arms {
				if e.decide() {
					return a.body(e)
				}
			}
			return els(e)
		}
		for _, a := range arms {
			for _, lab := range a.labels {
				l, lu, err := lab(e)
				if err != nil {
					return err
				}
				if !lu && l == v {
					return a.body(e)
				}
			}
		}
		return els(e)
	}
}

func (c *compiler) output(s *ast.OutputStmt) stmtFn {
	pos := s.Pos()
	group, inter := c.info.OutputGroup[s], c.info.OutputInter[s]
	if group == nil || inter == nil {
		return failStmt(pos, "unresolved output statement")
	}
	var idx []ast.Expr
	if len(group.Dims) > 0 {
		ix, ok := s.IP.(*ast.IndexExpr)
		if !ok {
			return failStmt(pos, "output to ip array %s without index", group.Name)
		}
		idx = ix.Indexes
	}
	idxFns := c.scalars(idx)
	args := make([]exprFn, len(s.Args))
	for i, a := range s.Args {
		args[i] = c.arg(inter.Params[i].Type, a)
	}
	return func(e *Exec) error {
		ip := group.Base
		if len(idxFns) > 0 {
			vals := make([]int64, len(idxFns))
			for i, f := range idxFns {
				v, undef, err := f(e)
				if err != nil {
					return err
				}
				if undef {
					// §5.4: an undefined interaction-point index cannot be
					// resolved; this is one of the cases that makes partial
					// trace analysis of demultiplexers impossible.
					return rte(idx[i].Pos(), "output ip index is undefined")
				}
				vals[i] = v
			}
			off := group.FlatIndex(vals)
			if off < 0 {
				return rte(pos, "output ip index out of range for %s", group.Name)
			}
			ip += off
		}
		// The arguments go to valBuf and the output takes a full-slice
		// window of them. No argument can emit an output between these
		// appends: sema rejects output statements inside functions and
		// procedures.
		start := len(e.valBuf)
		for _, a := range args {
			v, err := a(e)
			if err != nil {
				return err
			}
			e.valBuf = append(e.valBuf, v)
		}
		var params []Value
		if end := len(e.valBuf); end > start {
			params = e.valBuf[start:end:end]
		}
		e.outBuf = append(e.outBuf, Output{IP: ip, Inter: inter, Params: params})
		return nil
	}
}

func (c *compiler) builtinStmt(s *ast.CallStmt, b sema.Builtin) stmtFn {
	pos := s.Pos()
	if b != sema.BuiltinNew && b != sema.BuiltinDispose {
		return failStmt(pos, "builtin %s cannot be used as a statement", s.Name)
	}
	ptr := c.lvalue(s.Args[0])
	return func(e *Exec) error {
		lv, err := ptr(e)
		if err != nil {
			return err
		}
		heap := e.state.Heap
		if b == sema.BuiltinDispose {
			if lv.Undef {
				return rte(pos, "dispose of undefined pointer")
			}
			if err := heap.Dispose(lv.I); err != nil {
				return rte(pos, "%v", err)
			}
			lv.I = 0
			return nil
		}
		if lv.T.Kind != types.Pointer || lv.T.Elem == nil {
			return rte(pos, "new on non-pointer")
		}
		if max := e.Limits.MaxHeapCells; max > 0 && heap.Len() >= max {
			return rte(pos, "heap budget exceeded (%d live cells); possible allocation loop", max)
		}
		lv.I = heap.Alloc(lv.T.Elem, e.Partial)
		lv.Undef = false
		return nil
	}
}

// cond compiles a statement condition; undefined conditions fork in partial
// mode (§5.3) and are errors otherwise.
func (c *compiler) cond(x ast.Expr) func(*Exec) (bool, error) {
	f, pos := c.scalar(x), x.Pos()
	return func(e *Exec) (bool, error) {
		b, undef, err := f(e)
		if err != nil {
			return false, err
		}
		if undef {
			if !e.Partial {
				return false, rte(pos, "condition is undefined")
			}
			return e.decide(), nil
		}
		return b != 0, nil
	}
}

// ---------------------------------------------------------------------------
// L-values and assignment

// varRef compiles the location of variable vs.
func (c *compiler) varRef(vs *sema.VarSym, pos token.Pos) lvalFn {
	slot := vs.Slot
	switch vs.Kind {
	case sema.GlobalVar:
		return func(e *Exec) (*Value, error) { return &e.state.Globals[slot], nil }
	case sema.LocalVar, sema.ResultVar:
		return func(e *Exec) (*Value, error) { return &e.cur.slots[slot], nil }
	case sema.RefParam:
		return func(e *Exec) (*Value, error) { return e.cur.refs[slot], nil }
	case sema.InterParamVar:
		return func(e *Exec) (*Value, error) {
			if slot >= len(e.interParams) {
				return nil, rte(pos, "interaction parameter %s not bound", vs.Name)
			}
			return &e.interParams[slot], nil
		}
	default:
		return failLval(pos, "cannot locate variable %s", vs.Name)
	}
}

func (c *compiler) lvalue(x ast.Expr) lvalFn {
	pos := x.Pos()
	switch x := x.(type) {
	case *ast.Ident:
		vs, ok := c.info.Uses[x].(*sema.VarSym)
		if !ok {
			return failLval(pos, "%s is not assignable", x.Name)
		}
		return c.varRef(vs, pos)
	case *ast.IndexExpr:
		base, index := c.lvalue(x.X), c.index(x)
		return func(e *Exec) (*Value, error) {
			b, err := base(e)
			if err != nil {
				return nil, err
			}
			off, err := index(e, b.T)
			if err != nil {
				return nil, err
			}
			return &b.Elems[off], nil
		}
	case *ast.SelectorExpr:
		base, field := c.lvalue(x.X), c.field(x)
		return func(e *Exec) (*Value, error) {
			b, err := base(e)
			if err != nil {
				return nil, err
			}
			i, err := field(b.T)
			if err != nil {
				return nil, err
			}
			return &b.Elems[i], nil
		}
	case *ast.DerefExpr:
		ptr := c.scalar(x.X)
		return func(e *Exec) (*Value, error) {
			p, undef, err := ptr(e)
			if err != nil {
				return nil, err
			}
			if undef {
				return nil, rte(pos, "dereference of undefined pointer")
			}
			cell, err := e.state.Heap.Get(p)
			if err != nil {
				return nil, rte(pos, "%v", err)
			}
			return cell, nil
		}
	default:
		return failLval(pos, "expression is not assignable")
	}
}

// index compiles x's index list into the flattened element offset within an
// array of run-time type t.
func (c *compiler) index(x *ast.IndexExpr) func(e *Exec, t *types.Type) (int, error) {
	pos, idx, ipos := x.Pos(), c.scalars(x.Indexes), positions(x.Indexes)
	return func(e *Exec, t *types.Type) (int, error) {
		at := t.Root()
		if at.Kind != types.Array {
			return 0, rte(pos, "indexing non-array")
		}
		off := 0
		for d, f := range idx {
			v, undef, err := f(e)
			if err != nil {
				return 0, err
			}
			if undef {
				return 0, rte(ipos[d], "array index is undefined")
			}
			lo, hi := at.Indexes[d].OrdinalRange()
			if v < lo || v > hi {
				return 0, rte(ipos[d], "array index %d out of range %d..%d", v, lo, hi)
			}
			off = off*int(hi-lo+1) + int(v-lo)
		}
		return off, nil
	}
}

// field compiles x's field selection into the field's index within a record
// of run-time type t. The index is resolved here for the checked type;
// structurally equal record types share field order, so only a value of
// another type needs a lookup by name.
func (c *compiler) field(x *ast.SelectorExpr) func(t *types.Type) (int, error) {
	pos, name, static := x.Pos(), x.Field, c.info.Types[x.X]
	at := -1
	if static != nil {
		at = static.Root().FieldIndex(name)
	}
	return func(t *types.Type) (int, error) {
		i := at
		if t != static {
			i = t.Root().FieldIndex(name)
		}
		if i < 0 {
			return 0, rte(pos, "no field %s", name)
		}
		return i, nil
	}
}

// scalarType reports whether values of t have a scalar form: ordinals and
// pointers.
func scalarType(t *types.Type) bool {
	return t != nil && (t.IsOrdinal() || t.Kind == types.Pointer)
}

// scalarValue builds the value a location of type dst holds after storing
// the scalar (i, undef), with the Pascal range check against dst. An
// undefined scalar carries no type; it stores as dst's undefined zero value.
func scalarValue(dst *types.Type, i int64, undef bool, pos token.Pos) (Value, error) {
	if undef {
		return Zero(dst, true), nil
	}
	if dst.IsOrdinal() {
		lo, hi := dst.OrdinalRange()
		if i < lo || i > hi {
			return Value{}, rte(pos, "value %d out of range %d..%d", i, lo, hi)
		}
	}
	return Value{T: dst, I: i}, nil
}

// store assigns the scalar (i, undef) to the ordinal or pointer location lv,
// range-checked against the location's run-time type.
func store(lv *Value, i int64, undef bool, pos token.Pos) error {
	v, err := scalarValue(lv.T, i, undef, pos)
	if err == nil {
		*lv = v
	}
	return err
}

// coerce adapts the structured value v to location type dst. Ordinal and
// pointer values are stored through scalarValue instead.
func coerce(dst *types.Type, v Value) Value {
	if v.Undef {
		return Zero(dst, true)
	}
	v.T = dst
	return v
}

// arg compiles x as the value stored into a new location of type t, a value
// parameter or an output parameter: range-checked and deep-copied.
func (c *compiler) arg(t *types.Type, x ast.Expr) exprFn {
	pos := x.Pos()
	if scalarType(t) {
		f := c.scalar(x)
		return func(e *Exec) (Value, error) {
			i, undef, err := f(e)
			if err != nil {
				return Value{}, err
			}
			return scalarValue(t, i, undef, pos)
		}
	}
	f := c.expr(x)
	return func(e *Exec) (Value, error) {
		v, err := f(e)
		if err != nil {
			return Value{}, err
		}
		return coerce(t, v).Copy(), nil
	}
}

// ---------------------------------------------------------------------------
// Expressions
//
// An expression whose checked type is ordinal or pointer compiles into a
// scalarFn, which returns the ordinal and the undefined attribute without
// building a Value; so do its operands. Set operators, `in`, structured
// = and <>, function calls, reads of records, arrays and heap cells, and
// succ/pred compile into exprFns that build a Value; scalar consumers read
// those through a wrapper.

func positions(xs []ast.Expr) []token.Pos {
	ps := make([]token.Pos, len(xs))
	for i, x := range xs {
		ps[i] = x.Pos()
	}
	return ps
}

func (c *compiler) scalars(xs []ast.Expr) []scalarFn {
	fns := make([]scalarFn, len(xs))
	for i, x := range xs {
		fns[i] = c.scalar(x)
	}
	return fns
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func constScalar(i int64) scalarFn {
	return func(*Exec) (int64, bool, error) { return i, false, nil }
}

// scalar compiles x, whose checked type is ordinal or pointer.
func (c *compiler) scalar(x ast.Expr) scalarFn {
	pos := x.Pos()
	switch x := x.(type) {
	case *ast.IntLit:
		return constScalar(x.Value)
	case *ast.BoolLit:
		return constScalar(b2i(x.Value))
	case *ast.CharLit:
		return constScalar(int64(x.Value))
	case *ast.Ident:
		switch sym := c.info.Uses[x].(type) {
		case *sema.VarSym:
			return c.loadScalar(sym, pos)
		case *sema.ConstSym:
			return constScalar(sym.Val) // nil is 0
		case *sema.FuncSym:
			return scalarOf(c.call(sym, nil, pos))
		}
		return failScalar(pos, "unresolved identifier %s", x.Name)
	case *ast.UnaryExpr:
		return c.scalarUnary(x)
	case *ast.BinaryExpr:
		if !c.valueOp(x) {
			return c.scalarBinary(x)
		}
	case *ast.CallExpr:
		if b, ok := c.info.Builtins[x]; ok && b != sema.BuiltinSucc && b != sema.BuiltinPred {
			return c.scalarBuiltin(x, b)
		}
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.DerefExpr:
	default:
		return failScalar(pos, "unsupported expression")
	}
	return scalarOf(c.expr(x))
}

// scalarOf reads the scalar of an expression that has no scalar form.
func scalarOf(f exprFn) scalarFn {
	return func(e *Exec) (int64, bool, error) {
		v, err := f(e)
		return v.I, v.Undef, err
	}
}

// loadScalar compiles a read of the ordinal or pointer variable vs.
func (c *compiler) loadScalar(vs *sema.VarSym, pos token.Pos) scalarFn {
	slot := vs.Slot
	switch vs.Kind {
	case sema.GlobalVar:
		return func(e *Exec) (int64, bool, error) {
			v := &e.state.Globals[slot]
			return v.I, v.Undef, nil
		}
	case sema.LocalVar, sema.ResultVar:
		return func(e *Exec) (int64, bool, error) {
			v := &e.cur.slots[slot]
			return v.I, v.Undef, nil
		}
	case sema.RefParam:
		return func(e *Exec) (int64, bool, error) {
			v := e.cur.refs[slot]
			return v.I, v.Undef, nil
		}
	case sema.InterParamVar:
		return func(e *Exec) (int64, bool, error) {
			if slot >= len(e.interParams) {
				return 0, false, rte(pos, "interaction parameter %s not bound", vs.Name)
			}
			v := &e.interParams[slot]
			return v.I, v.Undef, nil
		}
	default:
		return failScalar(pos, "cannot locate variable %s", vs.Name)
	}
}

func (c *compiler) scalarUnary(x *ast.UnaryExpr) scalarFn {
	operand, op := c.scalar(x.X), x.Op
	return func(e *Exec) (int64, bool, error) {
		i, undef, err := operand(e)
		switch {
		case err != nil || undef:
			return 0, undef, err
		case op == token.NOT:
			return b2i(i == 0), false, nil
		case op == token.MINUS:
			return -i, false, nil
		}
		return i, false, nil
	}
}

// valueOp reports whether x is a binary operator without a scalar form:
// `in`, and the set and structured operators, whose operands are not
// scalars.
func (c *compiler) valueOp(x *ast.BinaryExpr) bool {
	return x.Op == token.IN || !scalarType(c.info.Types[x.X])
}

func (c *compiler) scalarBinary(x *ast.BinaryExpr) scalarFn {
	a, b, op, pos := c.scalar(x.X), c.scalar(x.Y), x.Op, x.Pos()
	if op == token.AND || op == token.OR {
		// Kleene logic, left operand first: a defined operand decides `and`
		// when false and `or` when true, on either side, so `defined-false
		// and undefined` is a defined false. Only a deciding left operand
		// skips the right one.
		or := op == token.OR
		return func(e *Exec) (int64, bool, error) {
			ai, au, err := a(e)
			if err != nil {
				return 0, false, err
			}
			if !au && (ai != 0) == or {
				return b2i(or), false, nil
			}
			bi, bu, err := b(e)
			if err != nil {
				return 0, false, err
			}
			if !bu && (bi != 0) == or {
				return b2i(or), false, nil
			}
			if au || bu {
				return 0, true, nil
			}
			return b2i(!or), false, nil
		}
	}
	return func(e *Exec) (int64, bool, error) {
		ai, au, err := a(e)
		if err != nil {
			return 0, false, err
		}
		bi, bu, err := b(e)
		if err != nil {
			return 0, false, err
		}
		if au || bu {
			return 0, true, nil
		}
		switch op {
		case token.PLUS:
			return ai + bi, false, nil
		case token.MINUS:
			return ai - bi, false, nil
		case token.STAR:
			return ai * bi, false, nil
		case token.DIV, token.MOD:
			if bi == 0 {
				return 0, false, rte(pos, "division by zero")
			}
			if op == token.DIV {
				return ai / bi, false, nil
			}
			m := ai % bi
			if m < 0 {
				m += abs64(bi)
			}
			return m, false, nil
		case token.EQ:
			return b2i(ai == bi), false, nil
		case token.NEQ:
			return b2i(ai != bi), false, nil
		case token.LT:
			return b2i(ai < bi), false, nil
		case token.LEQ:
			return b2i(ai <= bi), false, nil
		case token.GT:
			return b2i(ai > bi), false, nil
		case token.GEQ:
			return b2i(ai >= bi), false, nil
		}
		return 0, false, rte(pos, "unsupported operator %s", op)
	}
}

// discriminant finds the discriminant of a provided clause x: the leftmost
// conjunct of its top-level `and` chain, when that conjunct is `p = c` or
// `c = p` with p an ordinal interaction parameter and c a literal or a
// declared constant. Only the leftmost conjunct qualifies. scalarBinary
// evaluates it before anything else in the clause, and a defined false
// decides `and` without its right operand, so a bound, defined p other than
// c makes the clause false with nothing else evaluated: no error, no fault.
// A later conjunct runs only after the ones left of it, which may fail
// first; `or` and `not` are not decided by a false `=`.
func (c *compiler) discriminant(x ast.Expr) (Discriminant, bool) {
	for {
		b, ok := x.(*ast.BinaryExpr)
		if !ok || b.Op != token.AND {
			break
		}
		x = b.X
	}
	eq, ok := x.(*ast.BinaryExpr)
	if !ok || eq.Op != token.EQ {
		return Discriminant{}, false
	}
	if d, ok := c.keyOf(eq.X, eq.Y); ok {
		return d, true
	}
	return c.keyOf(eq.Y, eq.X)
}

// keyOf is discriminant's test of one side of `=`: p must be an ordinal
// interaction parameter and k a literal or a declared constant.
func (c *compiler) keyOf(p, k ast.Expr) (Discriminant, bool) {
	id, ok := p.(*ast.Ident)
	if !ok {
		return Discriminant{}, false
	}
	vs, ok := c.info.Uses[id].(*sema.VarSym)
	if !ok || vs.Kind != sema.InterParamVar || !vs.Type.IsOrdinal() {
		return Discriminant{}, false
	}
	switch k := k.(type) {
	case *ast.IntLit:
		return Discriminant{vs.Slot, k.Value}, true
	case *ast.BoolLit:
		return Discriminant{vs.Slot, b2i(k.Value)}, true
	case *ast.CharLit:
		return Discriminant{vs.Slot, int64(k.Value)}, true
	case *ast.Ident:
		if cs, ok := c.info.Uses[k].(*sema.ConstSym); ok {
			return Discriminant{vs.Slot, cs.Val}, true
		}
	}
	return Discriminant{}, false
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// scalarBuiltin compiles ord, chr, abs and odd.
func (c *compiler) scalarBuiltin(x *ast.CallExpr, b sema.Builtin) scalarFn {
	pos, arg := x.Pos(), c.scalar(x.Args[0])
	return func(e *Exec) (int64, bool, error) {
		i, undef, err := arg(e)
		if err != nil || undef {
			return 0, undef, err
		}
		switch b {
		case sema.BuiltinOrd:
			return i, false, nil
		case sema.BuiltinChr:
			if i < 0 || i > 255 {
				return 0, false, rte(pos, "chr argument %d out of range", i)
			}
			return i, false, nil
		case sema.BuiltinAbs:
			return abs64(i), false, nil
		case sema.BuiltinOdd:
			return b2i(i%2 != 0), false, nil
		}
		return 0, false, rte(pos, "unsupported builtin")
	}
}

// expr compiles x into a closure that builds its Value.
func (c *compiler) expr(x ast.Expr) exprFn {
	pos := x.Pos()
	switch x := x.(type) {
	case *ast.Ident:
		switch sym := c.info.Uses[x].(type) {
		case *sema.VarSym:
			// A read keeps the variable's run-time type, which succ/pred
			// range-check against.
			loc := c.varRef(sym, pos)
			return func(e *Exec) (Value, error) {
				lv, err := loc(e)
				if err != nil {
					return Value{}, err
				}
				return *lv, nil
			}
		case *sema.FuncSym:
			return c.call(sym, nil, pos)
		}
	case *ast.BinaryExpr:
		if c.valueOp(x) {
			return c.binary(x)
		}
	case *ast.IndexExpr:
		base, index, t := c.expr(x.X), c.index(x), c.info.Types[x]
		return func(e *Exec) (Value, error) {
			b, err := base(e)
			if err != nil {
				return Value{}, err
			}
			if b.Undef {
				return UndefValue(t), nil
			}
			off, err := index(e, b.T)
			if err != nil {
				return Value{}, err
			}
			return b.Elems[off], nil
		}
	case *ast.SelectorExpr:
		base, field := c.expr(x.X), c.field(x)
		return func(e *Exec) (Value, error) {
			b, err := base(e)
			if err != nil {
				return Value{}, err
			}
			i, err := field(b.T)
			if err != nil {
				return Value{}, err
			}
			if b.Undef {
				return UndefValue(b.T.Root().Fields[i].Type), nil
			}
			return b.Elems[i], nil
		}
	case *ast.DerefExpr:
		// Read-only dereference: Load avoids the copy-on-write unsharing
		// that the assignable path (lvalue) performs via Heap.Get, so pure
		// reads never force a cell copy after a snapshot.
		ptr := c.scalar(x.X)
		return func(e *Exec) (Value, error) {
			p, undef, err := ptr(e)
			if err != nil {
				return Value{}, err
			}
			if undef {
				return Value{}, rte(pos, "dereference of undefined pointer")
			}
			cv, err := e.state.Heap.Load(p)
			if err != nil {
				return Value{}, rte(pos, "%v", err)
			}
			return *cv, nil
		}
	case *ast.CallExpr:
		b, ok := c.info.Builtins[x]
		switch {
		case !ok && c.info.Calls[x] == nil:
			return failExpr(pos, "unresolved function %s", x.Name)
		case !ok:
			return c.call(c.info.Calls[x], x.Args, pos)
		case b == sema.BuiltinSucc || b == sema.BuiltinPred:
			return c.succPred(x, b)
		}
	case *ast.SetLit:
		return c.setLit(x)
	}
	// Everything else has only its scalar form; its Value carries the
	// expression's checked type.
	f, t := c.scalar(x), c.info.Types[x]
	return func(e *Exec) (Value, error) {
		i, undef, err := f(e)
		return Value{T: t, I: i, Undef: undef}, err
	}
}

func (c *compiler) setLit(x *ast.SetLit) exprFn {
	pos, t := x.Pos(), c.info.Types[x]
	if t == nil || t.Kind != types.Set {
		return failExpr(pos, "unresolved set literal")
	}
	// Canonical representation: elements must be non-negative ordinals below
	// the set-universe bound.
	const setLimit = 4096
	type elem struct{ lo, hi scalarFn }
	elems := make([]elem, len(x.Elems))
	for i, se := range x.Elems {
		elems[i].lo = c.scalar(se.Lo)
		if se.Hi != nil {
			elems[i].hi = c.scalar(se.Hi)
		}
	}
	return func(e *Exec) (Value, error) {
		v := Value{T: t}
		for _, se := range elems {
			lo, lu, err := se.lo(e)
			if err != nil {
				return Value{}, err
			}
			hi, hu := lo, lu
			if se.hi != nil {
				if hi, hu, err = se.hi(e); err != nil {
					return Value{}, err
				}
			}
			if lu || hu {
				return UndefValue(t), nil
			}
			if lo < 0 || hi >= setLimit {
				return Value{}, rte(pos, "set element out of range 0..%d", setLimit-1)
			}
			for i := lo; i <= hi; i++ {
				v.setAdd(i, setLimit)
			}
		}
		return v, nil
	}
}

// binary compiles the operators without a scalar form: `in`, set + - *,
// and structured = and <>.
func (c *compiler) binary(x *ast.BinaryExpr) exprFn {
	op := x.Op
	if op == token.IN {
		elem, set := c.scalar(x.X), c.expr(x.Y)
		return func(e *Exec) (Value, error) {
			i, undef, err := elem(e)
			if err != nil {
				return Value{}, err
			}
			s, err := set(e)
			if err != nil {
				return Value{}, err
			}
			if undef || s.Undef {
				return UndefValue(types.Bool), nil
			}
			return MakeBool(s.setHas(i)), nil
		}
	}
	a, b, resT := c.expr(x.X), c.expr(x.Y), c.info.Types[x]
	if resT == nil {
		resT = types.Bool
	}
	return func(e *Exec) (Value, error) {
		av, err := a(e)
		if err != nil {
			return Value{}, err
		}
		bv, err := b(e)
		if err != nil {
			return Value{}, err
		}
		switch {
		case av.Undef || bv.Undef:
			return UndefValue(resT), nil
		case op == token.EQ:
			return MakeBool(Equal(av, bv)), nil
		case op == token.NEQ:
			return MakeBool(!Equal(av, bv)), nil
		}
		return setOp(op, &av, &bv), nil
	}
}

func setOp(op token.Kind, a, b *Value) Value {
	n := max(len(a.Words), len(b.Words))
	out := Value{T: a.T, Words: make([]uint64, n)}
	word := func(v *Value, i int) uint64 {
		if i < len(v.Words) {
			return v.Words[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		switch op {
		case token.PLUS:
			out.Words[i] = word(a, i) | word(b, i)
		case token.MINUS:
			out.Words[i] = word(a, i) &^ word(b, i)
		case token.STAR:
			out.Words[i] = word(a, i) & word(b, i)
		}
	}
	return out
}

// succPred compiles succ and pred, which range-check against the run-time
// type of their operand's Value.
func (c *compiler) succPred(x *ast.CallExpr, b sema.Builtin) exprFn {
	pos, arg, t := x.Pos(), c.expr(x.Args[0]), c.info.Types[x]
	if t == nil {
		t = types.Int
	}
	return func(e *Exec) (Value, error) {
		v, err := arg(e)
		if err != nil {
			return Value{}, err
		}
		if v.Undef {
			return UndefValue(t), nil
		}
		n := v.I + 1
		if b == sema.BuiltinPred {
			n = v.I - 1
		}
		if lo, hi := v.T.OrdinalRange(); n < lo || n > hi {
			return Value{}, rte(pos, "succ/pred result %d out of range %d..%d", n, lo, hi)
		}
		return MakeOrdinal(v.T, n), nil
	}
}

// call compiles an invocation of a user function or procedure. The callee's
// frame is reserved before the arguments are evaluated in the caller's
// frame, so argument calls take frames above it and var-parameters bind to
// locations that stay put until the call returns.
func (c *compiler) call(fs *sema.FuncSym, args []ast.Expr, pos token.Pos) exprFn {
	if len(args) < len(fs.Params) {
		return failExpr(pos, "%s: missing argument %d", fs.Name, len(args)+1)
	}
	type param struct {
		slot int
		ref  lvalFn
		val  exprFn
	}
	params := make([]param, len(fs.Params))
	for i, p := range fs.Params {
		params[i].slot = p.Slot
		if p.Kind == sema.RefParam {
			params[i].ref = c.lvalue(args[i])
		} else {
			params[i].val = c.arg(p.Type, args[i])
		}
	}
	fc, name, locals, result, rslot, nslots := c.funcs[fs.Index], fs.Name, fs.Locals, fs.Result, fs.ResultSlot, fs.NumSlots
	return func(e *Exec) (Value, error) {
		if e.calls >= e.Limits.MaxCallDepth {
			return Value{}, rte(pos, "call depth limit exceeded in %s", name)
		}
		fr := e.reserve(nslots)
		for _, p := range params {
			if p.ref != nil {
				lv, err := p.ref(e)
				if err != nil {
					e.nres--
					return Value{}, err
				}
				fr.refs[p.slot] = lv
				continue
			}
			v, err := p.val(e)
			if err != nil {
				e.nres--
				return Value{}, err
			}
			fr.slots[p.slot] = v
		}
		for _, l := range locals {
			fr.slots[l.Slot] = Zero(l.Type, e.Partial)
		}
		if result != nil {
			fr.slots[rslot] = Zero(result, true)
		}
		caller := e.cur
		e.cur = fr
		e.calls++
		err := fc.body(e)
		e.cur = caller
		e.calls--
		e.nres--
		if err != nil {
			return Value{}, err
		}
		if result != nil {
			return fr.slots[rslot], nil
		}
		return Value{T: types.Int}, nil
	}
}
