package vm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/types"
)

// This file states the semantics of ordinal expressions a second time,
// independently of the compiler: a tiny evaluator over the test's own
// expression trees. The analyzer, sim.CheckTrace, gen and the fuzz oracle all
// run the same compiled vm.Code, so a wrong guard would agree with itself
// everywhere else; here it has to agree with this reference.
//
// The reference rules (paper §5.1 plus Pascal):
//   - operands run left to right, and both run before the undefined test;
//   - any undefined operand makes not, unary minus, + - * div mod and the six
//     comparisons undefined;
//   - and/or are Kleene: a defined deciding operand decides, whichever side
//     it is on, but the right operand is skipped only when the left decides;
//   - div truncates towards zero, mod is non-negative, a zero divisor is the
//     run-time error "division by zero" at the position of the left operand;
//   - an undefined provided clause is true in partial mode and false
//     otherwise; an undefined if condition forks in partial mode (else branch
//     first) and is the error "condition is undefined" otherwise;
//   - assigning an undefined value leaves the target undefined; a defined
//     value outside the target's subrange is "value %d out of range %d..%d"
//     at the target's position.

type refKind int

const (
	refInt refKind = iota
	refBool
	refChar
	refEnum
	refPtr
)

// refExpr is one node of a generated expression. op is the Estelle operator
// ("" for a leaf); leaf is the identifier or literal text.
type refExpr struct {
	op   string
	leaf string
	x, y *refExpr
	off  int // offset of the node's first token in the rendered text
}

// refScalar is a value under evaluation: the ordinal and the undefined
// attribute.
type refScalar struct {
	v     int64
	undef bool
}

// refErr is a run-time error the reference predicts, at offset off of the
// rendered expression.
type refErr struct {
	off int
	msg string
}

// refVar describes one variable the trees may read.
type refVar struct {
	name   string
	kind   refKind
	lo, hi int64
	param  int // index of the interaction parameter, -1 for a global
}

var refVars = []refVar{
	{"i1", refInt, -6, 6, -1},
	{"i2", refInt, -6, 6, -1},
	{"r1", refInt, -3, 5, -1}, // subrange -3..5
	{"v", refInt, -6, 6, 0},
	{"q", refInt, -3, 5, 2}, // subrange -3..5
	{"b1", refBool, 0, 1, -1},
	{"b2", refBool, 0, 1, -1},
	{"w", refBool, 0, 1, 1},
	{"c1", refChar, 'a', 'c', -1},
	{"h", refChar, 'a', 'c', 3},
	{"e1", refEnum, 0, 2, -1},
	{"p1", refPtr, 0, 1, -1}, // 0 is nil
}

var refConsts = map[string]int64{"true": 1, "false": 0, "red": 0, "green": 1, "blue": 2,
	"'a'": 'a', "'b'": 'b', "'c'": 'c', "nil": 0}

type refGen struct{ r *rand.Rand }

func (g refGen) leaf(k refKind) *refExpr {
	if g.r.Intn(3) == 0 {
		switch k {
		case refInt:
			return &refExpr{leaf: fmt.Sprint(g.r.Intn(6))}
		case refBool:
			return &refExpr{leaf: []string{"true", "false"}[g.r.Intn(2)]}
		case refChar:
			return &refExpr{leaf: []string{"'a'", "'b'", "'c'"}[g.r.Intn(3)]}
		default:
			return &refExpr{leaf: []string{"red", "green", "blue"}[g.r.Intn(3)]}
		}
	}
	var names []string
	for _, rv := range refVars {
		if rv.kind == k {
			names = append(names, rv.name)
		}
	}
	return &refExpr{leaf: names[g.r.Intn(len(names))]}
}

func (g refGen) expr(k refKind, depth int) *refExpr {
	if depth == 0 || g.r.Intn(4) == 0 {
		return g.leaf(k)
	}
	switch k {
	case refInt:
		if g.r.Intn(6) == 0 {
			return &refExpr{op: "-", x: g.expr(refInt, depth-1)}
		}
		op := []string{"+", "-", "*", "div", "mod"}[g.r.Intn(5)]
		return &refExpr{op: op, x: g.expr(refInt, depth-1), y: g.expr(refInt, depth-1)}
	case refBool:
		switch g.r.Intn(7) {
		case 0:
			return &refExpr{op: "not", x: g.expr(refBool, depth-1)}
		case 1, 2:
			op := []string{"and", "or"}[g.r.Intn(2)]
			return &refExpr{op: op, x: g.expr(refBool, depth-1), y: g.expr(refBool, depth-1)}
		case 3:
			ptr := &refExpr{leaf: "p1"}
			nilLit := &refExpr{leaf: "nil"}
			op := []string{"=", "<>"}[g.r.Intn(2)]
			if g.r.Intn(2) == 0 {
				return &refExpr{op: op, x: ptr, y: nilLit}
			}
			return &refExpr{op: op, x: nilLit, y: ptr}
		default:
			op := []string{"=", "<>", "<", "<=", ">", ">="}[g.r.Intn(6)]
			ok := []refKind{refInt, refInt, refBool, refChar, refEnum}[g.r.Intn(5)]
			return &refExpr{op: op, x: g.expr(ok, depth-1), y: g.expr(ok, depth-1)}
		}
	}
	return g.leaf(k) // chars and enums only occur as comparison operands
}

// render writes x fully parenthesized into sb, recording the offset of each
// node's first token.
func (x *refExpr) render(sb *strings.Builder) {
	switch {
	case x.op == "":
		x.off = sb.Len()
		sb.WriteString(x.leaf)
	case x.y == nil:
		sb.WriteByte('(')
		x.off = sb.Len()
		sb.WriteString(x.op)
		sb.WriteByte(' ')
		x.x.render(sb)
		sb.WriteByte(')')
	default:
		sb.WriteByte('(')
		x.x.render(sb)
		x.off = x.x.off // a binary expression sits at its left operand
		fmt.Fprintf(sb, " %s ", x.op)
		x.y.render(sb)
		sb.WriteByte(')')
	}
}

func (x *refExpr) text() string {
	var sb strings.Builder
	x.render(&sb)
	return sb.String()
}

func refBoolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// eval is the reference evaluator.
func (x *refExpr) eval(env map[string]refScalar) (refScalar, *refErr) {
	if x.op == "" {
		if c, ok := refConsts[x.leaf]; ok {
			return refScalar{v: c}, nil
		}
		if s, ok := env[x.leaf]; ok {
			return s, nil
		}
		var n int64
		fmt.Sscan(x.leaf, &n)
		return refScalar{v: n}, nil
	}
	if x.y == nil {
		a, err := x.x.eval(env)
		if err != nil || a.undef {
			return a, err
		}
		if x.op == "not" {
			return refScalar{v: 1 - a.v}, nil
		}
		return refScalar{v: -a.v}, nil
	}
	a, err := x.x.eval(env)
	if err != nil {
		return refScalar{}, err
	}
	if x.op == "and" || x.op == "or" {
		decider := refBoolVal(x.op == "or") // the operand value that decides
		if !a.undef && a.v == decider {
			return refScalar{v: decider}, nil
		}
		b, err := x.y.eval(env)
		if err != nil {
			return refScalar{}, err
		}
		if !b.undef && b.v == decider {
			return refScalar{v: decider}, nil
		}
		if a.undef || b.undef {
			return refScalar{undef: true}, nil
		}
		return refScalar{v: 1 - decider}, nil
	}
	b, err := x.y.eval(env)
	if err != nil {
		return refScalar{}, err
	}
	if a.undef || b.undef {
		return refScalar{undef: true}, nil
	}
	switch x.op {
	case "+":
		return refScalar{v: a.v + b.v}, nil
	case "-":
		return refScalar{v: a.v - b.v}, nil
	case "*":
		return refScalar{v: a.v * b.v}, nil
	case "div", "mod":
		if b.v == 0 {
			return refScalar{}, &refErr{x.off, "division by zero"}
		}
		if x.op == "div" {
			return refScalar{v: a.v / b.v}, nil
		}
		m := a.v % b.v
		if m < 0 {
			if b.v < 0 {
				m -= b.v
			} else {
				m += b.v
			}
		}
		return refScalar{v: m}, nil
	case "=":
		return refScalar{v: refBoolVal(a.v == b.v)}, nil
	case "<>":
		return refScalar{v: refBoolVal(a.v != b.v)}, nil
	case "<":
		return refScalar{v: refBoolVal(a.v < b.v)}, nil
	case "<=":
		return refScalar{v: refBoolVal(a.v <= b.v)}, nil
	case ">":
		return refScalar{v: refBoolVal(a.v > b.v)}, nil
	default: // ">="
		return refScalar{v: refBoolVal(a.v >= b.v)}, nil
	}
}

// The program around one boolean tree B and one integer tree I: T1 has B as
// its provided clause, T2 branches on B and T4 assigns B to the boolean
// subrange bs, so B is compiled in each of the three positions; T3 assigns I
// to the subrange s, where integer results can fall out of range.
const (
	refFile   = "ref.estelle"
	refHeader = `specification s;
channel CH(a, b);
  by a: m(v : integer; w : boolean; q : -3..5; h : char);
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
type color = (red, green, blue);
var i1, i2 : integer; r1 : -3..5; b1, b2 : boolean; c1 : char; e1 : color;
  p1 : ^integer; r : integer; s : -9..9; bs : false..true;
state S0;
initialize to S0 begin end;
trans
`
	refT1    = "from S0 to S0 when P.m provided "
	refT2    = "from S0 to S0 when P.m name T2: begin if "
	refT3    = "from S0 to S0 when P.m name T3: begin s := "
	refT4    = "from S0 to S0 when P.m name T4: begin bs := "
	refSLo   = -9
	refSHi   = 9
	refSCol  = len("from S0 to S0 when P.m name T3: begin ") + 1
	refBSCol = len("from S0 to S0 when P.m name T4: begin ") + 1
)

func refSource(b, i *refExpr) string {
	var sb strings.Builder
	sb.WriteString(refHeader)
	sb.WriteString(refT1 + b.text() + " name T1: begin end;\n")
	sb.WriteString(refT2 + b.text() + " then r := 1 else r := 2 end;\n")
	sb.WriteString(refT3 + i.text() + " end;\n")
	sb.WriteString(refT4 + b.text() + " end;\n")
	sb.WriteString("end;\nend.")
	return sb.String()
}

// refLine1 is the line of T1; T2..T4 follow one per line.
var refLine1 = strings.Count(refHeader, "\n") + 1

// refErrText renders an error at column col of line.
func refErrText(line, col int, msg string) string {
	return fmt.Sprintf("%s:%d:%d: runtime error: %s", refFile, line, col, msg)
}

// refStore predicts the outcome of assigning x, which follows prefix on
// line, to the variable of range lo..hi at column scol.
func refStore(x *refExpr, env map[string]refScalar, line int, prefix string, scol int, lo, hi int64) string {
	s, err := x.eval(env)
	switch {
	case err != nil:
		return refErrText(line, len(prefix)+err.off+1, err.msg)
	case s.undef:
		return "?"
	case s.v < lo || s.v > hi:
		return refErrText(line, scol, fmt.Sprintf("value %d out of range %d..%d", s.v, lo, hi))
	}
	return fmt.Sprint(s.v)
}

// refOutcomes predicts the four observations for trees b and i under env.
func refOutcomes(b, i *refExpr, env map[string]refScalar, partial bool) [4]string {
	var out [4]string
	bs, err := b.eval(env)
	switch {
	case err != nil:
		out[0] = refErrText(refLine1, len(refT1)+err.off+1, err.msg)
		out[1] = refErrText(refLine1+1, len(refT2)+err.off+1, err.msg)
	case bs.undef && partial:
		out[0], out[1] = "true", "r=2 r=1"
	case bs.undef:
		out[0] = "false"
		out[1] = refErrText(refLine1+1, len(refT2)+b.off+1, "condition is undefined")
	case bs.v != 0:
		out[0], out[1] = "true", "r=1"
	default:
		out[0], out[1] = "false", "r=2"
	}
	out[2] = refStore(i, env, refLine1+2, refT3, refSCol, refSLo, refSHi)
	out[3] = refStore(b, env, refLine1+3, refT4, refBSCol, 0, 1)
	return out
}

// vmOutcomes runs the four transitions on the compiled program.
func vmOutcomes(t *testing.T, prog *sema.Program, code *Code, env map[string]refScalar, partial bool) [4]string {
	t.Helper()
	e := New(code)
	e.Partial = partial
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	slots := map[string]int{}
	for _, g := range prog.GlobalVars {
		slots[g.Name] = g.Slot
	}
	params := make([]Value, len(prog.Trans[0].WhenInter.Params))
	for _, rv := range refVars {
		s := env[rv.name]
		var ty *types.Type
		if rv.param >= 0 {
			ty = prog.Trans[0].WhenInter.Params[rv.param].Type
		} else {
			ty = prog.GlobalVars[slots[rv.name]].Type
		}
		val := MakeOrdinal(ty, s.v)
		if s.undef {
			val = UndefValue(ty)
		}
		if rv.param >= 0 {
			params[rv.param] = val
		} else {
			st.Globals[slots[rv.name]] = val
		}
	}
	show := func(v Value) string {
		if v.Undef {
			return "?"
		}
		return fmt.Sprint(v.I)
	}
	var out [4]string
	ok, err := e.EvalProvided(st, prog.Trans[0], params)
	if err != nil {
		out[0] = err.Error()
	} else {
		out[0] = fmt.Sprint(ok)
	}
	for k := 1; k < 4; k++ {
		slot := slots[[]string{"", "r", "s", "bs"}[k]]
		var res []string
		if partial {
			rs, err := e.ExecuteForked(st, prog.Trans[k], params)
			if err != nil {
				out[k] = err.Error()
				continue
			}
			for _, r := range rs {
				res = append(res, show(r.State.Globals[slot]))
			}
		} else {
			snap := st.Snapshot()
			if _, err := e.Execute(snap, prog.Trans[k], params); err != nil {
				out[k] = err.Error()
				continue
			}
			res = append(res, show(snap.Globals[slot]))
		}
		if k == 1 {
			for j := range res {
				res[j] = "r=" + res[j]
			}
		}
		out[k] = strings.Join(res, " ")
	}
	return out
}

// TestOrdinalExprReference compares the compiled code with the reference
// evaluator on seeded random trees over integer, subrange, boolean, char,
// enum and pointer globals and interaction parameters, each defined or
// undefined, in normal and partial mode.
func TestOrdinalExprReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	g := refGen{r}
	const trees, envs = 600, 6
	// Every outcome the rules distinguish must occur, or the seed tests less
	// than it claims.
	seen := map[string]int{}
	outcomes := []string{"division by zero", "out of range", "condition is undefined", "?", "r=2 r=1", "true", "false"}
	for n := 0; n < trees; n++ {
		b, i := g.expr(refBool, 4), g.expr(refInt, 4)
		src := refSource(b, i)
		spec, err := parser.Parse(refFile, src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		prog, err := sema.Check(spec)
		if err != nil {
			t.Fatalf("check: %v\n%s", err, src)
		}
		code := Compile(prog)
		for k := 0; k < envs; k++ {
			env := map[string]refScalar{}
			for _, rv := range refVars {
				s := refScalar{v: rv.lo + r.Int63n(rv.hi-rv.lo+1)}
				s.undef = r.Intn(4) == 0
				env[rv.name] = s
			}
			for _, partial := range []bool{false, true} {
				want := refOutcomes(b, i, env, partial)
				got := vmOutcomes(t, prog, code, env, partial)
				if got != want {
					t.Fatalf("tree %d env %v partial=%v:\n%s\ngot  %q\nwant %q", n, env, partial, src, got, want)
				}
				for _, w := range want {
					for _, o := range outcomes {
						if strings.Contains(w, o) {
							seen[o]++
						}
					}
				}
			}
		}
	}
	for _, o := range outcomes {
		if seen[o] == 0 {
			t.Errorf("no case produced %q", o)
		}
	}
	t.Logf("outcomes: %v", seen)
}
