package sema

import (
	"fmt"
	"strings"

	"repro/internal/estelle/ast"
	"repro/internal/estelle/token"
	"repro/internal/estelle/types"
)

// ---------------------------------------------------------------------------
// Statements

func (c *checker) checkBlock(b *ast.Block, sc *scope, inFunc bool) {
	for _, s := range b.Stmts {
		c.checkStmt(s, sc, inFunc)
	}
}

func (c *checker) checkStmt(s ast.Stmt, sc *scope, inFunc bool) {
	switch s := s.(type) {
	case *ast.Block:
		c.checkBlock(s, sc, inFunc)
	case *ast.EmptyStmt:
	case *ast.AssignStmt:
		lt := c.checkLValue(s.LHS, sc)
		root, _ := designatorRoot(s.LHS).(*ast.Ident)
		vs, _ := c.prog.Info.Uses[root].(*VarSym)
		c.noteWrite(vs)
		rt := c.checkExpr(s.RHS, sc)
		if lt != nil && rt != nil && !types.AssignableFrom(lt, rt) {
			c.errorf(s.Pos(), "cannot assign %s to %s", rt, lt)
		}
	case *ast.IfStmt:
		c.requireBool(s.Cond, sc, "if condition")
		c.checkStmt(s.Then, sc, inFunc)
		if s.Else != nil {
			c.checkStmt(s.Else, sc, inFunc)
		}
	case *ast.WhileStmt:
		c.requireBool(s.Cond, sc, "while condition")
		c.checkStmt(s.Body, sc, inFunc)
	case *ast.RepeatStmt:
		for _, st := range s.Body {
			c.checkStmt(st, sc, inFunc)
		}
		c.requireBool(s.Cond, sc, "repeat condition")
	case *ast.ForStmt:
		sym := sc.lookup(s.Var)
		vs, ok := sym.(*VarSym)
		if !ok {
			c.errorf(s.Pos(), "for loop variable %s is not a variable", s.Var)
		} else {
			c.prog.Info.ForVars[s] = vs
			c.noteWrite(vs)
			if !vs.Type.IsOrdinal() {
				c.errorf(s.Pos(), "for loop variable %s must be ordinal, got %s", s.Var, vs.Type)
			}
			if vs.Kind == InterParamVar {
				c.errorf(s.Pos(), "cannot use interaction parameter %s as a loop variable", s.Var)
			}
		}
		ft := c.checkExpr(s.From, sc)
		tt := c.checkExpr(s.To, sc)
		if vs != nil && ft != nil && !types.AssignableFrom(vs.Type, ft) {
			c.errorf(s.From.Pos(), "for loop start: cannot assign %s to %s", ft, vs.Type)
		}
		if vs != nil && tt != nil && !types.AssignableFrom(vs.Type, tt) {
			c.errorf(s.To.Pos(), "for loop bound: cannot assign %s to %s", tt, vs.Type)
		}
		c.checkStmt(s.Body, sc, inFunc)
	case *ast.CaseStmt:
		et := c.checkExpr(s.Expr, sc)
		if et != nil && !et.IsOrdinal() {
			c.errorf(s.Expr.Pos(), "case expression must be ordinal, got %s", et)
		}
		for _, arm := range s.Arms {
			for _, lab := range arm.Labels {
				_, lt, err := c.constEval(lab, sc)
				if err != nil {
					c.errorf(lab.Pos(), "case label must be constant: %v", err)
					continue
				}
				c.checkExpr(lab, sc)
				if et != nil && lt != nil && !types.SameOrdinalFamily(et, lt) {
					c.errorf(lab.Pos(), "case label type %s does not match case expression type %s", lt, et)
				}
			}
			c.checkStmt(arm.Body, sc, inFunc)
		}
		for _, st := range s.Else {
			c.checkStmt(st, sc, inFunc)
		}
	case *ast.OutputStmt:
		c.checkOutput(s, sc, inFunc)
	case *ast.CallStmt:
		c.checkCallStmt(s, sc)
	default:
		c.errorf(s.Pos(), "unsupported statement")
	}
}

func (c *checker) requireBool(e ast.Expr, sc *scope, what string) {
	t := c.checkExpr(e, sc)
	if t != nil && t.Root().Kind != types.Boolean {
		c.errorf(e.Pos(), "%s must be boolean, got %s", what, t)
	}
}

func (c *checker) checkOutput(s *ast.OutputStmt, sc *scope, inFunc bool) {
	if inFunc {
		// Estelle forbids output from inside functions; Tango relies on
		// transitions being the only source of observable interactions.
		c.errorf(s.Pos(), "output statements are not allowed inside functions or procedures")
	}
	group, _ := c.resolveIPRef(s.IP, false, sc)
	if group == nil {
		return
	}
	c.prog.Info.OutputGroup[s] = group
	inter, ok := group.Channel.Interactions[strings.ToLower(s.Interaction)]
	if !ok {
		c.errorf(s.Pos(), "channel %s has no interaction %s", group.Channel.Name, s.Interaction)
		return
	}
	if !inter.ByRole[group.Role] {
		c.errorf(s.Pos(), "interaction %s is not sendable by role %s at ip %s",
			inter.Name, group.Role, group.Name)
		return
	}
	c.prog.Info.OutputInter[s] = inter
	if len(s.Args) != len(inter.Params) {
		c.errorf(s.Pos(), "output %s.%s expects %d arguments, got %d",
			group.Name, inter.Name, len(inter.Params), len(s.Args))
		return
	}
	for i, a := range s.Args {
		at := c.checkExpr(a, sc)
		if at != nil && !types.AssignableFrom(inter.Params[i].Type, at) {
			c.errorf(a.Pos(), "output %s.%s parameter %s: cannot assign %s to %s",
				group.Name, inter.Name, inter.Params[i].Name, at, inter.Params[i].Type)
		}
	}
}

func (c *checker) checkCallStmt(s *ast.CallStmt, sc *scope) {
	if b := builtinByName(s.Name); b != BuiltinNone {
		c.checkBuiltin(s, b, s.Args, sc, false)
		return
	}
	sym := sc.lookup(s.Name)
	switch sym := sym.(type) {
	case *FuncSym:
		if sym.Result != nil {
			c.errorf(s.Pos(), "function %s called as a procedure", sym.Name)
		}
		c.checkArgs(s, sym, s.Args, sc)
	case nil:
		c.errorf(s.Pos(), "unknown procedure %s", s.Name)
	default:
		c.errorf(s.Pos(), "%s is not a procedure", s.Name)
	}
}

func (c *checker) checkArgs(site ast.Node, fs *FuncSym, args []ast.Expr, sc *scope) {
	c.prog.Info.Calls[site] = fs
	c.noteCall(fs, site.Pos())
	if len(args) != len(fs.Params) {
		c.errorf(site.Pos(), "%s expects %d arguments, got %d", fs.Name, len(fs.Params), len(args))
		return
	}
	for i, a := range args {
		p := fs.Params[i]
		if p.Kind == RefParam {
			at := c.checkLValue(a, sc)
			if at != nil && p.Type != nil && !types.AssignableFrom(p.Type, at) {
				c.errorf(a.Pos(), "%s var-parameter %s: expected %s, got %s", fs.Name, p.Name, p.Type, at)
			}
			continue
		}
		at := c.checkExpr(a, sc)
		if at != nil && p.Type != nil && !types.AssignableFrom(p.Type, at) {
			c.errorf(a.Pos(), "%s parameter %s: cannot assign %s to %s", fs.Name, p.Name, at, p.Type)
		}
	}
}

func builtinByName(name string) Builtin {
	switch strings.ToLower(name) {
	case "new":
		return BuiltinNew
	case "dispose":
		return BuiltinDispose
	case "ord":
		return BuiltinOrd
	case "chr":
		return BuiltinChr
	case "succ":
		return BuiltinSucc
	case "pred":
		return BuiltinPred
	case "abs":
		return BuiltinAbs
	case "odd":
		return BuiltinOdd
	}
	return BuiltinNone
}

// checkBuiltin validates a builtin call; asExpr reports whether the call is
// used as an expression (must produce a value).
func (c *checker) checkBuiltin(site ast.Node, b Builtin, args []ast.Expr, sc *scope, asExpr bool) *types.Type {
	c.prog.Info.Builtins[site] = b
	one := func() *types.Type {
		if len(args) != 1 {
			c.errorf(site.Pos(), "builtin expects exactly one argument")
			return nil
		}
		return c.checkExpr(args[0], sc)
	}
	switch b {
	case BuiltinNew, BuiltinDispose:
		if asExpr {
			c.errorf(site.Pos(), "new/dispose cannot be used in an expression")
			return nil
		}
		if len(args) != 1 {
			c.errorf(site.Pos(), "new/dispose expects exactly one argument")
			return nil
		}
		t := c.checkLValue(args[0], sc)
		c.noteWrite(nil)
		if t != nil && t.Kind != types.Pointer {
			c.errorf(args[0].Pos(), "new/dispose argument must be a pointer variable, got %s", t)
		}
		return nil
	case BuiltinOrd:
		t := one()
		if t != nil && !t.IsOrdinal() {
			c.errorf(site.Pos(), "ord expects an ordinal value, got %s", t)
		}
		return types.Int
	case BuiltinChr:
		t := one()
		if t != nil && t.Root().Kind != types.Integer {
			c.errorf(site.Pos(), "chr expects an integer, got %s", t)
		}
		return types.Chr
	case BuiltinSucc, BuiltinPred:
		t := one()
		if t != nil && !t.IsOrdinal() {
			c.errorf(site.Pos(), "succ/pred expects an ordinal value, got %s", t)
			return nil
		}
		return t
	case BuiltinAbs:
		t := one()
		if t != nil && t.Root().Kind != types.Integer {
			c.errorf(site.Pos(), "abs expects an integer, got %s", t)
		}
		return types.Int
	case BuiltinOdd:
		t := one()
		if t != nil && t.Root().Kind != types.Integer {
			c.errorf(site.Pos(), "odd expects an integer, got %s", t)
		}
		return types.Bool
	}
	return nil
}

// ---------------------------------------------------------------------------
// Expressions

// checkLValue checks a designator usable on the left of := (or as a var
// argument) and returns its type.
func (c *checker) checkLValue(e ast.Expr, sc *scope) *types.Type {
	switch e := e.(type) {
	case *ast.Ident:
		sym := sc.lookup(e.Name)
		vs, ok := sym.(*VarSym)
		if !ok {
			c.errorf(e.Pos(), "%s is not a variable", e.Name)
			return nil
		}
		if vs.Kind == InterParamVar {
			c.errorf(e.Pos(), "interaction parameter %s is read-only", e.Name)
		}
		c.prog.Info.Uses[e] = vs
		c.prog.Info.Types[e] = vs.Type
		return vs.Type
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.DerefExpr:
		// Structured designators: the base must itself be an lvalue; its
		// type determines the result. Reuse checkExpr, which handles the
		// structure, then verify the root is a variable.
		t := c.checkExpr(e, sc)
		root := designatorRoot(e)
		if root == nil {
			c.errorf(e.Pos(), "expression is not assignable")
			return t
		}
		if id, ok := root.(*ast.Ident); ok {
			if vs, ok := c.prog.Info.Uses[id].(*VarSym); ok && vs.Kind == InterParamVar {
				// Fields of interaction parameters are read-only too.
				c.errorf(e.Pos(), "interaction parameter %s is read-only", vs.Name)
			}
		}
		return t
	default:
		c.errorf(e.Pos(), "expression is not assignable")
		return nil
	}
}

// designatorRoot walks to the base identifier of a designator chain, or nil.
// A dereference makes anything below it assignable (the heap cell is the
// target), so the walk stops successfully at a DerefExpr.
func designatorRoot(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.DerefExpr:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (c *checker) checkExpr(e ast.Expr, sc *scope) *types.Type {
	t := c.checkExprInner(e, sc)
	if t != nil {
		c.prog.Info.Types[e] = t
	}
	return t
}

func (c *checker) checkExprInner(e ast.Expr, sc *scope) *types.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return types.Int
	case *ast.BoolLit:
		return types.Bool
	case *ast.CharLit:
		return types.Chr
	case *ast.StringLit:
		c.errorf(e.Pos(), "string literals longer than one character are not supported in expressions")
		return nil
	case *ast.Ident:
		sym := sc.lookup(e.Name)
		switch sym := sym.(type) {
		case *VarSym:
			c.prog.Info.Uses[e] = sym
			return sym.Type
		case *ConstSym:
			c.prog.Info.Uses[e] = sym
			return sym.Type
		case *FuncSym:
			// Parameterless function call.
			if sym.Result == nil {
				c.errorf(e.Pos(), "procedure %s used as a value", e.Name)
				return nil
			}
			c.prog.Info.Uses[e] = sym
			c.prog.Info.Calls[e] = sym
			c.noteCall(sym, e.Pos())
			return sym.Result
		case nil:
			if strings.EqualFold(e.Name, "nil") {
				c.prog.Info.Uses[e] = nilConst
				return nilPointerType
			}
			c.errorf(e.Pos(), "undeclared identifier %s", e.Name)
			return nil
		default:
			c.errorf(e.Pos(), "%s cannot be used in an expression", e.Name)
			return nil
		}
	case *ast.UnaryExpr:
		xt := c.checkExpr(e.X, sc)
		if xt == nil {
			return nil
		}
		switch e.Op {
		case token.NOT:
			if xt.Root().Kind != types.Boolean {
				c.errorf(e.Pos(), "not expects a boolean, got %s", xt)
				return nil
			}
			return types.Bool
		case token.MINUS, token.PLUS:
			if xt.Root().Kind != types.Integer {
				c.errorf(e.Pos(), "unary %s expects an integer, got %s", e.Op, xt)
				return nil
			}
			return types.Int
		}
		return nil
	case *ast.BinaryExpr:
		return c.checkBinary(e, sc)
	case *ast.IndexExpr:
		xt := c.checkExpr(e.X, sc)
		if xt == nil {
			return nil
		}
		if xt.Kind != types.Array {
			c.errorf(e.Pos(), "indexing a non-array value of type %s", xt)
			return nil
		}
		if len(e.Indexes) != len(xt.Indexes) {
			c.errorf(e.Pos(), "array has %d dimensions, %d indexes given", len(xt.Indexes), len(e.Indexes))
			return nil
		}
		for i, ix := range e.Indexes {
			it := c.checkExpr(ix, sc)
			if it != nil && !types.SameOrdinalFamily(it, xt.Indexes[i]) {
				c.errorf(ix.Pos(), "array dimension %d expects %s, got %s", i+1, xt.Indexes[i], it)
			}
		}
		return xt.Elem
	case *ast.SelectorExpr:
		xt := c.checkExpr(e.X, sc)
		if xt == nil {
			return nil
		}
		if xt.Kind != types.Record {
			c.errorf(e.Pos(), "selecting field %s of non-record type %s", e.Field, xt)
			return nil
		}
		i := xt.FieldIndex(e.Field)
		if i < 0 {
			c.errorf(e.Pos(), "type %s has no field %s", xt, e.Field)
			return nil
		}
		return xt.Fields[i].Type
	case *ast.DerefExpr:
		xt := c.checkExpr(e.X, sc)
		if xt == nil {
			return nil
		}
		if xt.Kind != types.Pointer {
			c.errorf(e.Pos(), "dereferencing non-pointer type %s", xt)
			return nil
		}
		if xt.Elem == nil {
			c.errorf(e.Pos(), "dereferencing pointer with unresolved target type")
			return nil
		}
		return xt.Elem
	case *ast.CallExpr:
		if b := builtinByName(e.Name); b != BuiltinNone {
			return c.checkBuiltin(e, b, e.Args, sc, true)
		}
		fs := sc.lookupFunc(e.Name)
		if fs == nil {
			c.errorf(e.Pos(), "unknown function %s", e.Name)
			return nil
		}
		if fs.Result == nil {
			c.errorf(e.Pos(), "procedure %s used as a value", e.Name)
			return nil
		}
		c.checkArgs(e, fs, e.Args, sc)
		return fs.Result
	case *ast.SetLit:
		var elem *types.Type
		for _, se := range e.Elems {
			lt := c.checkExpr(se.Lo, sc)
			if se.Hi != nil {
				ht := c.checkExpr(se.Hi, sc)
				if lt != nil && ht != nil && !types.SameOrdinalFamily(lt, ht) {
					c.errorf(se.Hi.Pos(), "set range bounds of different types: %s and %s", lt, ht)
				}
			}
			if lt == nil {
				continue
			}
			if !lt.IsOrdinal() {
				c.errorf(se.Lo.Pos(), "set elements must be ordinal, got %s", lt)
				continue
			}
			if elem == nil {
				elem = lt.Root()
			} else if !types.SameOrdinalFamily(elem, lt) {
				c.errorf(se.Lo.Pos(), "mixed element types in set literal")
			}
		}
		st := &types.Type{Kind: types.Set, Elem: elem}
		if elem == nil {
			st.Elem = types.Int // empty set: element type inferred at use
		}
		return st
	default:
		c.errorf(e.Pos(), "unsupported expression")
		return nil
	}
}

// nilConst and nilPointerType represent the predeclared nil pointer.
var (
	nilPointerType = &types.Type{Kind: types.Pointer, Name: "nil"}
	nilConst       = &ConstSym{Name: "nil", Type: nilPointerType, Val: 0}
)

// NilConst reports whether sym is the predeclared nil constant.
func NilConst(sym Symbol) bool { return sym == nilConst }

func (c *checker) checkBinary(e *ast.BinaryExpr, sc *scope) *types.Type {
	xt := c.checkExpr(e.X, sc)
	yt := c.checkExpr(e.Y, sc)
	if xt == nil || yt == nil {
		return nil
	}
	switch e.Op {
	case token.PLUS, token.MINUS, token.STAR, token.DIV, token.MOD:
		if xt.Root().Kind == types.Set && yt.Root().Kind == types.Set {
			// Set union/difference/intersection.
			if e.Op == token.DIV || e.Op == token.MOD {
				c.errorf(e.Pos(), "div/mod not defined on sets")
				return nil
			}
			return xt
		}
		if xt.Root().Kind != types.Integer || yt.Root().Kind != types.Integer {
			c.errorf(e.Pos(), "operator %s expects integers, got %s and %s", e.Op, xt, yt)
			return nil
		}
		return types.Int
	case token.SLASH:
		c.errorf(e.Pos(), "real division '/' is not supported; use div")
		return nil
	case token.AND, token.OR:
		if xt.Root().Kind != types.Boolean || yt.Root().Kind != types.Boolean {
			c.errorf(e.Pos(), "operator %s expects booleans, got %s and %s", e.Op, xt, yt)
			return nil
		}
		return types.Bool
	case token.EQ, token.NEQ:
		if !types.Comparable(xt, yt) {
			c.errorf(e.Pos(), "cannot compare %s and %s", xt, yt)
			return nil
		}
		return types.Bool
	case token.LT, token.LEQ, token.GT, token.GEQ:
		if !types.Ordered(xt, yt) {
			c.errorf(e.Pos(), "cannot order %s and %s", xt, yt)
			return nil
		}
		return types.Bool
	case token.IN:
		if yt.Kind != types.Set {
			c.errorf(e.Pos(), "right operand of in must be a set, got %s", yt)
			return nil
		}
		if !xt.IsOrdinal() {
			c.errorf(e.Pos(), "left operand of in must be ordinal, got %s", xt)
			return nil
		}
		if yt.Elem != nil && !types.SameOrdinalFamily(xt, yt.Elem) {
			c.errorf(e.Pos(), "in: element type %s does not match set of %s", xt, yt.Elem)
		}
		return types.Bool
	default:
		c.errorf(e.Pos(), "unsupported operator %s", e.Op)
		return nil
	}
}

// ---------------------------------------------------------------------------
// Constant expressions

// constEval evaluates a constant expression at check time. The returned type
// is the expression's type; the value is its ordinal.
func (c *checker) constEval(e ast.Expr, sc *scope) (int64, *types.Type, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, types.Int, nil
	case *ast.BoolLit:
		v := int64(0)
		if e.Value {
			v = 1
		}
		return v, types.Bool, nil
	case *ast.CharLit:
		return int64(e.Value), types.Chr, nil
	case *ast.Ident:
		sym := sc.lookup(e.Name)
		cs, ok := sym.(*ConstSym)
		if !ok {
			return 0, nil, fmt.Errorf("%s is not a constant", e.Name)
		}
		c.prog.Info.Uses[e] = cs
		c.prog.Info.Types[e] = cs.Type
		return cs.Val, cs.Type, nil
	case *ast.UnaryExpr:
		v, t, err := c.constEval(e.X, sc)
		if err != nil {
			return 0, nil, err
		}
		switch e.Op {
		case token.MINUS:
			return -v, t, nil
		case token.PLUS:
			return v, t, nil
		case token.NOT:
			if t.Root().Kind != types.Boolean {
				return 0, nil, fmt.Errorf("not on non-boolean constant")
			}
			return 1 - v, t, nil
		}
		return 0, nil, fmt.Errorf("unsupported constant operator")
	case *ast.BinaryExpr:
		x, xt, err := c.constEval(e.X, sc)
		if err != nil {
			return 0, nil, err
		}
		y, yt, err := c.constEval(e.Y, sc)
		if err != nil {
			return 0, nil, err
		}
		_ = yt
		switch e.Op {
		case token.PLUS:
			return x + y, xt, nil
		case token.MINUS:
			return x - y, xt, nil
		case token.STAR:
			return x * y, xt, nil
		case token.DIV:
			if y == 0 {
				return 0, nil, fmt.Errorf("constant division by zero")
			}
			return x / y, xt, nil
		case token.MOD:
			if y == 0 {
				return 0, nil, fmt.Errorf("constant division by zero")
			}
			return x % y, xt, nil
		}
		return 0, nil, fmt.Errorf("unsupported constant operator %s", e.Op)
	case *ast.CallExpr:
		if builtinByName(e.Name) == BuiltinOrd && len(e.Args) == 1 {
			v, _, err := c.constEval(e.Args[0], sc)
			if err != nil {
				return 0, nil, err
			}
			c.prog.Info.Builtins[e] = BuiltinOrd
			c.prog.Info.Types[e] = types.Int
			return v, types.Int, nil
		}
		return 0, nil, fmt.Errorf("call is not constant")
	default:
		return 0, nil, fmt.Errorf("expression is not constant")
	}
}
