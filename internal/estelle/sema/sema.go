// Package sema implements semantic analysis for the Estelle subset: name
// resolution, type checking, channel/role checking for interaction points,
// and transition legality. Its output, Program, is the "static model" that
// Pet produced in the original tool chain; internal/efsm compiles it into an
// executable model.
//
// All identifier lookup is case-insensitive (Estelle inherits this from
// Pascal); symbol tables are keyed by lower-cased names but symbols retain
// their declared spelling for diagnostics.
package sema

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/estelle/ast"
	"repro/internal/estelle/token"
	"repro/internal/estelle/types"
)

// ---------------------------------------------------------------------------
// Program: the checked static model

// Program is the result of checking one specification.
type Program struct {
	Spec *ast.Spec
	Name string

	Channels map[string]*Channel // lower name -> channel

	// IPGroups are the declared interaction-point groups in order; IPs is the
	// flattened list of interaction-point instances (an IP array contributes
	// one instance per element).
	IPGroups []*IPGroup
	IPs      []*IPInfo

	GlobalVars []*VarSym // slot-indexed
	Funcs      []*FuncSym

	States     []string       // ordinal-indexed FSM state names
	StateIndex map[string]int // lower name -> ordinal
	StateSets  map[string][]int

	Init   *ast.Initialize
	InitTo int
	Trans  []*TransInfo

	Info *Info
}

// Channel is a checked channel definition.
type Channel struct {
	Name         string
	Roles        [2]string
	Interactions map[string]*Interaction // lower name -> interaction
}

// Interaction is one message type on a channel.
type Interaction struct {
	Name    string
	Channel *Channel
	// ByRole records which roles (lower-cased) may send this interaction.
	ByRole map[string]bool
	Params []InterParam
}

// InterParam is one declared interaction parameter.
type InterParam struct {
	Name string
	Type *types.Type
}

// IPGroup is one declared interaction-point group (scalar or array).
type IPGroup struct {
	Name     string
	Channel  *Channel
	Role     string // role played by the module (lower)
	PeerRole string // role played by the environment (lower)
	Dims     []*types.Type
	Base     int // index of the first instance in Program.IPs
	Count    int
}

// IPInfo is one flattened interaction-point instance.
type IPInfo struct {
	ID    int
	Name  string // e.g. "U" or "N[2]"
	Group *IPGroup
}

// TransInfo is a checked transition declaration.
type TransInfo struct {
	Decl  *ast.Transition
	Index int
	Name  string

	// FromStates is nil for "any state" transitions.
	FromStates []int
	// To is the target state ordinal, or -1 to remain in the current state.
	To int

	// When clause, if present.
	WhenGroup   *IPGroup
	WhenIPIndex int // flattened instance id; -1 when no when clause
	WhenInter   *Interaction
	// ParamSyms bind the received interaction's parameters inside the body.
	ParamSyms []*VarSym

	Provided ast.Expr
	Priority int64
}

// Spontaneous reports whether the transition has no when clause.
func (t *TransInfo) Spontaneous() bool { return t.WhenInter == nil }

// ---------------------------------------------------------------------------
// Symbols

// Symbol is any named entity.
type Symbol interface {
	SymName() string
}

// ConstSym is a declared constant (including enum members).
type ConstSym struct {
	Name string
	Type *types.Type
	Val  int64
}

func (s *ConstSym) SymName() string { return s.Name }

// TypeSym names a type.
type TypeSym struct {
	Name string
	Type *types.Type
}

func (s *TypeSym) SymName() string { return s.Name }

// VarKind classifies variable symbols.
type VarKind int

// The kinds of variables.
const (
	GlobalVar     VarKind = iota
	LocalVar              // function local or value parameter
	RefParam              // var parameter
	InterParamVar         // interaction parameter bound in a transition body
	ResultVar             // function result pseudo-variable
	LoopVar               // synthesized (none currently)
)

// VarSym is a variable, parameter or function-result symbol.
type VarSym struct {
	Name string
	Type *types.Type
	Kind VarKind
	Slot int // index in the global frame or function frame
}

func (s *VarSym) SymName() string { return s.Name }

// FuncSym is a function or procedure.
type FuncSym struct {
	Name       string
	Decl       *ast.FuncDecl
	Params     []*VarSym
	Locals     []*VarSym   // declared locals, slot-ordered after params
	Result     *types.Type // nil for procedures
	NumSlots   int         // frame size: params + locals (+ result)
	ResultSlot int         // valid when Result != nil
	Index      int
}

func (s *FuncSym) SymName() string { return s.Name }

// IPSym names an interaction-point group in expressions (when/output).
type IPSym struct {
	Group *IPGroup
}

func (s *IPSym) SymName() string { return s.Group.Name }

// StateSym names an FSM state; usable only in from/to clauses.
type StateSym struct {
	Name    string
	Ordinal int
}

func (s *StateSym) SymName() string { return s.Name }

// Builtin identifies a predeclared function or procedure.
type Builtin int

// The supported builtins.
const (
	BuiltinNone Builtin = iota
	BuiltinNew
	BuiltinDispose
	BuiltinOrd
	BuiltinChr
	BuiltinSucc
	BuiltinPred
	BuiltinAbs
	BuiltinOdd
)

// Info carries the side tables the VM needs to execute the AST.
type Info struct {
	// Uses resolves identifier occurrences in executable positions.
	Uses map[*ast.Ident]Symbol
	// Types records the checked type of every expression.
	Types map[ast.Expr]*types.Type
	// Calls resolves user function/procedure calls (CallExpr, CallStmt keys).
	Calls map[ast.Node]*FuncSym
	// Builtins resolves builtin calls (CallExpr, CallStmt keys).
	Builtins map[ast.Node]Builtin
	// OutputGroup / OutputInter resolve output statements.
	OutputGroup map[*ast.OutputStmt]*IPGroup
	OutputInter map[*ast.OutputStmt]*Interaction
	// ForVars resolves for-loop control variables.
	ForVars map[*ast.ForStmt]*VarSym
}

// ---------------------------------------------------------------------------
// Scope

type scope struct {
	parent *scope
	syms   map[string]Symbol
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, syms: make(map[string]Symbol)}
}

func (sc *scope) lookup(name string) Symbol {
	lower := strings.ToLower(name)
	for s := sc; s != nil; s = s.parent {
		if sym, ok := s.syms[lower]; ok {
			return sym
		}
	}
	return nil
}

// lookupFunc resolves name to a function symbol, skipping the result
// pseudo-variable that shadows a function's own name inside its body (so
// recursive calls work as in Pascal: `f := f(n-1)` assigns the result on the
// left and recurses on the right).
func (sc *scope) lookupFunc(name string) *FuncSym {
	lower := strings.ToLower(name)
	for s := sc; s != nil; s = s.parent {
		switch sym := s.syms[lower].(type) {
		case *FuncSym:
			return sym
		case *VarSym:
			if sym.Kind == ResultVar {
				continue // keep walking outward for the function itself
			}
			return nil
		case nil:
			continue
		default:
			return nil
		}
	}
	return nil
}

func (sc *scope) declare(name string, sym Symbol) error {
	lower := strings.ToLower(name)
	if _, ok := sc.syms[lower]; ok {
		return fmt.Errorf("%s redeclared", name)
	}
	sc.syms[lower] = sym
	return nil
}

// ---------------------------------------------------------------------------
// Checker

type checker struct {
	prog *Program
	errs []error

	universe *scope // builtin type names
	global   *scope // spec + body level declarations

	// current function being checked, nil at transition/initialize level
	curFunc *FuncSym

	// deferred holds pointer types whose target names were forward
	// references, resolved once the surrounding declaration list is complete.
	deferred []deferredPtr

	// impure first marks the routines whose own bodies change module state;
	// callees records each routine's calls, and checkPureGuards closes
	// impure over them once every body is checked. guard is the transition
	// whose provided clause is being checked, and guardCalls the routines
	// such clauses call.
	impure     map[*FuncSym]bool
	callees    map[*FuncSym][]*FuncSym
	guard      *TransInfo
	guardCalls []guardCall
}

type guardCall struct {
	ti  *TransInfo
	fs  *FuncSym
	pos token.Pos
}

type deferredPtr struct {
	pt   *types.Type
	name string
	pos  token.Pos
	sc   *scope
}

// resolveDeferred fixes up forward-referenced pointer targets that have
// become resolvable. With final set, unresolvable targets are errors.
func (c *checker) resolveDeferred(final bool) {
	var remaining []deferredPtr
	for _, d := range c.deferred {
		sym := d.sc.lookup(d.name)
		if ts, ok := sym.(*TypeSym); ok {
			d.pt.Elem = ts.Type
			continue
		}
		if final {
			c.errorf(d.pos, "unknown type %s in pointer declaration", d.name)
			continue
		}
		remaining = append(remaining, d)
	}
	c.deferred = remaining
}

// Check performs full semantic analysis of a parsed specification.
func Check(spec *ast.Spec) (*Program, error) {
	c := &checker{
		prog: &Program{
			Spec:       spec,
			Name:       spec.Name,
			Channels:   make(map[string]*Channel),
			StateIndex: make(map[string]int),
			StateSets:  make(map[string][]int),
			Info: &Info{
				Uses:        make(map[*ast.Ident]Symbol),
				Types:       make(map[ast.Expr]*types.Type),
				Calls:       make(map[ast.Node]*FuncSym),
				Builtins:    make(map[ast.Node]Builtin),
				OutputGroup: make(map[*ast.OutputStmt]*IPGroup),
				OutputInter: make(map[*ast.OutputStmt]*Interaction),
				ForVars:     make(map[*ast.ForStmt]*VarSym),
			},
		},
		impure:  make(map[*FuncSym]bool),
		callees: make(map[*FuncSym][]*FuncSym),
	}
	c.universe = newScope(nil)
	for _, t := range []*types.Type{types.Int, types.Bool, types.Chr} {
		_ = c.universe.declare(t.Name, &TypeSym{Name: t.Name, Type: t})
	}
	// Estelle predefines maxint.
	_ = c.universe.declare("maxint", &ConstSym{Name: "maxint", Type: types.Int, Val: types.IntegerHi})
	c.global = newScope(c.universe)

	c.checkSpec(spec)
	if len(c.errs) > 0 {
		return nil, errors.Join(c.errs...)
	}
	return c.prog, nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) checkSpec(spec *ast.Spec) {
	for _, ch := range spec.Channels {
		c.checkChannel(ch)
	}
	for _, d := range spec.Decls {
		c.checkDecl(d, true)
	}
	c.resolveDeferred(true)
	if spec.Module == nil || spec.Body == nil {
		c.errorf(spec.Pos(), "specification must contain one module header and one body")
		return
	}
	if !strings.EqualFold(spec.Body.For, spec.Module.Name) {
		c.errorf(spec.Body.Pos(), "body %s is for %s, but the module is named %s",
			spec.Body.Name, spec.Body.For, spec.Module.Name)
	}
	c.checkModuleHeader(spec.Module)
	c.checkModuleBody(spec.Body)
}

func (c *checker) checkChannel(chd *ast.Channel) {
	if len(chd.Roles) != 2 {
		c.errorf(chd.Pos(), "channel %s must declare exactly two roles", chd.Name)
		return
	}
	ch := &Channel{
		Name:         chd.Name,
		Roles:        [2]string{chd.Roles[0], chd.Roles[1]},
		Interactions: make(map[string]*Interaction),
	}
	if strings.EqualFold(chd.Roles[0], chd.Roles[1]) {
		c.errorf(chd.Pos(), "channel %s declares duplicate role %s", chd.Name, chd.Roles[0])
	}
	key := strings.ToLower(chd.Name)
	if _, dup := c.prog.Channels[key]; dup {
		c.errorf(chd.Pos(), "channel %s redeclared", chd.Name)
		return
	}
	c.prog.Channels[key] = ch
	roleOK := func(r string) bool {
		return strings.EqualFold(r, ch.Roles[0]) || strings.EqualFold(r, ch.Roles[1])
	}
	for _, by := range chd.By {
		for _, r := range by.Roles {
			if !roleOK(r) {
				c.errorf(by.Pos(), "role %s not declared by channel %s", r, chd.Name)
			}
		}
		for _, id := range by.Interactions {
			ikey := strings.ToLower(id.Name)
			inter, ok := ch.Interactions[ikey]
			if !ok {
				inter = &Interaction{Name: id.Name, Channel: ch, ByRole: make(map[string]bool)}
				for _, g := range id.Params {
					t := c.resolveType(g.Type, c.global)
					for _, n := range g.Names {
						inter.Params = append(inter.Params, InterParam{Name: n, Type: t})
					}
				}
				ch.Interactions[ikey] = inter
			} else if len(id.Params) > 0 {
				c.errorf(id.Pos(), "interaction %s redeclared with parameters on channel %s",
					id.Name, chd.Name)
			}
			for _, r := range by.Roles {
				inter.ByRole[strings.ToLower(r)] = true
			}
		}
	}
}

func (c *checker) checkModuleHeader(m *ast.ModuleHeader) {
	for _, d := range m.IPs {
		ch, ok := c.prog.Channels[strings.ToLower(d.Channel)]
		if !ok {
			c.errorf(d.Pos(), "ip %s: unknown channel %s", d.Names[0], d.Channel)
			continue
		}
		var role, peer string
		switch {
		case strings.EqualFold(d.Role, ch.Roles[0]):
			role, peer = strings.ToLower(ch.Roles[0]), strings.ToLower(ch.Roles[1])
		case strings.EqualFold(d.Role, ch.Roles[1]):
			role, peer = strings.ToLower(ch.Roles[1]), strings.ToLower(ch.Roles[0])
		default:
			c.errorf(d.Pos(), "ip %s: channel %s has no role %s", d.Names[0], d.Channel, d.Role)
			continue
		}
		var dims []*types.Type
		for _, dt := range d.Dims {
			t := c.resolveType(dt, c.global)
			if t != nil && !t.IsOrdinal() {
				c.errorf(dt.Pos(), "ip array index type must be ordinal, got %s", t)
				t = nil
			}
			if t != nil {
				lo, hi := t.OrdinalRange()
				if hi-lo+1 > 1024 {
					c.errorf(dt.Pos(), "ip array dimension too large (%d elements)", hi-lo+1)
					t = nil
				}
			}
			if t == nil {
				t = &types.Type{Kind: types.Subrange, Base: types.Int, Lo: 0, Hi: 0}
			}
			dims = append(dims, t)
		}
		for _, name := range d.Names {
			g := &IPGroup{
				Name:     name,
				Channel:  ch,
				Role:     role,
				PeerRole: peer,
				Dims:     dims,
				Base:     len(c.prog.IPs),
			}
			if len(dims) == 0 {
				g.Count = 1
				c.prog.IPs = append(c.prog.IPs, &IPInfo{ID: len(c.prog.IPs), Name: name, Group: g})
			} else {
				n := 1
				for _, dt := range dims {
					lo, hi := dt.OrdinalRange()
					n *= int(hi - lo + 1)
				}
				g.Count = n
				for i := 0; i < n; i++ {
					c.prog.IPs = append(c.prog.IPs, &IPInfo{
						ID:    len(c.prog.IPs),
						Name:  fmt.Sprintf("%s[%s]", name, g.indexSuffix(i)),
						Group: g,
					})
				}
			}
			c.prog.IPGroups = append(c.prog.IPGroups, g)
			if err := c.global.declare(name, &IPSym{Group: g}); err != nil {
				c.errorf(d.Pos(), "ip %s: %v", name, err)
			}
		}
	}
	if len(c.prog.IPs) == 0 {
		c.errorf(m.Pos(), "module %s declares no interaction points", m.Name)
	}
}

// indexSuffix renders the multi-dimensional index of the i-th instance.
func (g *IPGroup) indexSuffix(i int) string {
	idx := make([]int64, len(g.Dims))
	rem := i
	for d := len(g.Dims) - 1; d >= 0; d-- {
		lo, hi := g.Dims[d].OrdinalRange()
		n := int(hi - lo + 1)
		idx[d] = lo + int64(rem%n)
		rem /= n
	}
	parts := make([]string, len(idx))
	for d, v := range idx {
		if g.Dims[d].Root().Kind == types.Enum {
			parts[d] = g.Dims[d].Root().EnumNames[v]
		} else {
			parts[d] = fmt.Sprint(v)
		}
	}
	return strings.Join(parts, ",")
}

// FlatIndex converts per-dimension ordinal values to a flattened offset
// within the group, or -1 if any index is out of range.
func (g *IPGroup) FlatIndex(vals []int64) int {
	if len(vals) != len(g.Dims) {
		return -1
	}
	off := 0
	for d, v := range vals {
		lo, hi := g.Dims[d].OrdinalRange()
		if v < lo || v > hi {
			return -1
		}
		off = off*int(hi-lo+1) + int(v-lo)
	}
	return off
}

func (c *checker) checkModuleBody(b *ast.ModuleBody) {
	for _, d := range b.Decls {
		// Function bodies are checked as part of their declaration, so any
		// pending forward pointer targets must resolve before one is reached.
		if _, isFunc := d.(*ast.FuncDecl); isFunc {
			c.resolveDeferred(true)
		} else {
			c.resolveDeferred(false)
		}
		c.checkDecl(d, false)
	}
	c.resolveDeferred(true)
	// States.
	for _, sd := range b.States {
		ord := len(c.prog.States)
		key := strings.ToLower(sd.Name)
		if _, dup := c.prog.StateIndex[key]; dup {
			c.errorf(sd.Pos(), "state %s redeclared", sd.Name)
			continue
		}
		c.prog.States = append(c.prog.States, sd.Name)
		c.prog.StateIndex[key] = ord
		if err := c.global.declare(sd.Name, &StateSym{Name: sd.Name, Ordinal: ord}); err != nil {
			c.errorf(sd.Pos(), "state %s conflicts with another declaration", sd.Name)
		}
	}
	if len(c.prog.States) == 0 {
		c.errorf(b.Pos(), "body %s declares no states", b.Name)
	}
	for _, ss := range b.StateSets {
		var ords []int
		for _, n := range ss.States {
			ord, ok := c.prog.StateIndex[strings.ToLower(n)]
			if !ok {
				c.errorf(ss.Pos(), "stateset %s: unknown state %s", ss.Name, n)
				continue
			}
			ords = append(ords, ord)
		}
		key := strings.ToLower(ss.Name)
		if _, dup := c.prog.StateSets[key]; dup {
			c.errorf(ss.Pos(), "stateset %s redeclared", ss.Name)
			continue
		}
		c.prog.StateSets[key] = ords
	}
	// Initialize.
	if b.Init == nil {
		c.errorf(b.Pos(), "body %s has no initialize transition", b.Name)
	} else {
		c.prog.Init = b.Init
		ord, ok := c.prog.StateIndex[strings.ToLower(b.Init.To)]
		if !ok {
			c.errorf(b.Init.Pos(), "initialize to unknown state %s", b.Init.To)
		}
		c.prog.InitTo = ord
		c.checkBlock(b.Init.Body, c.global, false)
	}
	// Transitions.
	for _, td := range b.Trans {
		c.checkTransition(td)
	}
	if len(c.prog.Trans) == 0 {
		c.errorf(b.Pos(), "body %s declares no transitions", b.Name)
	}
	c.checkPureGuards()
}

// checkPureGuards rejects a provided clause that calls an impure routine:
// one that assigns a module variable, a var parameter or anything through
// ^, calls new or dispose, or calls an impure routine. The analyzer
// evaluates every guard on a node's saved state, so a write there would
// leak into every later sibling.
func (c *checker) checkPureGuards() {
	impure := c.impure
	for changed := true; changed; {
		changed = false
		for _, fs := range c.prog.Funcs {
			for _, callee := range c.callees[fs] {
				if !impure[fs] && impure[callee] {
					impure[fs], changed = true, true
				}
			}
		}
	}
	for _, gc := range c.guardCalls {
		if impure[gc.fs] {
			c.errorf(gc.pos, "transition %s: provided clause calls %s, which changes module state",
				gc.ti.Name, gc.fs.Name)
		}
	}
}

// noteCall records a call of fs for checkPureGuards.
func (c *checker) noteCall(fs *FuncSym, pos token.Pos) {
	switch {
	case c.curFunc != nil:
		c.callees[c.curFunc] = append(c.callees[c.curFunc], fs)
	case c.guard != nil:
		c.guardCalls = append(c.guardCalls, guardCall{ti: c.guard, fs: fs, pos: pos})
	}
}

// noteWrite marks the routine being checked impure unless the variable it
// writes is one of its own locals. vs is nil for a write through ^ and for
// new and dispose, which change the heap.
func (c *checker) noteWrite(vs *VarSym) {
	if c.curFunc != nil && (vs == nil || vs.Kind != LocalVar && vs.Kind != ResultVar) {
		c.impure[c.curFunc] = true
	}
}

func (c *checker) checkTransition(td *ast.Transition) {
	ti := &TransInfo{Decl: td, Index: len(c.prog.Trans), WhenIPIndex: -1, To: -1}
	if td.Name != "" {
		ti.Name = td.Name
	} else {
		ti.Name = fmt.Sprintf("t%d", ti.Index+1)
	}
	// From clause: states or statesets.
	seen := make(map[int]bool)
	for _, n := range td.From {
		key := strings.ToLower(n)
		if ord, ok := c.prog.StateIndex[key]; ok {
			if !seen[ord] {
				seen[ord] = true
				ti.FromStates = append(ti.FromStates, ord)
			}
			continue
		}
		if ords, ok := c.prog.StateSets[key]; ok {
			for _, ord := range ords {
				if !seen[ord] {
					seen[ord] = true
					ti.FromStates = append(ti.FromStates, ord)
				}
			}
			continue
		}
		c.errorf(td.Pos(), "transition %s: unknown state or stateset %s", ti.Name, n)
	}
	// To clause.
	switch {
	case td.ToSame || td.To == "":
		ti.To = -1
	default:
		ord, ok := c.prog.StateIndex[strings.ToLower(td.To)]
		if !ok {
			c.errorf(td.Pos(), "transition %s: unknown target state %s", ti.Name, td.To)
		} else {
			ti.To = ord
		}
	}
	// When clause.
	scopeForBody := c.global
	if td.When != nil {
		group, flat := c.resolveIPRef(td.When.IP, true, c.global)
		if group != nil {
			ti.WhenGroup = group
			ti.WhenIPIndex = flat
			inter, ok := group.Channel.Interactions[strings.ToLower(td.When.Interaction)]
			if !ok {
				c.errorf(td.When.Pos(), "transition %s: channel %s has no interaction %s",
					ti.Name, group.Channel.Name, td.When.Interaction)
			} else if !inter.ByRole[group.PeerRole] {
				c.errorf(td.When.Pos(),
					"transition %s: interaction %s is not sendable by role %s (cannot be received at ip %s)",
					ti.Name, inter.Name, group.PeerRole, group.Name)
			} else {
				ti.WhenInter = inter
				// Bind interaction parameters as read-only locals.
				scopeForBody = newScope(c.global)
				for i, p := range inter.Params {
					vs := &VarSym{Name: p.Name, Type: p.Type, Kind: InterParamVar, Slot: i}
					if err := scopeForBody.declare(p.Name, vs); err != nil {
						c.errorf(td.When.Pos(), "transition %s: %v", ti.Name, err)
					}
					ti.ParamSyms = append(ti.ParamSyms, vs)
				}
			}
		}
	}
	// Provided clause.
	if td.Provided != nil {
		c.guard = ti
		t := c.checkExpr(td.Provided, scopeForBody)
		c.guard = nil
		if t != nil && t.Root().Kind != types.Boolean {
			c.errorf(td.Provided.Pos(), "transition %s: provided clause must be boolean, got %s", ti.Name, t)
		}
		ti.Provided = td.Provided
	}
	// Priority clause.
	if td.Priority != nil {
		v, t, err := c.constEval(td.Priority, c.global)
		if err != nil || t == nil || t.Root().Kind != types.Integer {
			c.errorf(td.Priority.Pos(), "transition %s: priority must be a constant integer", ti.Name)
		} else {
			ti.Priority = v
		}
	}
	if td.Body == nil {
		c.errorf(td.Pos(), "transition %s has no block", ti.Name)
	} else {
		c.checkBlock(td.Body, scopeForBody, false)
	}
	c.prog.Trans = append(c.prog.Trans, ti)
}

// resolveIPRef resolves an ip designator in a when clause (constIndex=true,
// indexes must be constants) returning the group and flattened instance id.
func (c *checker) resolveIPRef(e ast.Expr, constIndex bool, sc *scope) (*IPGroup, int) {
	switch x := e.(type) {
	case *ast.Ident:
		sym := c.global.lookup(x.Name)
		ips, ok := sym.(*IPSym)
		if !ok {
			c.errorf(x.Pos(), "%s is not an interaction point", x.Name)
			return nil, -1
		}
		c.prog.Info.Uses[x] = ips
		if len(ips.Group.Dims) != 0 {
			c.errorf(x.Pos(), "ip %s is an array and must be indexed", x.Name)
			return nil, -1
		}
		return ips.Group, ips.Group.Base
	case *ast.IndexExpr:
		id, ok := x.X.(*ast.Ident)
		if !ok {
			c.errorf(e.Pos(), "invalid interaction point designator")
			return nil, -1
		}
		sym := c.global.lookup(id.Name)
		ips, ok := sym.(*IPSym)
		if !ok {
			c.errorf(id.Pos(), "%s is not an interaction point", id.Name)
			return nil, -1
		}
		c.prog.Info.Uses[id] = ips
		g := ips.Group
		if len(g.Dims) != len(x.Indexes) {
			c.errorf(e.Pos(), "ip %s has %d dimensions, %d indexes given",
				g.Name, len(g.Dims), len(x.Indexes))
			return nil, -1
		}
		if !constIndex {
			// Runtime-indexed output: check index expression types only.
			for i, ix := range x.Indexes {
				t := c.checkExpr(ix, sc)
				if t != nil && !types.SameOrdinalFamily(t, g.Dims[i]) {
					c.errorf(ix.Pos(), "ip %s dimension %d expects %s, got %s",
						g.Name, i+1, g.Dims[i], t)
				}
			}
			return g, -1
		}
		vals := make([]int64, len(x.Indexes))
		for i, ix := range x.Indexes {
			v, t, err := c.constEval(ix, c.global)
			if err != nil {
				c.errorf(ix.Pos(), "when-clause ip index must be constant: %v", err)
				return g, -1
			}
			if t != nil && !types.SameOrdinalFamily(t, g.Dims[i]) {
				c.errorf(ix.Pos(), "ip %s dimension %d expects %s, got %s", g.Name, i+1, g.Dims[i], t)
			}
			vals[i] = v
		}
		off := g.FlatIndex(vals)
		if off < 0 {
			c.errorf(e.Pos(), "ip %s index out of range", g.Name)
			return g, -1
		}
		return g, g.Base + off
	default:
		c.errorf(e.Pos(), "invalid interaction point designator")
		return nil, -1
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (c *checker) checkDecl(d ast.Decl, specLevel bool) {
	switch d := d.(type) {
	case *ast.ConstDecl:
		v, t, err := c.constEval(d.Value, c.global)
		if err != nil {
			c.errorf(d.Pos(), "const %s: %v", d.Name, err)
			return
		}
		if err := c.global.declare(d.Name, &ConstSym{Name: d.Name, Type: t, Val: v}); err != nil {
			c.errorf(d.Pos(), "%v", err)
		}
	case *ast.TypeDecl:
		t := c.resolveType(d.Type, c.global)
		if t == nil {
			return
		}
		if t.Name == "" {
			t.Name = d.Name
		}
		if err := c.global.declare(d.Name, &TypeSym{Name: d.Name, Type: t}); err != nil {
			c.errorf(d.Pos(), "%v", err)
		}
	case *ast.VarDecl:
		if specLevel {
			c.errorf(d.Pos(), "variables may only be declared inside the module body")
			return
		}
		t := c.resolveType(d.Type, c.global)
		if t == nil {
			return
		}
		for _, n := range d.Names {
			vs := &VarSym{Name: n, Type: t, Kind: GlobalVar, Slot: len(c.prog.GlobalVars)}
			if err := c.global.declare(n, vs); err != nil {
				c.errorf(d.Pos(), "%v", err)
				continue
			}
			c.prog.GlobalVars = append(c.prog.GlobalVars, vs)
		}
	case *ast.FuncDecl:
		c.checkFuncDecl(d, specLevel)
	}
}

func (c *checker) checkFuncDecl(d *ast.FuncDecl, specLevel bool) {
	if specLevel {
		c.errorf(d.Pos(), "functions may only be declared inside the module body")
		return
	}
	if d.IsPrim {
		c.errorf(d.Pos(), "primitive/forward functions are not supported by Tango")
		return
	}
	fs := &FuncSym{Name: d.Name, Decl: d, Index: len(c.prog.Funcs)}
	if err := c.global.declare(d.Name, fs); err != nil {
		c.errorf(d.Pos(), "%v", err)
		return
	}
	c.prog.Funcs = append(c.prog.Funcs, fs)

	local := newScope(c.global)
	slot := 0
	for _, pg := range d.Params {
		t := c.resolveType(pg.Type, c.global)
		for _, n := range pg.Names {
			kind := LocalVar
			if pg.ByRef {
				kind = RefParam
			}
			vs := &VarSym{Name: n, Type: t, Kind: kind, Slot: slot}
			slot++
			if err := local.declare(n, vs); err != nil {
				c.errorf(pg.Pos(), "%v", err)
				continue
			}
			fs.Params = append(fs.Params, vs)
		}
	}
	if d.Function {
		fs.Result = c.resolveType(d.Result, c.global)
	}
	for _, nd := range d.Decls {
		switch nd := nd.(type) {
		case *ast.VarDecl:
			t := c.resolveType(nd.Type, c.global)
			if t == nil {
				continue
			}
			for _, n := range nd.Names {
				vs := &VarSym{Name: n, Type: t, Kind: LocalVar, Slot: slot}
				slot++
				if err := local.declare(n, vs); err != nil {
					c.errorf(nd.Pos(), "%v", err)
					continue
				}
				fs.Locals = append(fs.Locals, vs)
			}
		case *ast.ConstDecl:
			v, t, err := c.constEval(nd.Value, local)
			if err != nil {
				c.errorf(nd.Pos(), "const %s: %v", nd.Name, err)
				continue
			}
			if err := local.declare(nd.Name, &ConstSym{Name: nd.Name, Type: t, Val: v}); err != nil {
				c.errorf(nd.Pos(), "%v", err)
			}
		case *ast.FuncDecl:
			c.errorf(nd.Pos(), "nested function declarations are not supported")
		default:
			c.errorf(nd.Pos(), "unsupported declaration inside %s", d.Name)
		}
	}
	if fs.Result != nil {
		fs.ResultSlot = slot
		rv := &VarSym{Name: d.Name, Type: fs.Result, Kind: ResultVar, Slot: slot}
		slot++
		// The function name inside its own body denotes the result variable.
		local.syms[strings.ToLower(d.Name)] = rv
	}
	fs.NumSlots = slot
	prev := c.curFunc
	c.curFunc = fs
	if d.Body != nil {
		c.checkBlock(d.Body, local, true)
	} else {
		c.errorf(d.Pos(), "%s has no body", d.Name)
	}
	c.curFunc = prev
}

// ---------------------------------------------------------------------------
// Types

func (c *checker) resolveType(te ast.TypeExpr, sc *scope) *types.Type {
	switch te := te.(type) {
	case *ast.NamedType:
		sym := sc.lookup(te.Name)
		if sym == nil {
			c.errorf(te.Pos(), "unknown type %s", te.Name)
			return nil
		}
		ts, ok := sym.(*TypeSym)
		if !ok {
			c.errorf(te.Pos(), "%s is not a type", te.Name)
			return nil
		}
		return ts.Type
	case *ast.EnumType:
		t := &types.Type{Kind: types.Enum, EnumNames: te.Names}
		for i, n := range te.Names {
			cs := &ConstSym{Name: n, Type: t, Val: int64(i)}
			if err := c.global.declare(n, cs); err != nil {
				c.errorf(te.Pos(), "enum member %v", err)
			}
		}
		return t
	case *ast.SubrangeType:
		lo, lot, err := c.constEval(te.Lo, sc)
		if err != nil {
			c.errorf(te.Pos(), "subrange low bound: %v", err)
			return nil
		}
		hi, hit, err := c.constEval(te.Hi, sc)
		if err != nil {
			c.errorf(te.Pos(), "subrange high bound: %v", err)
			return nil
		}
		if lot == nil || hit == nil || !types.SameOrdinalFamily(lot, hit) {
			c.errorf(te.Pos(), "subrange bounds must be of the same ordinal type")
			return nil
		}
		if lo > hi {
			c.errorf(te.Pos(), "empty subrange %d..%d", lo, hi)
			return nil
		}
		return &types.Type{Kind: types.Subrange, Base: lot.Root(), Lo: lo, Hi: hi}
	case *ast.ArrayType:
		at := &types.Type{Kind: types.Array}
		for _, ix := range te.Indexes {
			t := c.resolveType(ix, sc)
			if t == nil {
				return nil
			}
			if !t.IsOrdinal() {
				c.errorf(ix.Pos(), "array index type must be ordinal, got %s", t)
				return nil
			}
			lo, hi := t.OrdinalRange()
			if hi-lo+1 > 1<<20 {
				c.errorf(ix.Pos(), "array dimension too large (%d elements)", hi-lo+1)
				return nil
			}
			at.Indexes = append(at.Indexes, t)
		}
		at.Elem = c.resolveType(te.Elem, sc)
		if at.Elem == nil {
			return nil
		}
		return at
	case *ast.RecordType:
		rt := &types.Type{Kind: types.Record}
		for _, fg := range te.Fields {
			t := c.resolveType(fg.Type, sc)
			if t == nil {
				return nil
			}
			for _, n := range fg.Names {
				if rt.FieldIndex(n) >= 0 {
					c.errorf(fg.Pos(), "duplicate record field %s", n)
					continue
				}
				rt.Fields = append(rt.Fields, types.Field{Name: n, Type: t})
			}
		}
		return rt
	case *ast.PointerType:
		pt := &types.Type{Kind: types.Pointer}
		// Pascal allows pointers to types declared later; support one level
		// of forward reference by deferring resolution of named targets.
		if nt, ok := te.Elem.(*ast.NamedType); ok {
			if sym := sc.lookup(nt.Name); sym == nil {
				c.deferred = append(c.deferred, deferredPtr{pt: pt, name: nt.Name, pos: nt.Pos(), sc: sc})
				return pt
			}
		}
		pt.Elem = c.resolveType(te.Elem, sc)
		if pt.Elem == nil {
			return nil
		}
		return pt
	case *ast.SetType:
		et := c.resolveType(te.Elem, sc)
		if et == nil {
			return nil
		}
		if !et.IsOrdinal() {
			c.errorf(te.Pos(), "set element type must be ordinal, got %s", et)
			return nil
		}
		st := &types.Type{Kind: types.Set, Elem: et}
		if st.SetSize() < 0 {
			c.errorf(te.Pos(), "set element range too large")
			return nil
		}
		return st
	default:
		c.errorf(te.Pos(), "unsupported type expression")
		return nil
	}
}
