// Package efsm turns a checked Estelle program (sema.Program) into the
// executable static model the analyzer searches over: FSM states, interaction
// points, and transition declarations listed by (state, interaction point).
// For an observed input, the Generate operation of the search (§2.2 of the
// paper) looks its transitions up by (state, interaction point, interaction)
// and by each guard's discriminant (vm.Discriminant), so it evaluates only
// the guards that the input's parameters do not already refute.
//
// It also provides the codec between trace-file parameter text and run-time
// values, shared by the analyzer and the implementation-generation mode.
package efsm

import (
	"cmp"
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/estelle/ast"
	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/types"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Timing records how long each tool-generation phase took when the Spec was
// built through Compile: Parse is the scanner+parser (Pet's front half),
// Check covers semantic analysis, compilation into closures and search-table
// indexing (Pet's back half plus Dingo). Specs built directly with New report
// zero timing.
type Timing struct {
	Parse time.Duration
	Check time.Duration
}

// Spec is the compiled executable model of one specification.
//
// Concurrency contract (compile once, analyze many): a Spec and everything
// reachable from it — the checked sema.Program, its transition and type
// tables, the compiled vm.Code and the indexes built by New — is immutable
// once New (or Compile) returns. No method on Spec, sema.Program or vm.Code
// mutates shared state, and no lazy caches are populated at analysis time.
// Any number of goroutines may therefore share one compiled Spec, each
// driving its own analyzer/VM; the batch engine (package batch) is built on
// this guarantee, and a -race test in this package's test suite enforces it.
type Spec struct {
	// Prog is the checked program without the per-node tables of
	// sema.Info, which Code has resolved: only Info.OutputGroup is kept.
	Prog *sema.Program
	// Code is Prog compiled for execution by vm.New.
	Code *vm.Code

	// Timing is the tool-generation cost breakdown (set by Compile).
	Timing Timing

	// when[state][ip] lists the transitions with a when clause on that IP
	// instance enabled in that FSM state, in declaration order, and
	// byInter[state][ip] splits that list by interaction.
	when    [][][]*sema.TransInfo
	byInter [][][]interGroup
	// spontaneous[state] lists the transitions without a when clause enabled
	// in that FSM state.
	spontaneous [][]*sema.TransInfo

	// ipByName and interByName[ip] (the interactions of ip's channel) are
	// keyed by each name's declared spelling and by its lower-case one, so
	// a trace name spelled as declared resolves without case folding.
	ipByName    map[string]int
	interByName []map[string]*sema.Interaction
}

// New compiles a checked program and indexes it for the search. The Spec
// keeps a shallow copy of prog whose Info holds only OutputGroup, so the
// other per-node tables become garbage once the caller drops prog.
func New(prog *sema.Program) *Spec {
	code := vm.Compile(prog)
	slim := *prog
	slim.Info = &sema.Info{OutputGroup: prog.Info.OutputGroup}
	prog = &slim
	s := &Spec{Prog: prog, Code: code}
	nStates := len(prog.States)
	nIPs := len(prog.IPs)
	s.when = make([][][]*sema.TransInfo, nStates)
	s.spontaneous = make([][]*sema.TransInfo, nStates)
	for st := 0; st < nStates; st++ {
		s.when[st] = make([][]*sema.TransInfo, nIPs)
	}
	for _, ti := range prog.Trans {
		states := ti.FromStates
		if states == nil {
			states = allStates(nStates)
		}
		for _, st := range states {
			if ti.Spontaneous() {
				s.spontaneous[st] = append(s.spontaneous[st], ti)
			} else if ti.WhenIPIndex >= 0 {
				s.when[st][ti.WhenIPIndex] = append(s.when[st][ti.WhenIPIndex], ti)
			}
		}
	}
	s.byInter = make([][][]interGroup, nStates)
	for st := range s.when {
		s.byInter[st] = make([][]interGroup, nIPs)
		for ip, list := range s.when[st] {
			s.byInter[st][ip] = groupByInter(code, list)
		}
	}
	// sema declares IP and interaction names case-insensitively, so no two
	// keys of one table name different things.
	s.ipByName = make(map[string]int, 2*nIPs)
	for _, ip := range prog.IPs {
		s.ipByName[strings.ToLower(ip.Name)], s.ipByName[ip.Name] = ip.ID, ip.ID
	}
	s.interByName = make([]map[string]*sema.Interaction, nIPs)
	byChannel := make(map[*sema.Channel]map[string]*sema.Interaction)
	for _, ip := range prog.IPs {
		ch := ip.Group.Channel
		if byChannel[ch] == nil {
			m := make(map[string]*sema.Interaction, 2*len(ch.Interactions))
			for lower, inter := range ch.Interactions {
				m[lower], m[inter.Name] = inter, inter
			}
			byChannel[ch] = m
		}
		s.interByName[ip.ID] = byChannel[ch]
	}
	return s
}

// interGroup is the part of a when[state][ip] list that consumes one
// interaction: the transitions without a discriminant, and the others
// indexed by the parameter they are keyed on.
type interGroup struct {
	inter   *sema.Interaction
	unkeyed []*sema.TransInfo // in declaration order
	keys    []keyIndex
}

// keyIndex holds the transitions of a group keyed on one parameter, sorted
// by their constant and then in declaration order, and the window of each
// constant's transitions.
type keyIndex struct {
	param   int
	all     []*sema.TransInfo
	byValue map[int64]window
}

type window struct{ lo, hi int32 }

// groupByInter splits a when list by interaction, in the order the
// interactions first appear, and indexes each group by discriminant.
func groupByInter(code *vm.Code, list []*sema.TransInfo) []interGroup {
	var groups []interGroup
	for _, ti := range list {
		i := slices.IndexFunc(groups, func(g interGroup) bool { return g.inter == ti.WhenInter })
		if i < 0 {
			i = len(groups)
			groups = append(groups, interGroup{inter: ti.WhenInter})
		}
		g := &groups[i]
		d, ok := code.Discriminant(ti)
		if !ok {
			g.unkeyed = append(g.unkeyed, ti)
			continue
		}
		k := slices.IndexFunc(g.keys, func(k keyIndex) bool { return k.param == d.Param })
		if k < 0 {
			k = len(g.keys)
			g.keys = append(g.keys, keyIndex{param: d.Param})
		}
		g.keys[k].all = append(g.keys[k].all, ti)
	}
	value := func(ti *sema.TransInfo) int64 {
		d, _ := code.Discriminant(ti)
		return d.Value
	}
	for i := range groups {
		for k := range groups[i].keys {
			ki := &groups[i].keys[k]
			slices.SortStableFunc(ki.all, func(a, b *sema.TransInfo) int { return cmp.Compare(value(a), value(b)) })
			ki.byValue = make(map[int64]window)
			for lo := 0; lo < len(ki.all); {
				v, hi := value(ki.all[lo]), lo+1
				for hi < len(ki.all) && value(ki.all[hi]) == v {
					hi++
				}
				ki.byValue[v] = window{int32(lo), int32(hi)}
				lo = hi
			}
		}
	}
	return groups
}

// lookupName reads a table of ipByName's kind: a name spelled as a key is
// found as it stands, any other spelling by its lower-case form.
func lookupName[V any](m map[string]V, name string) (V, bool) {
	if v, ok := m[name]; ok {
		return v, true
	}
	v, ok := m[strings.ToLower(name)]
	return v, ok
}

func allStates(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Compile parses, checks and indexes a specification source text. It is the
// analogue of running Pet followed by Dingo: the result is directly
// executable by the analyzer. Each phase runs under a pprof label
// (tango_phase=parse/compile) and is timed into Spec.Timing, so both CPU
// profiles and run reports can attribute tool-generation cost.
func Compile(file, src string) (*Spec, error) {
	var (
		astSpec *ast.Spec
		err     error
	)
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("tango_phase", "parse"), func(context.Context) {
		astSpec, err = parser.Parse(file, src)
	})
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	parseD := time.Since(t0)

	var s *Spec
	t1 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("tango_phase", "compile"), func(context.Context) {
		var prog *sema.Program
		prog, err = sema.Check(astSpec)
		if err == nil {
			s = New(prog)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	s.Timing = Timing{Parse: parseD, Check: time.Since(t1)}
	return s, nil
}

// NumStates returns the number of FSM states.
func (s *Spec) NumStates() int { return len(s.Prog.States) }

// NumIPs returns the number of interaction-point instances.
func (s *Spec) NumIPs() int { return len(s.Prog.IPs) }

// StateName returns the name of state ordinal st.
func (s *Spec) StateName(st int) string {
	if st < 0 || st >= len(s.Prog.States) {
		return fmt.Sprintf("state(%d)", st)
	}
	return s.Prog.States[st]
}

// IPName returns the display name of IP instance id.
func (s *Spec) IPName(id int) string { return s.Prog.IPs[id].Name }

// IPByName resolves a trace-file IP name (case-insensitive).
func (s *Spec) IPByName(name string) (int, bool) { return lookupName(s.ipByName, name) }

// When returns the when-clause transitions for (state, ip).
func (s *Spec) When(state, ip int) []*sema.TransInfo { return s.when[state][ip] }

// WhenInput appends to dst, in declaration order, the transitions of
// When(state, ip) that consume inter and whose guard the input's params do
// not refute: the ones without a discriminant (vm.Discriminant), the keyed
// ones whose constant equals their parameter, and every keyed one whose
// parameter is missing or undefined. The left-out transitions are exactly
// those whose EvalProvided would return (false, nil) on params. The cost
// grows with what is appended, not with the keyed transitions that do not
// match.
func (s *Spec) WhenInput(dst []*sema.TransInfo, state, ip int, inter *sema.Interaction, params []vm.Value) []*sema.TransInfo {
	for i := range s.byInter[state][ip] {
		g := &s.byInter[state][ip][i]
		if g.inter != inter {
			continue
		}
		base := len(dst)
		dst = append(dst, g.unkeyed...)
		if len(g.keys) == 0 {
			return dst
		}
		for k := range g.keys {
			ki := &g.keys[k]
			if ki.param >= len(params) || params[ki.param].Undef {
				dst = append(dst, ki.all...)
			} else if w, ok := ki.byValue[params[ki.param].I]; ok {
				dst = append(dst, ki.all[w.lo:w.hi]...)
			}
		}
		slices.SortFunc(dst[base:], func(a, b *sema.TransInfo) int { return a.Index - b.Index })
		return dst
	}
	return dst
}

// Spontaneous returns the spontaneous transitions enabled in state.
func (s *Spec) Spontaneous(state int) []*sema.TransInfo { return s.spontaneous[state] }

// HasWhenOn reports whether any transition in state has a when clause on ip;
// this is the PG-node criterion of §3.1.1 (a transition might have been
// fireable if input were available).
func (s *Spec) HasWhenOn(state, ip int) bool { return len(s.when[state][ip]) > 0 }

// TransitionCount returns the number of transition declarations, the paper's
// measure of specification size (§4).
func (s *Spec) TransitionCount() int { return len(s.Prog.Trans) }

// ---------------------------------------------------------------------------
// Trace event resolution

// ResolvedEvent is a trace event bound to the specification: IP instance id,
// interaction, and parameter values in declaration order.
type ResolvedEvent struct {
	Seq    int
	Dir    trace.Dir
	IP     int
	Inter  *sema.Interaction
	Params []vm.Value
}

// ResolveEvent binds a textual trace event to the specification, validating
// IP name, interaction name, direction legality and parameter values. It is
// ResolveEvents on a batch of one.
func (s *Spec) ResolveEvent(ev trace.Event) (ResolvedEvent, error) {
	var one [1]ResolvedEvent
	out, err := s.ResolveEvents(one[:0], []trace.Event{ev})
	if err != nil {
		return ResolvedEvent{}, err
	}
	return out[0], nil
}

// ResolveEvents binds a batch of trace events as ResolveEvent binds one and
// appends them to dst in order. Names spelled as declared resolve without
// case folding; other spellings resolve case-insensitively. The parameter
// values of the whole batch live in one array, sized before it is filled:
// each event's Params is its own window of it (cap == len). On error the
// result holds the events before the failing one, and the error is that
// event's.
func (s *Spec) ResolveEvents(dst []ResolvedEvent, evs []trace.Event) ([]ResolvedEvent, error) {
	// First pass: IP, interaction and direction, which fix each event's
	// parameter count. It stops at the first event that fails them.
	base, nVals := len(dst), 0
	var headErr error
	for i := range evs {
		ev := &evs[i]
		id, ok := lookupName(s.ipByName, ev.IP)
		if !ok {
			headErr = fmt.Errorf("trace line %d: unknown interaction point %q", ev.Line, ev.IP)
			break
		}
		group := s.Prog.IPs[id].Group
		inter, ok := lookupName(s.interByName[id], ev.Interaction)
		if !ok {
			headErr = fmt.Errorf("trace line %d: channel %s has no interaction %q",
				ev.Line, group.Channel.Name, ev.Interaction)
			break
		}
		// Direction legality: inputs to the module are sent by the peer role;
		// outputs are sent by the module's own role.
		if ev.Dir == trace.In && !inter.ByRole[group.PeerRole] {
			headErr = fmt.Errorf("trace line %d: interaction %s cannot arrive at ip %s (not sendable by role %s)",
				ev.Line, inter.Name, ev.IP, group.PeerRole)
			break
		}
		if ev.Dir == trace.Out && !inter.ByRole[group.Role] {
			headErr = fmt.Errorf("trace line %d: interaction %s cannot be output at ip %s (not sendable by role %s)",
				ev.Line, inter.Name, ev.IP, group.Role)
			break
		}
		nVals += len(inter.Params)
		dst = append(dst, ResolvedEvent{Seq: ev.Seq, Dir: ev.Dir, IP: id, Inter: inter})
	}
	// Second pass: parameter values. An event's value error comes before
	// any later event's first-pass error, as in trace order.
	vals := make([]vm.Value, nVals)
	for i := base; i < len(dst); i++ {
		ev, inter := &evs[i-base], dst[i].Inter
		n := len(inter.Params)
		params := vals[:n:n]
		vals = vals[n:]
		for k, p := range inter.Params {
			params[k] = vm.UndefValue(p.Type)
		}
		for _, tp := range ev.Params {
			k := paramIndex(inter, tp.Name)
			if k < 0 {
				return dst[:i], fmt.Errorf("trace line %d: interaction %s has no parameter %q",
					ev.Line, inter.Name, tp.Name)
			}
			v, err := ParseValue(inter.Params[k].Type, tp.Value)
			if err != nil {
				return dst[:i], fmt.Errorf("trace line %d: parameter %s: %v", ev.Line, tp.Name, err)
			}
			params[k] = v
		}
		dst[i].Params = params
	}
	return dst, headErr
}

func paramIndex(inter *sema.Interaction, name string) int {
	for i, p := range inter.Params {
		if strings.EqualFold(p.Name, name) {
			return i
		}
	}
	return -1
}

// ParseValue parses a trace-file parameter value of the given type. "?"
// denotes an unobserved (undefined) value.
func ParseValue(t *types.Type, s string) (vm.Value, error) {
	if s == "?" {
		return vm.UndefValue(t), nil
	}
	root := t.Root()
	switch root.Kind {
	case types.Integer:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return vm.Value{}, fmt.Errorf("invalid integer %q", s)
		}
		return rangeCheck(t, i)
	case types.Boolean:
		switch strings.ToLower(s) {
		case "true":
			return vm.MakeOrdinal(t, 1), nil
		case "false":
			return vm.MakeOrdinal(t, 0), nil
		}
		return vm.Value{}, fmt.Errorf("invalid boolean %q", s)
	case types.Char:
		if len(s) == 3 && s[0] == '\'' && s[2] == '\'' {
			return vm.MakeOrdinal(t, int64(s[1])), nil
		}
		if len(s) == 1 {
			return vm.MakeOrdinal(t, int64(s[0])), nil
		}
		return vm.Value{}, fmt.Errorf("invalid char %q", s)
	case types.Enum:
		for i, n := range root.EnumNames {
			if strings.EqualFold(n, s) {
				return rangeCheck(t, int64(i))
			}
		}
		// Also accept a numeric ordinal.
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return rangeCheck(t, i)
		}
		return vm.Value{}, fmt.Errorf("unknown enum member %q of %s", s, root)
	default:
		return vm.Value{}, fmt.Errorf("interaction parameters of type %s cannot appear in traces", t)
	}
}

func rangeCheck(t *types.Type, i int64) (vm.Value, error) {
	lo, hi := t.OrdinalRange()
	if i < lo || i > hi {
		return vm.Value{}, fmt.Errorf("value %d out of range %d..%d", i, lo, hi)
	}
	return vm.MakeOrdinal(t, i), nil
}

// FormatValue renders a run-time value in trace-file syntax.
func FormatValue(v vm.Value) string { return v.String() }

// EventFor renders a VM output as a trace event (used by the implementation
// generation mode).
func (s *Spec) EventFor(dir trace.Dir, ip int, inter *sema.Interaction, params []vm.Value) trace.Event {
	ev := trace.Event{Dir: dir, IP: s.IPName(ip), Interaction: inter.Name}
	for i, p := range inter.Params {
		ev.Params = append(ev.Params, trace.Param{Name: p.Name, Value: FormatValue(params[i])})
	}
	return ev
}
