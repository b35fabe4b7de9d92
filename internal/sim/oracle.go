package sim

import (
	"fmt"

	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file is the differential trace oracle: an independent decision
// procedure for "could this trace have been produced by a conforming
// implementation?" built on breadth-first search instead of the analyzer's
// backtracking depth-first search. It shares only the compiled model
// (efsm.Spec), the VM, and event resolution with package analysis — the
// candidate generation, output matching, and acceptance logic are written
// from scratch, so a bug in either implementation shows up as a verdict
// disagreement under `tango fuzz` rather than agreeing with itself.
//
// The oracle handles fully observed static traces only (no disabled or
// unobserved IPs, no partial-value semantics): exactly the trace class the
// fuzz generator emits.

// Order mirrors the §2.4.2 relative order checking switches. It is declared
// here, not imported from package analysis, to keep the oracle's dependency
// surface (and failure modes) independent of the implementation under test.
type Order struct {
	// InBeforeOut: a consumed input must precede any unverified output at
	// the same IP in the trace.
	InBeforeOut bool
	// OutBeforeIn: a generated output must precede any unconsumed input at
	// the same IP in the trace.
	OutBeforeIn bool
	// IPOrder: the consumed input must be the globally earliest remaining
	// input, and a generated output must be the globally earliest unverified
	// output — outputs of one transition block to different IPs may appear
	// permuted.
	IPOrder bool
}

// FullOrder is the strictest checking mode (the paper's FULL).
var FullOrder = Order{InBeforeOut: true, OutBeforeIn: true, IPOrder: true}

// OracleVerdict is the oracle's three-valued outcome.
type OracleVerdict int

// The oracle verdicts. OracleExhausted means a resource bound (node budget
// or depth cap) stopped the search before it could decide; callers must not
// treat it as a verdict.
const (
	OracleInvalid OracleVerdict = iota
	OracleValid
	OracleExhausted
)

// String names the verdict.
func (v OracleVerdict) String() string {
	switch v {
	case OracleValid:
		return "valid"
	case OracleInvalid:
		return "invalid"
	default:
		return "exhausted"
	}
}

// OracleResult is the outcome of one CheckTrace run.
type OracleResult struct {
	Verdict OracleVerdict
	// Nodes counts distinct (state, cursor) configurations expanded.
	Nodes int
	// Depth is the deepest path length reached.
	Depth int
	// Faults counts contained VM execution faults (skipped edges).
	Faults int
	// Truncated reports whether the depth cap cut at least one path short.
	// A Valid verdict is always conclusive; an Invalid verdict with
	// Truncated set means "no accepting run within the depth cap".
	Truncated bool
}

// OracleOptions bounds a CheckTrace run.
type OracleOptions struct {
	Order Order
	// MaxNodes bounds distinct configurations (default 200_000). Hitting it
	// yields OracleExhausted.
	MaxNodes int
	// MaxDepth caps the path length (default 4*events+64, the analyzer's
	// auto cap, so both sides refute depth-unbounded traces identically).
	MaxDepth int
}

// oracleNode is one BFS configuration: a module state plus per-IP trace
// cursors. Configurations are deduplicated by full canonical fingerprint
// strings — the oracle never trades correctness for hashed fingerprints.
type oracleNode struct {
	st     *vm.State
	inCur  []int
	outCur []int
	depth  int
}

// CheckTrace decides the validity of a fully observed static trace by
// exhaustive bounded BFS over (module state, trace cursors) configurations.
func CheckTrace(spec *efsm.Spec, tr *trace.Trace, opts OracleOptions) (*OracleResult, error) {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 200_000
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 4*len(tr.Events) + 64
	}

	// Resolve and queue the trace events per IP, exactly as recorded.
	nIPs := spec.NumIPs()
	events, err := spec.ResolveEvents(make([]efsm.ResolvedEvent, 0, len(tr.Events)), tr.Events)
	if err != nil {
		return nil, err
	}
	inputs := make([][]int, nIPs)
	outputs := make([][]int, nIPs)
	for idx, re := range events {
		if re.Dir == trace.In {
			inputs[re.IP] = append(inputs[re.IP], idx)
		} else {
			outputs[re.IP] = append(outputs[re.IP], idx)
		}
	}

	o := &oracle{
		spec: spec, exec: vm.New(spec.Code), opts: opts,
		events: events, inputs: inputs, outputs: outputs,
		res: &OracleResult{},
	}
	return o.run()
}

type oracle struct {
	spec    *efsm.Spec
	exec    *vm.Exec
	opts    OracleOptions
	events  []efsm.ResolvedEvent
	inputs  [][]int
	outputs [][]int
	res     *OracleResult
}

func (o *oracle) run() (*OracleResult, error) {
	st, outs, err := o.exec.RunInit()
	if err != nil {
		return nil, fmt.Errorf("initialize: %w", err)
	}
	st.FSM = o.spec.Prog.InitTo
	nIPs := o.spec.NumIPs()
	root := &oracleNode{st: st, inCur: make([]int, nIPs), outCur: make([]int, nIPs)}
	// Outputs of the initialize block are checked like any others.
	if len(outs) > 0 && !o.matchOutputs(outs, root.inCur, root.outCur) {
		return o.invalid(), nil
	}
	if o.complete(root) {
		o.res.Verdict = OracleValid
		o.res.Nodes = 1
		return o.res, nil
	}

	seen := map[string]bool{o.fingerprint(root): true}
	queue := []*oracleNode{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		o.res.Nodes++
		if o.res.Nodes > o.opts.MaxNodes {
			o.res.Verdict = OracleExhausted
			return o.res, nil
		}
		if n.depth > o.res.Depth {
			o.res.Depth = n.depth
		}
		if n.depth >= o.opts.MaxDepth {
			o.res.Truncated = true
			continue
		}
		children, err := o.expand(n)
		if err != nil {
			return nil, err
		}
		for _, c := range children {
			if o.complete(c) {
				o.res.Verdict = OracleValid
				o.res.Depth = c.depth
				return o.res, nil
			}
			fp := o.fingerprint(c)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			queue = append(queue, c)
		}
	}
	return o.invalid(), nil
}

func (o *oracle) invalid() *OracleResult {
	o.res.Verdict = OracleInvalid
	return o.res
}

// complete reports whether every trace event has been consumed or verified.
func (o *oracle) complete(n *oracleNode) bool {
	for p := range o.inputs {
		if n.inCur[p] < len(o.inputs[p]) || n.outCur[p] < len(o.outputs[p]) {
			return false
		}
	}
	return true
}

// fingerprint is the canonical dedup key: full state fingerprint plus
// cursors (collision-free by construction).
func (o *oracle) fingerprint(n *oracleNode) string {
	key := n.st.Fingerprint()
	for p := range n.inCur {
		key += fmt.Sprintf("|%d,%d", n.inCur[p], n.outCur[p])
	}
	return key
}

// oracleCand is one enabled (transition, consumed input) pair at a node.
type oracleCand struct {
	ti     *sema.TransInfo
	params []vm.Value
	ip     int // -1 spontaneous
}

// expand generates n's children. It evaluates the guard of every
// transition of each (state, IP) list on purpose, where the analyzer and
// gen skip the ones an input's discriminant refutes (efsm.Spec.WhenInput):
// the full scan keeps the oracle an independent referee of that index.
func (o *oracle) expand(n *oracleNode) ([]*oracleNode, error) {
	var cands []oracleCand
	fsm := n.st.FSM
	for _, ti := range o.spec.Spontaneous(fsm) {
		ok, err := o.fireable(n.st, ti, nil)
		if err != nil {
			return nil, err
		}
		if ok {
			cands = append(cands, oracleCand{ti: ti, ip: -1})
		}
	}
	for p := 0; p < o.spec.NumIPs(); p++ {
		if n.inCur[p] >= len(o.inputs[p]) {
			continue
		}
		evIdx := o.inputs[p][n.inCur[p]]
		ev := &o.events[evIdx]
		if o.inputBlocked(n, p, ev) {
			continue
		}
		for _, ti := range o.spec.When(fsm, p) {
			if ti.WhenInter != ev.Inter {
				continue
			}
			ok, err := o.fireable(n.st, ti, ev.Params)
			if err != nil {
				return nil, err
			}
			if ok {
				cands = append(cands, oracleCand{ti: ti, params: ev.Params, ip: p})
			}
		}
	}
	// Estelle priority: only minimal-priority transitions may fire.
	if len(cands) > 1 {
		min := cands[0].ti.Priority
		for _, c := range cands[1:] {
			if c.ti.Priority < min {
				min = c.ti.Priority
			}
		}
		kept := cands[:0]
		for _, c := range cands {
			if c.ti.Priority == min {
				kept = append(kept, c)
			}
		}
		cands = kept
	}

	var children []*oracleNode
	for _, c := range cands {
		st := n.st.Snapshot()
		params := make([]vm.Value, len(c.params))
		for i := range c.params {
			params[i] = c.params[i].Copy()
		}
		outs, err := o.exec.Execute(st, c.ti, params)
		if err != nil {
			if o.contained(err) {
				continue
			}
			return nil, err
		}
		inCur := append([]int(nil), n.inCur...)
		outCur := append([]int(nil), n.outCur...)
		if c.ip >= 0 {
			inCur[c.ip]++
		}
		if !o.matchOutputs(outs, inCur, outCur) {
			continue
		}
		children = append(children, &oracleNode{st: st, inCur: inCur, outCur: outCur, depth: n.depth + 1})
	}
	return children, nil
}

// expand generates every legal successor configuration of n: spontaneous
// transitions plus the front input of each IP queue, under Estelle minimal
// priority and the configured order constraints.

// fireable evaluates a guard; a diagnosed runtime error means not fireable,
// a contained VM fault is counted and skipped.
func (o *oracle) fireable(st *vm.State, ti *sema.TransInfo, params []vm.Value) (bool, error) {
	ok, err := o.exec.EvalProvided(st, ti, params)
	if err != nil {
		if o.contained(err) {
			return false, nil
		}
		return false, err
	}
	return ok, nil
}

func (o *oracle) contained(err error) bool {
	switch err.(type) {
	case *vm.RuntimeError:
		return true
	case *vm.FaultError:
		o.res.Faults++
		return true
	}
	return false
}

// inputBlocked applies the input-side order constraints to the front input
// of IP p.
func (o *oracle) inputBlocked(n *oracleNode, p int, ev *efsm.ResolvedEvent) bool {
	if o.opts.Order.InBeforeOut {
		if n.outCur[p] < len(o.outputs[p]) &&
			o.events[o.outputs[p][n.outCur[p]]].Seq < ev.Seq {
			return true
		}
	}
	if o.opts.Order.IPOrder {
		for q := range o.inputs {
			if q == p || n.inCur[q] >= len(o.inputs[q]) {
				continue
			}
			if o.events[o.inputs[q][n.inCur[q]]].Seq < ev.Seq {
				return true
			}
		}
	}
	return false
}

// matchOutputs verifies one transition block's outputs against the trace,
// advancing outCur in place. Under IPOrder the block's outputs must be
// exactly the globally next unverified outputs, as a set (per-IP emission
// order preserved, cross-IP permutations allowed).
func (o *oracle) matchOutputs(outs []vm.Output, inCur, outCur []int) bool {
	if len(outs) == 0 {
		return true
	}
	if !o.opts.Order.IPOrder {
		for _, out := range outs {
			if !o.matchOne(out, inCur, outCur) {
				return false
			}
		}
		return true
	}
	pending := append([]vm.Output(nil), outs...)
	for len(pending) > 0 {
		// Earliest unverified trace output overall.
		gIP, gSeq := -1, int(1)<<62
		for q := range o.outputs {
			if outCur[q] >= len(o.outputs[q]) {
				continue
			}
			if s := o.events[o.outputs[q][outCur[q]]].Seq; s < gSeq {
				gSeq, gIP = s, q
			}
		}
		if gIP < 0 {
			return false
		}
		matched := -1
		for i, out := range pending {
			if out.IP == gIP {
				matched = i
				break
			}
		}
		if matched < 0 {
			return false
		}
		if !o.matchOne(pending[matched], inCur, outCur) {
			return false
		}
		pending = append(pending[:matched], pending[matched+1:]...)
	}
	return true
}

// matchOne verifies one output against the front of its IP's output list.
func (o *oracle) matchOne(out vm.Output, inCur, outCur []int) bool {
	p := out.IP
	if outCur[p] >= len(o.outputs[p]) {
		return false
	}
	ev := &o.events[o.outputs[p][outCur[p]]]
	if ev.Inter != out.Inter {
		return false
	}
	for i := range out.Params {
		if !vm.MatchParam(out.Params[i], ev.Params[i]) {
			return false
		}
	}
	if o.opts.Order.OutBeforeIn {
		if inCur[p] < len(o.inputs[p]) &&
			o.events[o.inputs[p][inCur[p]]].Seq < ev.Seq {
			return false
		}
	}
	outCur[p]++
	return true
}
