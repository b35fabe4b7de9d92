// Package gen implements Tango's implementation generation mode: the same
// compiled specification is run forward as an executable implementation
// (what Dingo produced in the original tool chain), driven by a scripted
// environment, and the interactions through its interaction points are
// recorded as a trace file. The paper used exactly this to obtain the valid
// LAPD and TP0 traces of its evaluation ("obtained by executing Tango in
// implementation generation mode", §4.2).
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Scheduler resolves nondeterministic choice among fireable transitions.
type Scheduler interface {
	// Pick returns an index in [0, n).
	Pick(n int) int
}

// FirstScheduler always picks the first fireable transition (deterministic,
// declaration order).
type FirstScheduler struct{}

// Pick returns 0.
func (FirstScheduler) Pick(int) int { return 0 }

// SeededScheduler picks uniformly with a fixed-seed PRNG, giving
// reproducible nondeterministic interleavings.
type SeededScheduler struct{ rng *rand.Rand }

// NewSeededScheduler returns a scheduler seeded with seed.
func NewSeededScheduler(seed int64) *SeededScheduler {
	return &SeededScheduler{rng: rand.New(rand.NewSource(seed))}
}

// Pick returns a uniform index in [0, n).
func (s *SeededScheduler) Pick(n int) int { return s.rng.Intn(n) }

// PreferScheduler picks among the fireable transitions whose names are in
// the preferred set when any is offered, delegating to a fallback otherwise.
// Workload drivers use it to steer a phase of the run (e.g. "fill the
// buffers before draining them", the Figure 4 trace shape).
type PreferScheduler struct {
	names    map[string]bool
	fallback Scheduler

	// offered is set by the Generator before each Pick.
	offered []string
}

// NewPreferScheduler builds a scheduler preferring the named transitions.
func NewPreferScheduler(names []string, fallback Scheduler) *PreferScheduler {
	if fallback == nil {
		fallback = FirstScheduler{}
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return &PreferScheduler{names: set, fallback: fallback}
}

// Pick chooses the first preferred offered transition, else delegates.
func (s *PreferScheduler) Pick(n int) int {
	for i := 0; i < n && i < len(s.offered); i++ {
		if s.names[s.offered[i]] {
			return i
		}
	}
	return s.fallback.Pick(n)
}

// Offer receives the names of the fireable transitions before Pick.
func (s *PreferScheduler) Offer(names []string) { s.offered = names }

// offerer is implemented by schedulers that want to see the fireable
// transition names before picking.
type offerer interface{ Offer(names []string) }

// queuedInput is an environment input waiting in an IP queue.
type queuedInput struct {
	inter  *sema.Interaction
	params []vm.Value
}

// StepRecord describes one executed transition.
type StepRecord struct {
	Trans *sema.TransInfo
	// Consumed is the input event recorded for the consumed interaction, nil
	// for spontaneous transitions.
	Consumed *trace.Event
	// Outputs are the output events recorded.
	Outputs []trace.Event
}

// Generator executes a compiled specification as an implementation.
type Generator struct {
	spec  *efsm.Spec
	exec  *vm.Exec
	sched Scheduler

	state  *vm.State
	queues [][]queuedInput
	events []trace.Event
	seq    int
}

// New builds a generator; sched may be nil for FirstScheduler.
func New(spec *efsm.Spec, sched Scheduler) (*Generator, error) {
	if sched == nil {
		sched = FirstScheduler{}
	}
	g := &Generator{spec: spec, exec: vm.New(spec.Code), sched: sched}
	g.queues = make([][]queuedInput, spec.NumIPs())
	st, outs, err := g.exec.RunInit()
	if err != nil {
		return nil, fmt.Errorf("initialize: %w", err)
	}
	g.state = st
	g.recordOutputs(outs)
	return g, nil
}

// State exposes the current module state (read-only use).
func (g *Generator) State() *vm.State { return g.state }

// SetScheduler switches the scheduler mid-run, for phased workloads.
func (g *Generator) SetScheduler(s Scheduler) {
	if s != nil {
		g.sched = s
	}
}

// FSMState returns the current FSM state name.
func (g *Generator) FSMState() string { return g.spec.StateName(g.state.FSM) }

// Feed enqueues an environment input at the named IP. Parameter values are
// given in trace-file syntax and are validated against the interaction
// signature; omitted parameters are an error (implementations receive
// concrete values).
func (g *Generator) Feed(ipName, interName string, params map[string]string) error {
	ip, ok := g.spec.IPByName(ipName)
	if !ok {
		return fmt.Errorf("feed: unknown ip %q", ipName)
	}
	group := g.spec.Prog.IPs[ip].Group
	inter, ok := group.Channel.Interactions[lower(interName)]
	if !ok {
		return fmt.Errorf("feed: channel %s has no interaction %q", group.Channel.Name, interName)
	}
	if !inter.ByRole[group.PeerRole] {
		return fmt.Errorf("feed: interaction %s cannot arrive at ip %s", inter.Name, ipName)
	}
	vals := make([]vm.Value, len(inter.Params))
	for i, p := range inter.Params {
		text, ok := params[p.Name]
		if !ok {
			return fmt.Errorf("feed: %s.%s missing parameter %s", ipName, interName, p.Name)
		}
		v, err := efsm.ParseValue(p.Type, text)
		if err != nil {
			return fmt.Errorf("feed: %s.%s parameter %s: %v", ipName, interName, p.Name, err)
		}
		vals[i] = v
	}
	if len(params) != len(inter.Params) {
		return fmt.Errorf("feed: %s.%s: %d parameters given, %d declared", ipName, interName, len(params), len(inter.Params))
	}
	g.queues[ip] = append(g.queues[ip], queuedInput{inter: inter, params: vals})
	return nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// provided evaluates a transition guard against the current state; a runtime
// error in the guard means the transition is not fireable.
func (g *Generator) provided(ti *sema.TransInfo, params []vm.Value) (bool, error) {
	ok, err := g.exec.EvalProvided(g.state, ti, params)
	if err != nil {
		if _, isRTE := err.(*vm.RuntimeError); isRTE {
			return false, nil
		}
		return false, err
	}
	return ok, nil
}

type fireable struct {
	ti     *sema.TransInfo
	ip     int // -1 for spontaneous
	params []vm.Value
}

// fireables computes the currently fireable transitions (module semantics:
// front of each input queue plus spontaneous transitions, minimal priority).
func (g *Generator) fireables() ([]fireable, error) {
	var out []fireable
	fsm := g.state.FSM
	for _, ti := range g.spec.Spontaneous(fsm) {
		ok, err := g.provided(ti, nil)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, fireable{ti: ti, ip: -1})
		}
	}
	var tis []*sema.TransInfo
	for ip := range g.queues {
		if len(g.queues[ip]) == 0 {
			continue
		}
		front := g.queues[ip][0]
		tis = g.spec.WhenInput(tis[:0], fsm, ip, front.inter, front.params)
		for _, ti := range tis {
			ok, err := g.provided(ti, front.params)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, fireable{ti: ti, ip: ip, params: front.params})
			}
		}
	}
	// Estelle priority: only minimal-priority transitions may fire.
	if len(out) > 1 {
		min := out[0].ti.Priority
		for _, f := range out[1:] {
			if f.ti.Priority < min {
				min = f.ti.Priority
			}
		}
		kept := out[:0]
		for _, f := range out {
			if f.ti.Priority == min {
				kept = append(kept, f)
			}
		}
		out = kept
	}
	return out, nil
}

// Step executes one fireable transition chosen by the scheduler, recording
// the consumed input and produced outputs in the trace. It returns nil,
// nil when no transition is fireable.
func (g *Generator) Step() (*StepRecord, error) {
	fs, err := g.fireables()
	if err != nil {
		return nil, err
	}
	if len(fs) == 0 {
		return nil, nil
	}
	if o, ok := g.sched.(offerer); ok {
		names := make([]string, len(fs))
		for i := range fs {
			names[i] = fs[i].ti.Name
		}
		o.Offer(names)
	}
	f := fs[g.sched.Pick(len(fs))]
	rec := &StepRecord{Trans: f.ti}
	if f.ip >= 0 {
		// Consume the queue front and record the input event at the moment
		// of consumption, so generated traces are valid under full relative
		// order checking.
		g.queues[f.ip] = g.queues[f.ip][1:]
		ev := g.spec.EventFor(trace.In, f.ip, f.ti.WhenInter, f.params)
		g.record(&ev)
		rec.Consumed = &ev
	}
	outs, err := g.exec.Execute(g.state, f.ti, f.params)
	if err != nil {
		return nil, fmt.Errorf("transition %s: %w", f.ti.Name, err)
	}
	rec.Outputs = g.recordOutputs(outs)
	return rec, nil
}

// Run steps until quiescent or until maxSteps transitions have fired,
// returning the number executed.
func (g *Generator) Run(maxSteps int) (int, error) {
	n := 0
	for n < maxSteps {
		rec, err := g.Step()
		if err != nil {
			return n, err
		}
		if rec == nil {
			return n, nil
		}
		n++
	}
	return n, nil
}

func (g *Generator) record(ev *trace.Event) {
	ev.Seq = g.seq
	g.seq++
	g.events = append(g.events, *ev)
}

func (g *Generator) recordOutputs(outs []vm.Output) []trace.Event {
	var recs []trace.Event
	for _, o := range outs {
		ev := g.spec.EventFor(trace.Out, o.IP, o.Inter, o.Params)
		g.record(&ev)
		recs = append(recs, ev)
	}
	return recs
}

// Outputs returns the trace events recorded after the given sequence number,
// for workload drivers that react to module outputs.
func (g *Generator) Outputs(afterSeq int) []trace.Event {
	var out []trace.Event
	for _, e := range g.events {
		if e.Seq >= afterSeq && e.Dir == trace.Out {
			out = append(out, e)
		}
	}
	return out
}

// Seq returns the next sequence number (= number of recorded events).
func (g *Generator) Seq() int { return g.seq }

// Trace returns the recorded trace, marked with an EOF marker.
func (g *Generator) Trace() *trace.Trace {
	evs := make([]trace.Event, len(g.events))
	copy(evs, g.events)
	return &trace.Trace{Events: evs, EOF: true}
}

// Pending returns the number of unconsumed environment inputs.
func (g *Generator) Pending() int {
	n := 0
	for _, q := range g.queues {
		n += len(q)
	}
	return n
}
