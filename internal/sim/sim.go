// Package sim is a small bounded state-space explorer over compiled
// specifications: breadth-first search over composite module states
// (FSM state + variables + dynamic memory) with visited-state deduplication
// by fingerprint. The paper situates Tango next to exhaustive validators like
// SPIN (§1.1); this package provides the corresponding (bounded) exploration
// primitive for closed systems, used by the linter's reachability pass and
// usable on its own for sanity-checking specifications.
package sim

import (
	"context"
	"fmt"

	"repro/internal/efsm"
	"repro/internal/vm"
)

// Result summarizes a bounded exploration.
type Result struct {
	// States is the number of distinct composite states visited.
	States int
	// Transitions is the number of edges executed.
	Transitions int
	// Truncated reports whether the bound stopped the exploration.
	Truncated bool
	// Interrupted reports whether the context stopped the exploration early;
	// the counts cover what was explored up to that point.
	Interrupted bool
	// FSMStates is the set of FSM control states seen.
	FSMStates map[int]bool
	// Deadlocks counts states with no fireable transition.
	Deadlocks int
	// Faults counts contained VM execution faults (panics converted to
	// per-transition failures); faulting edges are skipped, not fatal.
	Faults int
	// Collisions counts 64-bit fingerprint-hash collisions detected against
	// the canonical strings. Only ExploreParanoid can populate it; the fast
	// path stores hashes alone and cannot see collisions.
	Collisions int64
}

// Explore runs BFS from the initialized state, firing spontaneous transitions
// only (a closed system: no environment input), up to maxStates distinct
// composite states.
func Explore(spec *efsm.Spec, maxStates int) (*Result, error) {
	return ExploreContext(context.Background(), spec, maxStates)
}

// ExploreContext is Explore under a context: cancellation or deadline expiry
// stops the BFS at the next dequeue and returns the partial Result with
// Interrupted set, not an error. The visited set stores hashed fingerprints
// (8 bytes a state); use ExploreParanoid when collisions must be impossible.
func ExploreContext(ctx context.Context, spec *efsm.Spec, maxStates int) (*Result, error) {
	return explore(ctx, spec, maxStates, false)
}

// ExploreParanoid is ExploreContext in collision-paranoia mode: visited
// states are deduplicated by full canonical fingerprint strings (so a hash
// collision cannot merge two distinct states) and any collision the hashes
// would have suffered is counted in Result.Collisions. Tests use it to
// cross-check the fast path.
func ExploreParanoid(ctx context.Context, spec *efsm.Spec, maxStates int) (*Result, error) {
	return explore(ctx, spec, maxStates, true)
}

func explore(ctx context.Context, spec *efsm.Spec, maxStates int, paranoid bool) (*Result, error) {
	if maxStates <= 0 {
		maxStates = 10_000
	}
	exec := vm.New(spec.Code)
	init, _, err := exec.RunInit()
	if err != nil {
		return nil, fmt.Errorf("initialize: %w", err)
	}
	res := &Result{FSMStates: make(map[int]bool)}
	seen := vm.NewFPMap[struct{}](paranoid)
	// add reports whether st is a new state, recording it if so.
	add := func(st *vm.State) bool {
		canon := ""
		if paranoid {
			canon = st.Fingerprint()
		}
		h := st.Hash64()
		if _, ok := seen.Get(h, canon); ok {
			return false
		}
		seen.Put(h, canon, struct{}{})
		return true
	}
	add(init)
	queue := []*vm.State{init}
	res.States = 1
	res.FSMStates[init.FSM] = true

	// contained absorbs per-edge failures: diagnosed runtime errors are
	// silently infeasible, contained panics are counted as faults.
	contained := func(err error) bool {
		switch err.(type) {
		case *vm.RuntimeError:
			return true
		case *vm.FaultError:
			res.Faults++
			return true
		}
		return false
	}

	for len(queue) > 0 {
		if ctx.Err() != nil {
			res.Interrupted = true
			return res, nil
		}
		st := queue[0]
		queue = queue[1:]
		fired := 0
		for _, ti := range spec.Spontaneous(st.FSM) {
			ok, err := exec.EvalProvided(st, ti, nil)
			if err != nil {
				if contained(err) {
					continue
				}
				return nil, err
			}
			if !ok {
				continue
			}
			next := st.Snapshot()
			if _, err := exec.Execute(next, ti, nil); err != nil {
				if contained(err) {
					continue
				}
				return nil, err
			}
			fired++
			res.Transitions++
			if !add(next) {
				continue
			}
			res.States++
			res.FSMStates[next.FSM] = true
			if res.States >= maxStates {
				res.Truncated = true
				return res, nil
			}
			queue = append(queue, next)
		}
		if fired == 0 {
			res.Deadlocks++
		}
	}
	res.Collisions = seen.Collisions()
	return res, nil
}

// ReachableStates returns the set of FSM control states reachable in a
// closed system, for the linter.
func ReachableStates(spec *efsm.Spec, maxStates int) (map[int]bool, bool, error) {
	res, err := Explore(spec, maxStates)
	if err != nil {
		return nil, false, err
	}
	return res.FSMStates, res.Truncated, nil
}
