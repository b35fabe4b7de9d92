package serve

import (
	"time"
)

// Limits is the server-wide resource policy one request is admitted under.
// Every request gets a deadline and a transition budget whatever it asked
// for; an overloaded server shrinks both so expensive requests finish fast
// with deterministic partial verdicts (Exhausted/Partial + StopInfo) instead
// of camping on workers — the middle rung of the degradation ladder:
//
//	full verdict  →  partial verdict via clamped budget/deadline  →  429
type Limits struct {
	// DefaultDeadline applies when a request names none; MaxDeadline caps
	// what a request may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// DefaultBudget / MaxBudget bound transition executions per request
	// (analysis.Options.MaxTransitions).
	DefaultBudget int64
	MaxBudget     int64
	// MaxHeapCells bounds live VM heap cells per request state; a
	// transition allocating past it faults and the branch is treated as
	// infeasible (analysis.Options.MaxHeapCells). 0 keeps the VM default.
	MaxHeapCells int
	// DegradeAt is the queued-waiters threshold at which the server enters
	// degraded mode; DegradedBudget and DegradedDeadline are the clamps
	// applied there. Degraded responses carry "degraded": true.
	DegradeAt        int
	DegradedBudget   int64
	DegradedDeadline time.Duration
}

// withDefaults fills the unset fields from the worker/queue geometry.
func (l Limits) withDefaults(queueDepth int) Limits {
	if l.DefaultDeadline <= 0 {
		l.DefaultDeadline = 10 * time.Second
	}
	if l.MaxDeadline <= 0 {
		l.MaxDeadline = 60 * time.Second
	}
	if l.MaxBudget <= 0 {
		l.MaxBudget = 5_000_000
	}
	if l.DefaultBudget <= 0 || l.DefaultBudget > l.MaxBudget {
		l.DefaultBudget = l.MaxBudget
	}
	if l.DegradeAt <= 0 {
		l.DegradeAt = (queueDepth + 1) / 2
	}
	if l.DegradedBudget <= 0 {
		l.DegradedBudget = l.MaxBudget / 10
		if l.DegradedBudget <= 0 {
			l.DegradedBudget = 1
		}
	}
	if l.DegradedDeadline <= 0 {
		l.DegradedDeadline = l.DefaultDeadline / 4
		if l.DegradedDeadline <= 0 {
			l.DegradedDeadline = time.Second
		}
	}
	return l
}

// reqLimits are the effective bounds one request runs under after admission.
type reqLimits struct {
	Deadline time.Duration
	Budget   int64
	Degraded bool
}

// resolve clamps what the request asked for (0 = server default) against the
// policy, degrading when `queued` waiters have built up. The result is a
// deterministic function of (request, policy, load bucket), so a client can
// reproduce a degraded partial verdict by re-sending with the budget the
// response reported.
func (l Limits) resolve(wantDeadline time.Duration, wantBudget int64, queued int) reqLimits {
	r := reqLimits{Deadline: l.DefaultDeadline, Budget: l.DefaultBudget}
	if wantDeadline > 0 {
		r.Deadline = min(wantDeadline, l.MaxDeadline)
	}
	if wantBudget > 0 {
		r.Budget = min(wantBudget, l.MaxBudget)
	}
	if queued >= l.DegradeAt {
		r.Degraded = true
		r.Budget = min(r.Budget, l.DegradedBudget)
		r.Deadline = min(r.Deadline, l.DegradedDeadline)
	}
	return r
}
