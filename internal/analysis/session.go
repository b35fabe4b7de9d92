package analysis

import (
	"context"
	"os"

	"repro/internal/efsm"
	"repro/internal/trace"
)

// Session is a reusable per-trace analysis session: one analyzer over one
// compiled specification plus the read-and-analyze plumbing shared by the CLI
// and the batch engine. Like the Analyzer it wraps, a Session must not be
// used from more than one goroutine at a time, but it may analyze any number
// of traces sequentially. Between traces it keeps the trace and search-node
// storage of the largest trace it has analyzed, which the next trace reuses.
//
// Sessions are the unit of parallelism for multi-trace workloads: the
// compiled *efsm.Spec is immutable after compilation (see the package efsm
// concurrency contract), so any number of Sessions over the same Spec may run
// concurrently, each owning its private VM, trace storage and search state.
type Session struct {
	an *Analyzer
}

// NewSession builds a session over a compiled specification.
func NewSession(spec *efsm.Spec, opts Options) (*Session, error) {
	an, err := New(spec, opts)
	if err != nil {
		return nil, err
	}
	return &Session{an: an}, nil
}

// Analyzer exposes the underlying analyzer (for stats or source-mode runs).
func (s *Session) Analyzer() *Analyzer { return s.an }

// Analyze analyzes one static trace under the context.
func (s *Session) Analyze(ctx context.Context, tr *trace.Trace) (*Result, error) {
	return s.an.AnalyzeTraceContext(ctx, tr)
}

// AnalyzeFile opens, parses and analyzes one static trace file. File-access
// problems surface as *os.PathError; everything else that goes wrong before a
// verdict is a malformed-trace error (parse failure or an event the
// specification cannot resolve).
func (s *Session) AnalyzeFile(ctx context.Context, path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	return s.Analyze(ctx, tr)
}
