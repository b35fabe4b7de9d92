package analysis

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// This file implements crash-safe checkpoint/resume for static-trace
// analysis. A checkpoint is the analyzer's deepest verified prefix: the
// transition path that explains the most trace events so far, plus the VM
// state it reaches. Resume replays that path step by step on a fresh analyzer
// (the executor is deterministic, so replay is linear — no search), verifies
// that the replayed state matches the checkpointed fingerprint, and then
// searches only the subtree below the restored node.
//
// The semantics are deliberately asymmetric, because a checkpoint records one
// path, not the whole search frontier:
//
//   - a Valid verdict found below the restored node is sound (any accepting
//     completion of any prefix is an accepting run), and is returned;
//   - any other outcome of the subtree search proves nothing about branches
//     that diverge above the restored node, so the analyzer falls back to a
//     full fresh search and returns its verdict.
//
// Either way a resumed run's verdict equals the uninterrupted run's verdict;
// resume is a (often large) head start, never a different answer.

// ErrCheckpointMismatch reports a checkpoint that structurally decodes but
// belongs to a different workload: another specification, another trace, or a
// replay that diverges from the recorded fingerprint. Callers should fall
// back to a fresh analysis.
var ErrCheckpointMismatch = errors.New("checkpoint does not match this run")

// CheckpointStep is one edge of the checkpointed path, in a form that is
// stable across processes: the transition's name plus the global trace
// position of the consumed input (-1 for spontaneous transitions and for
// synthesized inputs, which the Synthesized flag marks).
type CheckpointStep struct {
	Trans       string
	EventSeq    int
	Synthesized bool
}

// CheckpointState is the serializable progress of one static-trace analysis:
// everything needed to rebuild the deepest verified node in a fresh process
// and to refuse to do so when anything does not line up.
type CheckpointState struct {
	// SpecDigest and TraceDigest bind the checkpoint to one specification and
	// one trace; ResumeTrace rejects a mismatch with ErrCheckpointMismatch.
	SpecDigest  string
	TraceDigest string

	// InitialState is the FSM state the search ran from (differs from the
	// spec default under InitialStateSearch).
	InitialState int

	// Steps is the verified path, root-first.
	Steps []CheckpointStep

	// Queue cursors of the checkpointed node, for replay validation.
	InCur, OutCur, Synth []int

	// Fingerprint is the analyzer's state+cursor fingerprint of the node;
	// VMState is the vm.EncodeState serialization of its TAM state. Replay
	// must reproduce the former, and the latter must decode to a state with
	// the same vm fingerprint — a cross-check that catches codec bugs before
	// they can corrupt a verdict.
	Fingerprint string
	VMState     []byte

	// Verified counts the trace events the path explains; Nodes and TE record
	// the search effort spent when the checkpoint was taken (reporting only).
	Verified  int
	Nodes, TE int64
}

// SpecDigest fingerprints the analysis-relevant shape of a compiled
// specification: its name, states, interaction points, transitions and the
// full type table. Two processes that compile the same source agree on it.
func SpecDigest(spec *efsm.Spec) string {
	h := sha256.New()
	prog := spec.Prog
	fmt.Fprintf(h, "spec:%s\n", prog.Name)
	for _, s := range prog.States {
		fmt.Fprintf(h, "state:%s\n", s)
	}
	for _, ip := range prog.IPs {
		fmt.Fprintf(h, "ip:%s\n", ip.Name)
	}
	for _, ti := range prog.Trans {
		fmt.Fprintf(h, "trans:%s:%d:%d:%d\n", ti.Name, ti.Priority, ti.To, ti.WhenIPIndex)
	}
	fmt.Fprintf(h, "types:%x\n", vm.NewTypeTable(prog).Fingerprint())
	return hex.EncodeToString(h.Sum(nil))
}

// TraceDigest fingerprints a static trace's rendered events.
func TraceDigest(tr *trace.Trace) string {
	h := sha256.New()
	for _, ev := range tr.Events {
		fmt.Fprintf(h, "%d:%s\n", ev.Seq, ev.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LastCheckpoint returns the most recently captured checkpoint of this
// analyzer, or nil when none has been taken (checkpointing disabled, or the
// search has not reached a capturable point yet). The returned value is not
// mutated by further search work.
func (a *Analyzer) LastCheckpoint() *CheckpointState { return a.lastCkpt }

// maybeCheckpoint captures the search's best node, whose state snapshot is
// st, when CheckpointEvery has passed since the last capture (or since the
// run started), or when force is set: the search stops on its budget or its
// context, so a SIGTERM checkpoint verifies the stop's whole prefix. st is
// nil when checkpoints are off or the run is on-line. A capture that fails
// to encode is dropped, and the next one retries.
func (a *Analyzer) maybeCheckpoint(initState int, best *node, st *vm.State, force bool) {
	if st == nil {
		return
	}
	now := time.Now()
	if !force && now.Sub(a.lastCkptAt) < a.opts.CheckpointEvery {
		return
	}
	ck := a.captureCheckpoint(initState, best, st)
	if ck == nil {
		return
	}
	a.lastCkptAt = now
	a.lastCkpt = ck
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.KindCheckpoint, Depth: len(ck.Steps), N: int64(ck.Verified)})
	}
	if a.opts.OnCheckpoint != nil {
		a.opts.OnCheckpoint(ck)
	}
}

// captureCheckpoint serializes node n, whose state st the caller may read,
// with the search effort spent so far. It returns nil when the state cannot
// be encoded.
func (a *Analyzer) captureCheckpoint(initState int, n *node, st *vm.State) *CheckpointState {
	if a.typeTable == nil {
		a.typeTable = vm.NewTypeTable(a.spec.Prog)
	}
	enc, err := vm.EncodeState(st, a.typeTable)
	if err != nil {
		return nil
	}
	if a.specDigestCache == "" {
		a.specDigestCache = SpecDigest(a.spec)
	}
	ck := &CheckpointState{
		SpecDigest:   a.specDigestCache,
		TraceDigest:  a.traceDigest,
		InitialState: initState,
		InCur:        append([]int(nil), n.inCur...),
		OutCur:       append([]int(nil), n.outCur...),
		Synth:        append([]int(nil), n.synth...),
		Fingerprint:  a.fingerprintState(st, n),
		VMState:      enc,
		Verified:     a.explained(n),
		Nodes:        a.stats.Nodes,
		TE:           a.stats.TE,
	}
	for _, s := range pathTo(n) {
		ck.Steps = append(ck.Steps, CheckpointStep{
			Trans:       s.Trans.Name,
			EventSeq:    s.EventSeq,
			Synthesized: s.Synthesized,
		})
	}
	return ck
}

// ResumeTrace analyzes tr starting from a checkpoint taken by an earlier run
// over the same specification and trace. It returns the analysis result, a
// flag reporting whether the checkpoint actually short-circuited the search
// (false means a full fresh analysis ran, e.g. because the restored subtree
// was conclusively not accepting), and an error only for mismatched
// checkpoints or malformed inputs. The verdict always equals what an
// uninterrupted run would produce.
//
// The checkpointed path is a hint, not a promise: the node captured at
// interruption time may sit on a branch the search would later abandon (a
// dead frontier step), in which case the subtree below it contains no
// accepting run even though the trace is valid. Before giving up and running
// a full fresh search, resume therefore retries from progressively shorter
// replay prefixes — dropping the frontier step, then half the path — because
// an ancestor's subtree includes the sibling branches the frontier step
// excluded. A prefix replay is verified step by step against the trace, so a
// Valid verdict from any prefix is as sound as one from the full path.
func (a *Analyzer) ResumeTrace(ctx context.Context, tr *trace.Trace, ck *CheckpointState) (*Result, bool, error) {
	if ck.SpecDigest != SpecDigest(a.spec) {
		return nil, false, fmt.Errorf("%w: specification digest differs", ErrCheckpointMismatch)
	}
	if ck.TraceDigest != TraceDigest(tr) {
		return nil, false, fmt.Errorf("%w: trace digest differs", ErrCheckpointMismatch)
	}
	// Partial mode executes forked; its paths are not replayable step lists.
	// The fallback below still yields the right verdict.
	if !a.opts.Partial && len(ck.Steps) > 0 {
		for _, cut := range resumePrefixes(len(ck.Steps)) {
			res, ok, trusted := a.tryResume(ctx, tr, ck, cut)
			if ok {
				return res, true, nil
			}
			if !trusted {
				// The replay itself diverged (corrupt or stale checkpoint) or
				// the search was interrupted: shorter prefixes of the same
				// data deserve no more trust, so go straight to the fallback.
				break
			}
		}
	}
	res, err := a.AnalyzeTraceContext(ctx, tr)
	return res, false, err
}

// resumePrefixes lists the replay lengths to attempt, longest first: the full
// path, the path without its frontier step, then half the path.
func resumePrefixes(n int) []int {
	cuts := []int{n}
	for _, c := range []int{n - 1, n / 2} {
		if c > 0 && c != cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// tryResume replays the first cut checkpointed steps and searches the subtree
// below the restored node. ok=false means the result must be discarded;
// trusted=false additionally means the checkpoint data itself failed
// verification and further prefix attempts are pointless.
func (a *Analyzer) tryResume(ctx context.Context, tr *trace.Trace, ck *CheckpointState, cut int) (res *Result, ok, trusted bool) {
	a.dynamic = false
	a.reset(tr.Len())
	a.eofSeen = true
	if err := a.ingest(tr.Events); err != nil {
		return nil, false, false
	}
	defer a.finishRun(time.Now(), &res)
	restored, err := a.replay(ck, cut)
	if err != nil {
		return nil, false, false
	}
	if a.tracer != nil {
		a.tracer.Event(obs.Event{Kind: obs.KindResume, Depth: restored.depth, N: int64(ck.Verified)})
	}
	res, err = a.search(ctx, nil, ck.InitialState, restored)
	if err != nil {
		return nil, false, false
	}
	switch res.Verdict {
	case Valid:
		return res, true, true
	case Partial:
		// The resumed search itself was interrupted; its partial verdict is
		// honest (and a new checkpoint reflects the combined progress).
		return res, true, true
	default:
		// Invalid/Exhausted below the restored node proves nothing about
		// branches that diverge higher up.
		return nil, false, true
	}
}

// replay re-executes the first cut steps of the checkpointed path on a fresh
// root, verifying every transition's outputs against the trace; a full-path
// replay (cut == len(ck.Steps)) additionally checks the final state against
// the checkpoint's fingerprints and serialized VM state. Any divergence is an
// error (wrapped in ErrCheckpointMismatch); success returns the restored node
// with its full parent chain, ready to be searched.
func (a *Analyzer) replay(ck *CheckpointState, cut int) (*node, error) {
	root, err := a.makeRoot(ck.InitialState)
	if err != nil {
		return nil, err
	}
	seqIdx := make(map[int]int, len(a.events))
	for i := range a.events {
		seqIdx[a.events[i].Seq] = i
	}
	byName := make(map[string]*sema.TransInfo, len(a.spec.Prog.Trans))
	for _, ti := range a.spec.Prog.Trans {
		byName[ti.Name] = ti
	}

	cur := root
	st := root.live
	for _, s := range ck.Steps[:cut] {
		ti := byName[s.Trans]
		if ti == nil {
			return nil, fmt.Errorf("%w: unknown transition %q", ErrCheckpointMismatch, s.Trans)
		}
		c := candidate{ti: ti, eventIdx: evSpontaneous}
		switch {
		case s.Synthesized:
			if ti.WhenInter == nil {
				return nil, fmt.Errorf("%w: synthesized step on spontaneous transition %q", ErrCheckpointMismatch, s.Trans)
			}
			c.eventIdx = evSynthesized
			c.params = make([]vm.Value, len(ti.WhenInter.Params))
			for i, ip := range ti.WhenInter.Params {
				c.params[i] = vm.UndefValue(ip.Type)
			}
		case s.EventSeq >= 0:
			i, found := seqIdx[s.EventSeq]
			if !found {
				return nil, fmt.Errorf("%w: no trace event at position %d", ErrCheckpointMismatch, s.EventSeq)
			}
			ev := &a.events[i]
			if ev.Dir != trace.In || ev.Inter != ti.WhenInter {
				return nil, fmt.Errorf("%w: event %d does not feed transition %q", ErrCheckpointMismatch, s.EventSeq, s.Trans)
			}
			c.eventIdx = i
			c.params = ev.Params
		}
		a.stats.TE++
		outs, err := a.exec.Execute(st, ti, a.paramsFor(c.params))
		if err != nil {
			return nil, fmt.Errorf("%w: replaying %q: %v", ErrCheckpointMismatch, ti.Name, err)
		}
		next := a.newNode(cur)
		next.via = Step{Trans: ti, EventSeq: s.EventSeq, Synthesized: s.Synthesized}
		next.live = st
		a.setCursors(next, c)
		if a.matchOutputsWith(outs, next.inCur, next.outCur) != matchOK {
			return nil, fmt.Errorf("%w: outputs diverge replaying %q", ErrCheckpointMismatch, ti.Name)
		}
		cur = next
		a.stats.Nodes++
	}

	if cut < len(ck.Steps) {
		// A shortened replay cannot match the checkpoint's end-of-path
		// fingerprints; the per-step output verification above is what keeps
		// it sound.
		return cur, nil
	}
	if !equalInts(cur.inCur, ck.InCur) || !equalInts(cur.outCur, ck.OutCur) || !equalInts(cur.synth, ck.Synth) {
		return nil, fmt.Errorf("%w: queue cursors diverge after replay", ErrCheckpointMismatch)
	}
	if got := a.fingerprintState(st, cur); got != ck.Fingerprint {
		return nil, fmt.Errorf("%w: state fingerprint diverges after replay", ErrCheckpointMismatch)
	}
	// Codec cross-check: the serialized state must decode to the same TAM
	// state the replay reached. A failure here is a serializer bug surfacing
	// as a refused resume instead of a wrong verdict.
	if a.typeTable == nil {
		a.typeTable = vm.NewTypeTable(a.spec.Prog)
	}
	dec, err := vm.DecodeState(ck.VMState, a.typeTable)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
	}
	if dec.Fingerprint() != st.Fingerprint() {
		return nil, fmt.Errorf("%w: serialized state diverges from replayed state", ErrCheckpointMismatch)
	}
	return cur, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Session-level plumbing: tango.ckpt/1 files

// Checkpoint writes the session's latest captured progress to a tango.ckpt/1
// snapshot file (atomically: temp file + rename). It fails when no checkpoint
// has been captured yet — enable Options.CheckpointEvery first.
func (s *Session) Checkpoint(path string) error {
	ck := s.an.LastCheckpoint()
	if ck == nil {
		return errors.New("analysis: no checkpoint captured yet")
	}
	return checkpoint.WriteSnapshot(path, checkpoint.KindAnalysis, ck)
}

// ResumeFrom reads a tango.ckpt/1 snapshot and analyzes tr from it (see
// Analyzer.ResumeTrace for the exact semantics). The returned flag reports
// whether the checkpoint was actually used; corruption surfaces as
// checkpoint.ErrCorruptCheckpoint and a wrong-workload checkpoint as
// ErrCheckpointMismatch, so callers can fall back to a fresh Analyze.
func (s *Session) ResumeFrom(ctx context.Context, path string, tr *trace.Trace) (*Result, bool, error) {
	var ck CheckpointState
	if err := checkpoint.ReadSnapshot(path, checkpoint.KindAnalysis, &ck); err != nil {
		return nil, false, err
	}
	return s.an.ResumeTrace(ctx, tr, &ck)
}
