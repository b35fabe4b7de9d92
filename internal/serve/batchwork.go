package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/buildinfo"
	"repro/internal/checkpoint"
	"repro/internal/efsm"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runBatchRows executes a batch's traces sequentially, reusing rows already
// finished by a previous daemon generation (prior, keyed by index) verbatim —
// the exactly-once half of the handoff contract: a row that made it into the
// journal is never analyzed again. onRow observes each *newly computed* row
// with a flag marking a breaker stop (the journaling hook); prior rows were
// journaled by whoever computed them. stopAt, when >= 0, is a journaled
// breaker stop from the interrupted run: recovery replays up to and including
// that row and stops there, reproducing the early stop instead of analyzing
// the tail with a fresh panic counter (which would yield a longer report than
// the uninterrupted daemon's). Pass -1 for live batches.
//
// The row semantics are identical for live and recovered batches on purpose:
// bad traces become ClassBadTrace rows, a contained panic reports its row and
// continues on a fresh session, and a breaker trip mid-batch stops feeding
// the quarantined spec. The only error return is a failed session rebuild.
func (s *Server) runBatchRows(ctx context.Context, entry *specEntry, spec *efsm.Spec,
	aopts analysis.Options, traces []batchTrace, prior map[int]obs.BatchItem, stopAt int,
	onRow func(i int, row obs.BatchItem, stopped bool)) ([]obs.BatchItem, error) {

	var hook func(batch.Item)
	if s.opts.FaultHook != nil {
		hook = func(batch.Item) { s.opts.FaultHook(entry.digest) }
	}
	sess, err := analysis.NewSession(spec, aopts)
	if err != nil {
		return nil, err
	}
	items := make([]obs.BatchItem, 0, len(traces))
	for i, bt := range traces {
		if row, done := prior[i]; done {
			items = append(items, row)
			if i == stopAt {
				break // the interrupted run stopped here; so do we
			}
			continue
		}
		name := bt.Name
		if name == "" {
			name = fmt.Sprintf("trace[%d]", i)
		}
		it := batch.Item{Name: name, Expect: bt.Expect}
		var row obs.BatchItem
		stop := false
		if tr, terr := trace.ReadString(bt.Trace); terr != nil {
			row = obs.BatchItem{Trace: name, ExitClass: batch.ClassBadTrace, Error: terr.Error()}
		} else {
			it.Trace = tr
			ir := batch.AnalyzeItem(ctx, sess, it, hook)
			if ir.Panicked {
				// Contain, report the row, and continue on a fresh session:
				// one poisoned trace must not void its batch siblings.
				s.notePanic(entry, "batch item "+name, ir.Err)
				if sess, err = analysis.NewSession(spec, aopts); err != nil {
					return nil, err
				}
				if entry.quarantined(s.opts.BreakerPanics) {
					row = batch.ReportItem(&ir)
					row.Quarantined = true
					stop = true // breaker tripped mid-batch: stop feeding it
				}
			}
			if !stop {
				row = batch.ReportItem(&ir)
			}
		}
		items = append(items, row)
		if onRow != nil {
			onRow(i, row, stop)
		}
		if stop || i == stopAt {
			break
		}
	}
	return items, nil
}

// persistBatch writes the normalized report file and marks the batch done in
// the journal. Store faults degrade durability, never availability: the live
// client still gets its response, the error goes to the log and a counter.
func (s *Server) persistBatch(id string, resp batchResponse) {
	if s.store == nil || id == "" {
		return
	}
	// The stored report clears every timing- and scheduling-dependent field,
	// so it is byte-identical whether one daemon ran the batch start to
	// finish or a successor replayed the tail after a SIGKILL.
	norm := resp
	norm.ElapsedUS = 0
	norm.Items = append([]obs.BatchItem(nil), resp.Items...)
	for i := range norm.Items {
		norm.Items[i].Normalize()
	}
	data, err := json.MarshalIndent(norm, "", "  ")
	if err == nil {
		data = append(data, '\n')
		err = s.store.PutReport(id, data)
	}
	if err != nil {
		s.storeError("report "+id, err)
		return
	}
	if err := s.log.Load().Done(id); err != nil {
		s.storeError("journal done "+id, err)
	}
}

// storeError logs one failed durable write and counts it.
func (s *Server) storeError(what string, err error) {
	s.reg.Counter("serve.store_errors").Inc()
	fmt.Fprintf(s.opts.Log, "serve: store: %s: %v\n", what, err)
}

// resolveRecoveredSpec resolves a journaled batch's spec for replay: the warm
// cache first, the durable store second. No HTTP in sight — recovery runs
// before the server is ready.
func (s *Server) resolveRecoveredSpec(digest string) (*specEntry, *efsm.Spec, error) {
	entry := s.cache.lookup(digest)
	if entry == nil {
		name, source, err := s.store.GetSpec(digest)
		if err != nil {
			return nil, nil, fmt.Errorf("spec %s not in store: %w", digest, err)
		}
		entry, _ = s.cache.get(name, source)
	}
	spec, err := s.cache.wait(context.Background(), entry)
	if err != nil {
		return nil, nil, fmt.Errorf("spec %s: compile: %w", digest, err)
	}
	return entry, spec, nil
}

// recoverBatch finishes one unfinished journaled batch on boot: rows already
// journaled are kept verbatim, missing rows are analyzed under the *recorded*
// limits (the ones the client was admitted with — replaying under the
// successor's load would change verdicts), and the normalized report is
// written exactly as the uninterrupted run would have written it.
//
// An unrecoverable batch (spec gone from the store, malformed record) is
// abandoned with a done mark: crash-only boot must converge, not retry a
// poisoned batch on every restart forever.
func (s *Server) recoverBatch(b *checkpoint.LoggedBatch[workBatchRec]) {
	rec := b.Admission
	log := s.log.Load()
	abandon := func(why string, err error) {
		s.reg.Counter("serve.recover_abandoned").Inc()
		fmt.Fprintf(s.opts.Log, "serve: recover: batch %s abandoned (%s): %v\n", rec.ID, why, err)
		if aerr := log.Done(rec.ID); aerr != nil {
			s.storeError("journal done "+rec.ID, aerr)
		}
	}
	entry, spec, err := s.resolveRecoveredSpec(rec.SpecDigest)
	if err != nil {
		abandon("spec", err)
		return
	}
	order, err := parseOrder(rec.Order)
	if err != nil {
		abandon("order", err)
		return
	}
	lim := reqLimits{Budget: rec.Budget, Deadline: time.Duration(rec.DeadlineMS) * time.Millisecond,
		Degraded: rec.Degraded}
	ctx, cancel := context.WithTimeout(context.Background(), lim.Deadline)
	defer cancel()
	aopts := analysisOptions(order, rec.DisabledIPs, rec.UnobservedIPs,
		false, rec.Hash, rec.Memo, lim, s.opts.Limits.MaxHeapCells)

	items, err := s.runBatchRows(ctx, entry, spec, aopts, rec.Traces, b.Rows, b.StopAt, s.journalRow(log, rec.ID))
	if err != nil {
		abandon("session", err)
		return
	}
	resp := batchResponse{
		Schema: Schema, Version: buildinfo.Version,
		BatchID: rec.ID, SpecDigest: rec.SpecDigest,
		Degraded: rec.Degraded, Budget: rec.Budget, DeadlineMS: rec.DeadlineMS,
		Items: items,
	}
	resp.Counts, resp.ExitClass = batch.AggregateRows(items)
	s.persistBatch(rec.ID, resp)
	s.reg.Counter("serve.recovered_batches").Inc()
	fmt.Fprintf(s.opts.Log, "serve: recover: batch %s finished (%d rows, %d replayed)\n",
		rec.ID, len(items), len(b.Rows))
}

// journalRow returns the runBatchRows hook that journals each newly computed
// row of batch id, plus a stop record when the panic breaker stopped the
// batch there, so a successor recovering the batch reproduces the early stop.
func (s *Server) journalRow(log *checkpoint.BatchLog, id string) func(int, obs.BatchItem, bool) {
	return func(i int, row obs.BatchItem, stopped bool) {
		if err := log.Row(id, i, row); err != nil {
			s.storeError("journal row "+id, err)
		}
		if stopped {
			if err := log.Stop(id, i); err != nil {
				s.storeError("journal stop "+id, err)
			}
		}
	}
}
