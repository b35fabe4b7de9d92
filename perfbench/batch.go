package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/efsm"
	"repro/internal/trace"
)

// batchCorpus runs `tango batch` with its defaults (FULL order, memo off,
// flight recorder 64) and two pool workers over on-disk trace files, one
// batch.Run per op, each over a fixed slice of one spec's files. It
// exercises what analyze-deep bypasses: trace reading, the pool, guard
// evaluation on a wide spec and linear search of long valid traces.
type batchCorpus struct {
	seed   int64
	ss     *specSet
	slices []*corpusSlice
	specs  map[string]*efsm.Spec
	order  []int
}

type corpusSlice struct {
	label, spec string
	items       []batch.Item
	want        []analysis.Verdict
	stats       []counts // recorded by the warm-up pass
}

var batchOptions = batch.Options{
	Workers:  2,
	Analysis: analysis.Options{Order: analysis.OrderFull, FlightRecorder: 64},
}

// corpusShape sizes one spec's traces. base is the mean valid-trace size at
// scale 1, chosen so a slice costs about the same on every spec; mutants are
// edits of a full-size trace, or of a mutLo..mutHi one (see sizedTrace).
type corpusShape struct {
	spec         string
	base         int
	mutLo, mutHi int
}

var corpusShapes = []corpusShape{
	{spec: "echo", base: 640},
	{spec: "tp0", base: 210, mutLo: 5, mutHi: 8},
	{spec: "lapd", base: 360},
	{spec: "lapd-cnet", base: 20},
}

// Each slice holds corpusValid valid traces and corpusInvalid mutants; each
// spec has slicesPerSpec slices.
const corpusValid, corpusInvalid, slicesPerSpec = 6, 2, 6

func (w *batchCorpus) prepare(dir string) error {
	ss, err := writeSpecs(dir, allSpecs)
	if err != nil {
		return err
	}
	w.ss = ss
	rng := rand.New(rand.NewSource(w.seed))
	// The slices of all specs sit on one even ladder of scales, so op times
	// spread evenly and no latency quantile falls between two clusters.
	scales := ladder(slicesPerSpec*len(corpusShapes), 0.6, 1.6)
	var jobs []refJob
	for p, sh := range corpusShapes {
		ref := ss.ref[sh.spec]
		for si := 0; si < slicesPerSpec; si++ {
			sl := &corpusSlice{label: fmt.Sprintf("%s-s%d", sh.spec, si), spec: sh.spec}
			mean := scales[si*len(corpusShapes)+p] * float64(sh.base)
			sizes := split(rng, mean, corpusValid)
			for i := 0; i < corpusInvalid; i++ {
				sizes = append(sizes, int(mean))
			}
			sl.want = make([]analysis.Verdict, len(sizes))
			for i, size := range sizes {
				tr, err := sizedTrace(rng, sh.spec, ref, size, i >= corpusValid, sh.mutLo, sh.mutHi)
				if err != nil {
					return fmt.Errorf("%s: %w", sl.label, err)
				}
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.trace", sl.label, i))
				if err := writeTrace(path, tr); err != nil {
					return err
				}
				sl.items = append(sl.items, batch.Item{Name: filepath.Base(path), Path: path})
				jobs = append(jobs, refJob{ref, tr, orderOf(batchOptions.Analysis.Order), &sl.want[i]})
			}
			w.slices = append(w.slices, sl)
		}
	}
	w.order = cycle(rng, len(w.slices), 64)
	return references(jobs)
}

func (w *batchCorpus) setup(rec *recorder, parent int64) error {
	specs, err := w.ss.compile(rec, parent)
	w.specs = specs
	return err
}

func (w *batchCorpus) teardown() {}

func (w *batchCorpus) op(sl *corpusSlice, rec *recorder, id int64) (*batch.Result, error) {
	sp := rec.begin("batch.Run", 0, id)
	defer rec.end(sp)
	return batch.Run(context.Background(), w.specs[sl.spec], sl.items, batchOptions)
}

// check compares every item with its reference and, when stats is non-nil,
// with the counters the warm-up recorded.
func (sl *corpusSlice) check(res *batch.Result) bool {
	if len(res.Items) != len(sl.items) {
		return false
	}
	for i := range res.Items {
		it := &res.Items[i]
		if it.Err != nil || it.Res == nil || it.Skipped || it.Res.Verdict != sl.want[i] {
			return false
		}
		if sl.stats != nil && countsOf(it.Res.Stats.Report()) != sl.stats[i] {
			return false
		}
	}
	return true
}

func (w *batchCorpus) warmup() error {
	for _, sl := range w.slices {
		res, err := w.op(sl, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", sl.label, err)
		}
		if !sl.check(res) {
			return fmt.Errorf("%s: a verdict differs from its reference", sl.label)
		}
		sl.stats = make([]counts, len(res.Items))
		for i := range res.Items {
			sl.stats[i] = countsOf(res.Items[i].Res.Stats.Report())
		}
	}
	return nil
}

func (w *batchCorpus) measure(d time.Duration, rec *recorder) (*phase, error) {
	var ran []*corpusSlice
	ph, err := closedLoop(d, func(i int, ph *phase) (string, bool, error) {
		sl := w.slices[w.order[i%len(w.order)]]
		res, err := w.op(sl, rec, int64(i))
		if err != nil {
			return sl.label, false, fmt.Errorf("%s: %w", sl.label, err)
		}
		if rec != nil {
			ran = append(ran, sl)
			ph.acc.addBatch(sl.spec, res)
		}
		return sl.label, sl.check(res), nil
	})
	if err != nil || rec == nil {
		return ph, err
	}
	// trace.Read over each op's files, timed after the phase so it does not
	// perturb the op latencies.
	for i, sl := range ran {
		for _, it := range sl.items {
			if err := readSpan(rec, it.Path, int64(i)); err != nil {
				return nil, err
			}
		}
	}
	return ph, nil
}

func readSpan(rec *recorder, path string, op int64) error {
	sp := rec.begin("trace.Read", 0, op)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_, err = trace.Read(f)
	f.Close()
	rec.end(sp)
	return err
}

// addBatch folds one batch.Run result into the accumulator.
func (a *layerAcc) addBatch(spec string, res *batch.Result) {
	var busy time.Duration
	for i := range res.Items {
		it := &res.Items[i]
		busy += it.Elapsed
		a.itemMS = append(a.itemMS, ms(it.Elapsed))
		if it.Res != nil {
			a.addSearch(spec, it.Res.Stats.Report(), float64(it.Res.Stats.SearchTime), pathLen(it.Res))
		}
	}
	a.busy += busy
	a.capacity += res.Wall * time.Duration(res.Workers)
}

func (w *batchCorpus) layers(ph *phase, rec *recorder, m metrics) {
	searchLayers(ph, rec, m)
	m.set("batch.item_ms_p50", median(ph.acc.itemMS), "ms")
	m.set("batch.worker_busy_ratio", ratio(float64(ph.acc.busy), float64(ph.acc.capacity)), "ratio")
}

func (w *batchCorpus) facts() map[string]any {
	return map[string]any{
		"order": batchOptions.Analysis.Order.String(), "memo": false, "workers": batchOptions.Workers,
		"flight_recorder": batchOptions.Analysis.FlightRecorder, "slices": len(w.slices),
		"items_per_slice": len(w.slices[0].items),
	}
}

func (w *batchCorpus) close() {}
