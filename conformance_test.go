// Conformance tests over the golden trace corpus (testdata/corpus): every
// spec's manifest is replayed through BOTH analysis paths — the plain
// single-trace analyzer and the parallel batch engine — and the two must
// agree with each other and with the manifest's expected verdicts. A second
// test pins the batch engine's determinism contract: the normalized
// tango.batch/1 report is byte-identical whatever the worker count or
// dispatch order.
//
// Regenerate the corpus with: go run testdata/corpus/gen.go
package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/efsm"
	"repro/internal/obs"
	"repro/specs"
)

// corpusSpecs lists the specs with a golden corpus directory.
var corpusSpecs = []string{"abp", "ack", "demux", "echo", "ip3", "ip3prime", "lapd", "tp0"}

func corpusManifest(t *testing.T, spec string) string {
	t.Helper()
	p := filepath.Join("testdata", "corpus", spec, "manifest.txt")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("missing corpus manifest (regenerate with `go run testdata/corpus/gen.go`): %v", err)
	}
	return p
}

func TestCorpusConformance(t *testing.T) {
	for _, name := range corpusSpecs {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := efsm.Compile(name, specs.All()[name])
			if err != nil {
				t.Fatal(err)
			}
			items, err := batch.Collect([]string{corpusManifest(t, name)})
			if err != nil {
				t.Fatal(err)
			}
			if len(items) < 4 {
				t.Fatalf("suspiciously small corpus: %d items", len(items))
			}
			opts := analysis.Options{Order: analysis.OrderFull}

			// Batch path.
			res, err := batch.Run(context.Background(), spec, items, batch.Options{
				Workers: 4, Analysis: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ExitCode != batch.ClassOK {
				t.Errorf("batch exit code %d, want 0 (all expectations should match)", res.ExitCode)
			}

			// Single-trace path, and agreement between the two.
			sess, err := analysis.NewSession(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, it := range items {
				single, err := sess.AnalyzeFile(context.Background(), it.Path)
				if err != nil {
					t.Fatalf("%s: single-trace path: %v", it.Name, err)
				}
				br := res.Items[i]
				if br.Err != nil {
					t.Fatalf("%s: batch path: %v", it.Name, br.Err)
				}
				if br.Res.Verdict != single.Verdict {
					t.Errorf("%s: batch verdict %v != single verdict %v",
						it.Name, br.Res.Verdict, single.Verdict)
				}
				wantValid := it.Expect == batch.ExpectValid
				gotValid := single.Verdict == analysis.Valid
				if gotValid != wantValid {
					t.Errorf("%s: verdict %v, manifest expects %s", it.Name, single.Verdict, it.Expect)
				}
				if br.Match == nil || !*br.Match {
					t.Errorf("%s: batch expectation check failed (match=%v)", it.Name, br.Match)
				}
			}
		})
	}
}

// TestBatchReportDeterminism runs every corpus at -j 1, -j 8, shuffled
// dispatch orders and with the supervision limits of `tango batch -supervise
// -job-timeout 1m`, under several option sets: the normalized reports,
// search counters and flight tails included, must be byte-identical. Each
// worker's Session reuses its analyzer, and so its trace and search-node
// storage, across a different sequence of traces in every run.
func TestBatchReportDeterminism(t *testing.T) {
	optionSets := []struct {
		name, order string
		opts        analysis.Options
	}{
		{"full", "FULL", analysis.Options{Order: analysis.OrderFull}},
		{"nr-memo", "NR", analysis.Options{Order: analysis.OrderNone, Memo: true}},
		{"full-hash-memo-paranoid", "FULL", analysis.Options{Order: analysis.OrderFull,
			StateHashing: true, Memo: true, CollisionCheck: true}},
		{"full-flight", "FULL", analysis.Options{Order: analysis.OrderFull, FlightRecorder: 64}},
	}
	for _, name := range corpusSpecs {
		spec, err := efsm.Compile(name, specs.All()[name])
		if err != nil {
			t.Fatal(err)
		}
		items, err := batch.Collect([]string{corpusManifest(t, name)})
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range optionSets {
			aopts := set.opts
			var baseline []byte
			for i, o := range []batch.Options{
				{Workers: 1, Analysis: aopts},
				{Workers: 8, Analysis: aopts},
				{Workers: 8, Analysis: aopts, Shuffle: true, Seed: 1},
				{Workers: 2, Analysis: aopts, Shuffle: true, Seed: 99},
				{Workers: 8, Analysis: aopts, MaxAttempts: 3, BreakerKills: 3, JobTimeout: time.Minute},
			} {
				res, err := batch.Run(context.Background(), spec, items, o)
				if err != nil {
					t.Fatal(err)
				}
				rep := batch.BuildReport("specs/"+name+".estelle", set.order, spec, o, res)
				rep.Normalize()
				var buf []byte
				if buf, err = json.MarshalIndent(rep, "", "  "); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					baseline = buf
					if rep.Schema != obs.BatchSchema {
						t.Fatalf("schema %q", rep.Schema)
					}
					continue
				}
				if string(buf) != string(baseline) {
					t.Errorf("%s/%s run %d: normalized report differs from -j 1 baseline:\n%s\n---\n%s",
						name, set.name, i, buf, baseline)
				}
			}
		}
	}
}
