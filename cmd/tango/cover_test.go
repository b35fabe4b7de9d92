package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/specs"
)

const ackValid = `
in A x
in A x
in A x
in B y
out A ack
`

const ackInvalid = `
in A x
in B y
out A ack
out A ack
`

func TestCoverCommand(t *testing.T) {
	spec := write(t, "ack.estelle", specs.Ack)
	t1 := write(t, "t1.trace", ackValid)
	t2 := write(t, "t2.trace", ackValid)
	out := filepath.Join(t.TempDir(), "cover.json")

	stdout, err := runCLI(t, "cover", "-report", out, "-heatmap", spec, t1, t2)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	for _, want := range []string{"cover: 2 traces", "coverage:", "hits", "│"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	rep, err := obs.ReadCoverReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traces != 2 || rep.SpecDigest == "" {
		t.Errorf("report header: traces=%d digest=%q", rep.Traces, rep.SpecDigest)
	}
	var hits int64
	for _, row := range rep.Transitions {
		hits += row.Hits
	}
	if hits == 0 {
		t.Error("no transition hits recorded")
	}
}

// TestCoverMergeCommand: per-trace reports from analyze -cover must merge to
// the same counts a corpus run produces — the sum==merged invariant at the
// CLI surface.
func TestCoverMergeCommand(t *testing.T) {
	spec := write(t, "ack.estelle", specs.Ack)
	tr := write(t, "t.trace", ackValid)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	merged := filepath.Join(dir, "m.json")

	for _, path := range []string{a, b} {
		if out, err := runCLI(t, "analyze", "-cover", path, spec, tr); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
	}
	out, err := runCLI(t, "cover", "-merge", merged, a, b)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "merged 2 reports (2 traces)") {
		t.Errorf("merge output: %s", out)
	}
	one, err := obs.ReadCoverReport(a)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ReadCoverReport(merged)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sum.Transitions {
		if sum.Transitions[i].Hits != 2*one.Transitions[i].Hits {
			t.Errorf("transition %q: merged %d, want 2*%d",
				sum.Transitions[i].Name, sum.Transitions[i].Hits, one.Transitions[i].Hits)
		}
	}
}

func TestBatchCoverFlag(t *testing.T) {
	spec := write(t, "ack.estelle", specs.Ack)
	t1 := write(t, "t1.trace", ackValid)
	t2 := write(t, "t2.trace", ackInvalid)
	out := filepath.Join(t.TempDir(), "cover.json")

	stdout, err := runCLI(t, "batch", "-cover", out, spec, t1, t2)
	if !errors.Is(err, errNotValid) {
		t.Fatalf("err = %v (one trace is invalid)\n%s", err, stdout)
	}
	if !strings.Contains(stdout, "coverage: ") {
		t.Errorf("no coverage summary line:\n%s", stdout)
	}
	rep, err := obs.ReadCoverReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traces != 2 {
		t.Errorf("traces = %d, want 2", rep.Traces)
	}
}

// TestBatchCoverSupervisedAndResume: -cover under -supervise or -checkpoint
// writes the same cover.json as a plain -cover run, and -cover -resume is
// refused, because restored rows carry no coverage counts.
func TestBatchCoverSupervisedAndResume(t *testing.T) {
	spec := write(t, "ack.estelle", specs.Ack)
	t1 := write(t, "t1.trace", ackValid)
	t2 := write(t, "t2.trace", ackInvalid)
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.json")
	if out, err := runCLI(t, "batch", "-cover", plain, spec, t1, t2); !errors.Is(err, errNotValid) {
		t.Fatalf("plain run: err = %v\n%s", err, out)
	}
	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		flags   []string
		refused bool
	}{
		{"supervise", []string{"-supervise"}, false},
		{"checkpoint", []string{"-checkpoint", filepath.Join(dir, "ck")}, false},
		{"resume", []string{"-resume", filepath.Join(dir, "ck")}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(dir, tc.name+".json")
			args := append(append([]string{"batch", "-cover", out}, tc.flags...), spec, t1, t2)
			stdout, err := runCLI(t, args...)
			if tc.refused {
				if err == nil || !strings.Contains(err.Error(), "-cover is not supported with -resume") {
					t.Fatalf("err = %v, want the -cover/-resume refusal", err)
				}
				return
			}
			if !errors.Is(err, errNotValid) {
				t.Fatalf("err = %v (one trace is invalid)\n%s", err, stdout)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("cover.json differs from the plain run's:\n%s\n---\n%s", got, want)
			}
		})
	}
}

func TestAnalyzeFlightFlag(t *testing.T) {
	spec := write(t, "ack.estelle", specs.Ack)
	tr := write(t, "bad.trace", ackInvalid)
	stdout, err := runCLI(t, "analyze", "-flight", "16", spec, tr)
	if !errors.Is(err, errNotValid) {
		t.Fatalf("err = %v\n%s", err, stdout)
	}
	if !strings.Contains(stdout, "flight recorder (last 16 events") {
		t.Errorf("no flight recorder dump:\n%s", stdout)
	}
	if !strings.Contains(stdout, "search_end") {
		t.Errorf("dump lacks the search_end event:\n%s", stdout)
	}

	// Valid trace: no dump even with the flag on.
	ok := write(t, "ok.trace", ackValid)
	stdout, err = runCLI(t, "analyze", "-flight", "16", spec, ok)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout, "flight recorder") {
		t.Errorf("valid run dumped the recorder:\n%s", stdout)
	}
}

// TestAnalyzeReportCarriesFlightAndCoverage: the tango.report/1 file embeds
// the flight tail and the coverage summary when both options are on.
func TestAnalyzeReportCarriesFlightAndCoverage(t *testing.T) {
	spec := write(t, "ack.estelle", specs.Ack)
	tr := write(t, "bad.trace", ackInvalid)
	dir := t.TempDir()
	repPath := filepath.Join(dir, "report.json")
	covPath := filepath.Join(dir, "cover.json")
	_, err := runCLI(t, "analyze", "-flight", "8", "-cover", covPath, "-report", repPath, spec, tr)
	if !errors.Is(err, errNotValid) {
		t.Fatalf("err = %v", err)
	}
	rep, err := obs.ReadReport(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flight) == 0 {
		t.Error("report has no flight tail")
	}
	if rep.Coverage == nil || rep.Coverage.TransTotal == 0 {
		t.Errorf("report has no coverage summary: %+v", rep.Coverage)
	}
}
