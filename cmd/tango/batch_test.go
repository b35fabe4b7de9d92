package main

import (
	"errors"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/specs"
)

var (
	itemTiming    = regexp.MustCompile(`\(TE=(\d+), [^)]*\)`)
	summaryTiming = regexp.MustCompile(`workers, [^:]*:`)
)

// stripTimings drops the wall times from batch output lines.
func stripTimings(out string) []string {
	out = itemTiming.ReplaceAllString(out, "(TE=$1)")
	return strings.Split(summaryTiming.ReplaceAllString(out, "workers:"), "\n")
}

// TestBatchPrinterOnePath: plain and -supervise runs print the same lines
// once timings are stripped, plain output carries none of the [resumed],
// [attempt N] and QUAR markers, and a resumed run marks exactly its restored
// rows.
func TestBatchPrinterOnePath(t *testing.T) {
	spec := write(t, "ack.estelle", specs.Ack)
	traces := []string{
		write(t, "valid.trace", ackValid),
		write(t, "invalid.trace", ackInvalid),
		write(t, "bad.trace", "in A nosuch\n"),
	}
	run := func(flags ...string) []string {
		t.Helper()
		args := append(append(append([]string{"batch", "-j", "2"}, flags...), spec), traces...)
		out, stderr, err := runCLI2(t, args...)
		var ce *codeError
		if !errors.As(err, &ce) {
			t.Fatalf("%v: err = %v, want the bad trace's exit\n%s%s", flags, err, out, stderr)
		}
		return stripTimings(out)
	}

	plain := run()
	if s := strings.Join(plain, "\n"); !strings.Contains(s, "first unexplained:") || !strings.Contains(s, "BAD") {
		t.Fatalf("corpus misses an invalid or a malformed trace:\n%s", s)
	}
	for _, line := range plain {
		for _, marker := range []string{"[resumed]", "[attempt", "QUAR"} {
			if strings.Contains(line, marker) {
				t.Fatalf("plain output carries %q: %q", marker, line)
			}
		}
	}
	if sup := run("-supervise"); strings.Join(sup, "\n") != strings.Join(plain, "\n") {
		t.Fatalf("-supervise output differs from plain:\n%s\n---\n%s", strings.Join(sup, "\n"), strings.Join(plain, "\n"))
	}

	// A resume of a finished checkpoint restores every row: each per-trace
	// line is the plain one marked [resumed], without the diagnosis line the
	// journal does not keep.
	ck := filepath.Join(t.TempDir(), "ck")
	run("-checkpoint", ck)
	resumed := run("-resume", ck)
	var want []string
	for _, line := range plain[:len(plain)-2] { // drop the summary line and the trailing ""
		if !strings.HasPrefix(line, " ") {
			want = append(want, line+" [resumed]")
		}
	}
	if got := resumed[:len(resumed)-2]; strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("resumed lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Requeued and quarantined jobs, which no fault-free CLI run produces.
	var sb strings.Builder
	printBatch(&sb, &batch.Result{Items: []batch.ItemResult{
		{Item: batch.Item{Name: "once"}, Err: errors.New("boom"), Class: batch.ClassError, Attempts: 1},
		{Item: batch.Item{Name: "twice"}, Err: errors.New("boom"), Class: batch.ClassError, Attempts: 2},
		{Item: batch.Item{Name: "poison"}, Err: errors.New("quarantined"), Class: batch.ClassError,
			Attempts: 3, Quarantined: true},
	}})
	lines := strings.Split(sb.String(), "\n")
	for i, want := range []string{
		"ERROR once                                     boom",
		"ERROR twice                                    boom [attempt 2]",
		"QUAR  poison                                   quarantined [attempt 3]",
	} {
		if lines[i] != want {
			t.Errorf("line %d = %q, want %q", i, lines[i], want)
		}
	}
}
