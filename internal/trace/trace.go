// Package trace defines the execution-trace format consumed and produced by
// Tango: a log of the interactions sent through the implementation's
// interaction points. Traces exist in two flavours (§3 of the paper): static
// traces, fully available before analysis starts, and dynamic traces, which
// grow while the implementation under test is executing and are read
// incrementally by the on-line analyzer.
//
// The textual format is line-oriented:
//
//	# comment
//	in  U  TCONreq  dst=5 quality=1
//	out N  CR       src=3
//	eof
//
// Direction is relative to the implementation under test: "in" events are
// inputs it consumed, "out" events are outputs it produced. The optional
// trailing "eof" marker is the forced-termination signal of §3.1.2: it tells
// an on-line analyzer that no further data will arrive on any queue.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// MaxLineBytes bounds one trace line: a line of MaxLineBytes raw bytes or
// more is rejected with a positioned ParseError.
const MaxLineBytes = 16 << 20

// Dir is the direction of an event relative to the IUT.
type Dir int

// Event directions.
const (
	In Dir = iota
	Out
)

// String returns "in" or "out".
func (d Dir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Param is one interaction parameter as recorded in the trace: a name and a
// textual value ("5", "true", "'a'", an enum member name, or "?" for an
// unobserved value).
type Param struct {
	Name  string
	Value string
}

// Event is one recorded interaction.
type Event struct {
	// Seq is the 0-based global position of the event in the trace.
	Seq int
	Dir Dir
	// IP is the interaction point name as recorded ("U", "N[2]", ...).
	IP          string
	Interaction string
	Params      []Param
	// Line is the 1-based source line, for diagnostics.
	Line int
}

// String renders the event in trace format.
func (e Event) String() string {
	var sb strings.Builder
	sb.WriteString(e.Dir.String())
	sb.WriteByte(' ')
	sb.WriteString(e.IP)
	sb.WriteByte(' ')
	sb.WriteString(e.Interaction)
	for _, p := range e.Params {
		sb.WriteByte(' ')
		sb.WriteString(p.Name)
		sb.WriteByte('=')
		sb.WriteString(p.Value)
	}
	return sb.String()
}

// Trace is a fully loaded (static) trace.
type Trace struct {
	Events []Event
	// EOF records whether the trace ended with an explicit eof marker.
	EOF bool
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Inputs counts events with direction In.
func (t *Trace) Inputs() int {
	n := 0
	for _, e := range t.Events {
		if e.Dir == In {
			n++
		}
	}
	return n
}

// Outputs counts events with direction Out.
func (t *Trace) Outputs() int { return len(t.Events) - t.Inputs() }

// ParseError is a trace syntax error.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("trace line %d: %s", e.Line, e.Msg) }

// ParseLine parses one trace line, returning (nil, false, nil) for blank and
// comment lines, and (nil, true, nil) for the eof marker. It is the line
// parser Read uses, so the on-line ReaderSource and the off-line Read accept
// the same lines with the same errors. The event it returns has a parameter
// array of its own.
func ParseLine(line string, lineno int) (*Event, bool, error) {
	var (
		ev     Event
		params []Param
	)
	kind, err := parseLine(line, lineno, &ev, &params)
	if err != nil || kind != lineEvent {
		return nil, kind == lineEOF, err
	}
	return &ev, false, nil
}

type lineKind uint8

const (
	lineBlank lineKind = iota // blank or comment
	lineEOF
	lineEvent
)

// parseLine parses one line in place: the fields of the event are
// substrings of line, and its parameters are appended to *params, ev.Params
// being the full-slice-expression sub-slice they occupy (cap == len; nil
// when the event has none). Whitespace is unicode.IsSpace, as in
// strings.Fields.
func parseLine(line string, lineno int, ev *Event, params *[]Param) (lineKind, error) {
	first, rest := nextField(line)
	if first == "" || first[0] == '#' {
		return lineBlank, nil
	}
	if strings.EqualFold(first, "eof") {
		return lineEOF, nil
	}
	ip, rest := nextField(rest)
	inter, rest := nextField(rest)
	if inter == "" {
		return lineBlank, &ParseError{lineno, "expected: in|out IP INTERACTION [name=value ...]"}
	}
	// ToLower allocates only for a direction spelled with capitals.
	switch strings.ToLower(first) {
	case "in":
		ev.Dir = In
	case "out":
		ev.Dir = Out
	default:
		return lineBlank, &ParseError{lineno, fmt.Sprintf("unknown direction %q", first)}
	}
	ev.IP, ev.Interaction, ev.Line = ip, inter, lineno
	start := len(*params)
	for f, rest := nextField(rest); f != ""; f, rest = nextField(rest) {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return lineBlank, &ParseError{lineno, fmt.Sprintf("malformed parameter %q (want name=value)", f)}
		}
		*params = append(*params, Param{Name: f[:eq], Value: f[eq+1:]})
	}
	if end := len(*params); end > start {
		ev.Params = (*params)[start:end:end]
	}
	return lineEvent, nil
}

// nextField splits off the first whitespace-separated field of s, returning
// it and the text after it; the field is empty when s holds none.
func nextField(s string) (field, rest string) {
	i := skipSpace(s, true)
	j := i + skipSpace(s[i:], false)
	return s[i:j], s[j:]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as white space.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// skipSpace returns the length of the longest prefix of s whose runes are
// all white space (space true) or all not (space false).
func skipSpace(s string, space bool) int {
	i := 0
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			if (asciiSpace[c] != 0) != space {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += size
	}
	return i
}

// Read loads a complete static trace. It reads r to its end once into one
// string, sized from the file length when r is a regular file, and parses
// that as ReadString does, so all events of the trace share that string and a
// caller that keeps one Event keeps the whole text. When r fails, the text
// read before the failure is parsed first: a malformed line in it is
// reported instead of the read error.
func Read(r io.Reader) (*Trace, error) {
	text, rerr := readInput(r)
	t, err := ReadString(text)
	if err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	return t, nil
}

// readInput reads r until io.EOF or an error, with bufio.Scanner's guards
// against a reader that returns an impossible count or makes no progress. It
// reads through a scratch buffer of at most 4 KiB into a strings.Builder,
// grown to the file size when r is a regular file, so the text is allocated
// once and String does not copy it.
func readInput(r io.Reader) (string, error) {
	var sb strings.Builder
	chunk := 4 << 10
	if f, ok := r.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() && int64(int(fi.Size())) == fi.Size() {
			sb.Grow(int(fi.Size()))
			chunk = min(chunk, int(fi.Size())+1) // +1: an empty file still gets a read that can see io.EOF
		}
	}
	buf := make([]byte, chunk)
	for empty := 0; empty <= 100; {
		n, err := r.Read(buf)
		if n < 0 || n > len(buf) {
			return sb.String(), bufio.ErrBadReadCount
		}
		sb.Write(buf[:n])
		if err == io.EOF {
			return sb.String(), nil
		}
		if err != nil {
			return sb.String(), err
		}
		if n > 0 {
			empty = 0
		} else {
			empty++
		}
	}
	return sb.String(), io.ErrNoProgress
}

// ReadString loads a static trace from a string, parsing it in place: every
// IP, interaction, parameter name and value of the trace is a substring of s,
// so all its events share s as their backing store, and a caller that keeps
// one Event keeps the whole text. A counting pass sizes Events and one
// parameter array shared by all events (each event's Params is its own
// full-slice-expression window of it, cap == len); parsing then appends to
// both without growing them.
//
// A line is the text before a '\n' (or the end of s). One of MaxLineBytes
// bytes or more, a '\r' before the '\n' included, is a ParseError; so are
// malformed lines and events after the eof marker. The first error in line
// order is the one reported.
func ReadString(s string) (*Trace, error) {
	nEvents, nParams := countEvents(s)
	events := make([]Event, 0, nEvents)
	params := make([]Param, 0, nParams)
	eof := false
	for lineno := 1; s != ""; lineno++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		if len(line) >= MaxLineBytes {
			return nil, &ParseError{lineno, fmt.Sprintf("line too long (over %d bytes)", MaxLineBytes)}
		}
		var ev Event
		kind, err := parseLine(line, lineno, &ev, &params)
		switch {
		case err != nil:
			return nil, err
		case kind == lineEOF:
			eof = true
		case kind == lineEvent && eof:
			return nil, &ParseError{lineno, "event after eof marker"}
		case kind == lineEvent:
			ev.Seq = len(events)
			events = append(events, ev)
		}
	}
	t := &Trace{EOF: eof}
	if len(events) > 0 {
		t.Events = events
	}
	return t, nil
}

// countEvents bounds the events and parameters of a trace text from above,
// so ReadString allocates both arrays once. A line can hold an event only if
// it is neither blank nor a comment and has at least six bytes ("in A x"); it
// holds at most one parameter per '=' and per three bytes beyond those six
// (" a="). Blank lines, comments and short junk therefore reserve nothing,
// and no text reserves more than a valid trace of its length would use.
func countEvents(s string) (events, params int) {
	for s != "" {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		i := skipSpace(line, true)
		if len(line) < 6 || i == len(line) || line[i] == '#' {
			continue
		}
		events++
		params += min(strings.Count(line, "="), (len(line)-6)/3)
	}
	return events, params
}

// Write renders the trace (including the eof marker if set).
func Write(w io.Writer, t *Trace) error {
	for _, e := range t.Events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	if t.EOF {
		if _, err := fmt.Fprintln(w, "eof"); err != nil {
			return err
		}
	}
	return nil
}

// Format renders the trace to a string.
func Format(t *Trace) string {
	var sb strings.Builder
	_ = Write(&sb, t)
	return sb.String()
}

// ---------------------------------------------------------------------------
// Dynamic traces (on-line analysis)

// Source is a dynamic trace source (§3): an on-line analyzer polls it for
// newly arrived events. Poll returns any events appended since the previous
// call and whether the end-of-file marker has been seen. After the marker is
// seen, no further events will be returned.
type Source interface {
	Poll() (events []Event, eof bool, err error)
}

// SliceSource replays a pre-recorded trace in scripted chunks, for testing
// and benchmarking on-line analysis deterministically: each Poll returns the
// next chunk.
type SliceSource struct {
	chunks [][]Event
	eofAt  int // chunk index after which EOF is reported; -1 = never
	next   int
	seq    int
}

// NewSliceSource builds a source over the given chunks. If markEOF is true,
// EOF is reported once all chunks are consumed.
func NewSliceSource(chunks [][]Event, markEOF bool) *SliceSource {
	s := &SliceSource{chunks: chunks, eofAt: -1}
	if markEOF {
		s.eofAt = len(chunks)
	}
	return s
}

// Poll returns the next chunk.
func (s *SliceSource) Poll() ([]Event, bool, error) {
	if s.next >= len(s.chunks) {
		return nil, s.eofAt >= 0 && s.next >= s.eofAt, nil
	}
	chunk := s.chunks[s.next]
	s.next++
	out := make([]Event, len(chunk))
	for i, e := range chunk {
		e.Seq = s.seq
		s.seq++
		out[i] = e
	}
	return out, s.eofAt >= 0 && s.next >= s.eofAt, nil
}

// ReaderSource incrementally parses a growing stream (a dynamic trace file
// that another process appends to). Each Poll consumes all complete lines
// currently buffered.
type ReaderSource struct {
	r    *bufio.Reader
	seq  int
	line int
	eof  bool
	part strings.Builder
}

// NewReaderSource wraps r as a dynamic trace source.
func NewReaderSource(r io.Reader) *ReaderSource {
	return &ReaderSource{r: bufio.NewReader(r)}
}

// Poll reads as many complete lines as are available and stops at the first
// read error or io.EOF of the underlying reader (io.EOF does NOT imply the
// trace eof marker — only the textual marker does). On a live stream (FIFO,
// socket) a read may block; Poll only blocks when it has no events to
// deliver, so interactions already received are never held hostage by a
// stalled writer.
func (s *ReaderSource) Poll() ([]Event, bool, error) {
	if s.eof {
		return nil, true, nil
	}
	var events []Event
	for {
		if len(events) > 0 && !s.lineBuffered() {
			// No complete line left in the buffer: report what we have
			// instead of issuing another read that may block indefinitely.
			return events, s.eof, nil
		}
		chunk, err := s.r.ReadString('\n')
		if chunk != "" && !strings.HasSuffix(chunk, "\n") {
			// Partial line: stash and wait for the rest. A read error that
			// arrived with the partial chunk must still be reported — it was
			// consumed from the buffered reader and would otherwise be lost.
			s.part.WriteString(chunk)
			if s.part.Len() > MaxLineBytes {
				return events, s.eof, &ParseError{s.line + 1, fmt.Sprintf("line too long (over %d bytes)", MaxLineBytes)}
			}
			if err != nil && err != io.EOF {
				return events, s.eof, err
			}
			return events, s.eof, nil
		}
		if chunk != "" {
			line := s.part.String() + chunk
			s.part.Reset()
			s.line++
			if len(line) > MaxLineBytes {
				return events, s.eof, &ParseError{s.line, fmt.Sprintf("line too long (over %d bytes)", MaxLineBytes)}
			}
			ev, eof, perr := ParseLine(line, s.line)
			if perr != nil {
				return events, s.eof, perr
			}
			if eof {
				s.eof = true
				return events, true, nil
			}
			if ev != nil {
				ev.Seq = s.seq
				s.seq++
				events = append(events, *ev)
			}
		}
		if err != nil {
			if err == io.EOF {
				return events, s.eof, nil
			}
			return events, s.eof, err
		}
	}
}

// lineBuffered reports whether a complete line can be read without touching
// the underlying reader.
func (s *ReaderSource) lineBuffered() bool {
	n := s.r.Buffered()
	if n == 0 {
		return false
	}
	buf, err := s.r.Peek(n)
	return err == nil && bytes.IndexByte(buf, '\n') >= 0
}

// Collect drains a source completely (polling until EOF) into a static
// trace. It is intended for tests; it spins if the source never reports EOF
// and never produces events, so only use it with finite sources.
func Collect(src Source, maxPolls int) (*Trace, error) {
	t := &Trace{}
	for i := 0; i < maxPolls; i++ {
		evs, eof, err := src.Poll()
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, evs...)
		if eof {
			t.EOF = true
			return t, nil
		}
	}
	return t, fmt.Errorf("source did not report eof within %d polls", maxPolls)
}

// Corrupt returns a copy of tr with the event at index i replaced using fn,
// used by the experiment harness to fabricate invalid traces (§4.2: "one
// parameter in the last data interaction of the trace file was edited
// slightly to cause a mismatch").
func Corrupt(tr *Trace, i int, fn func(Event) Event) *Trace {
	out := &Trace{Events: make([]Event, len(tr.Events)), EOF: tr.EOF}
	copy(out.Events, tr.Events)
	out.Events[i] = fn(out.Events[i])
	out.Events[i].Seq = i
	return out
}

// Stats summarizes a trace for reports.
func Stats(tr *Trace) string {
	perIP := map[string][2]int{}
	for _, e := range tr.Events {
		c := perIP[e.IP]
		if e.Dir == In {
			c[0]++
		} else {
			c[1]++
		}
		perIP[e.IP] = c
	}
	names := make([]string, 0, len(perIP))
	for n := range perIP {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d events (%d in, %d out)", tr.Len(), tr.Inputs(), tr.Outputs())
	for _, n := range names {
		c := perIP[n]
		fmt.Fprintf(&sb, "; %s: %d/%d", n, c[0], c[1])
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Source instrumentation

// CountingSource wraps a Source and counts its traffic with atomics, so an
// observer on another goroutine (a progress printer, the metrics registry)
// can watch queue pressure of an on-line analysis without touching the
// source itself: polls answered, events delivered, and whether EOF was seen.
type CountingSource struct {
	src Source

	polls  atomic.Int64
	events atomic.Int64
	eof    atomic.Bool
}

// NewCountingSource wraps src.
func NewCountingSource(src Source) *CountingSource {
	return &CountingSource{src: src}
}

// Poll delegates to the wrapped source and updates the counters.
func (c *CountingSource) Poll() ([]Event, bool, error) {
	events, eof, err := c.src.Poll()
	c.polls.Add(1)
	c.events.Add(int64(len(events)))
	if eof {
		c.eof.Store(true)
	}
	return events, eof, err
}

// Polls returns how many polls the source has answered.
func (c *CountingSource) Polls() int64 { return c.polls.Load() }

// Events returns how many events the source has delivered.
func (c *CountingSource) Events() int64 { return c.events.Load() }

// EOF reports whether the source has reported end-of-trace.
func (c *CountingSource) EOF() bool { return c.eof.Load() }
