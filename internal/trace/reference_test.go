package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// refParseLine and refRead are the line-at-a-time reader Read replaced,
// kept verbatim (bufio.Scanner, strings.Fields, a heap Event per line) and
// sharing no code with the in-place parser. FuzzReadReference holds Read and
// ReadString to them: same events, same eof flag, same errors.
func refParseLine(line string, lineno int) (*Event, bool, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil, false, nil
	}
	fields := strings.Fields(line)
	if strings.EqualFold(fields[0], "eof") {
		return nil, true, nil
	}
	if len(fields) < 3 {
		return nil, false, &ParseError{lineno, "expected: in|out IP INTERACTION [name=value ...]"}
	}
	var d Dir
	switch strings.ToLower(fields[0]) {
	case "in":
		d = In
	case "out":
		d = Out
	default:
		return nil, false, &ParseError{lineno, fmt.Sprintf("unknown direction %q", fields[0])}
	}
	ev := &Event{Dir: d, IP: fields[1], Interaction: fields[2], Line: lineno}
	for _, f := range fields[3:] {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return nil, false, &ParseError{lineno, fmt.Sprintf("malformed parameter %q (want name=value)", f)}
		}
		ev.Params = append(ev.Params, Param{Name: f[:eq], Value: f[eq+1:]})
	}
	return ev, false, nil
}

func refRead(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxLineBytes)
	lineno := 0
	for sc.Scan() {
		lineno++
		ev, eof, err := refParseLine(sc.Text(), lineno)
		if err != nil {
			return nil, err
		}
		if eof {
			t.EOF = true
			continue
		}
		if ev == nil {
			continue
		}
		if t.EOF {
			return nil, &ParseError{lineno, "event after eof marker"}
		}
		ev.Seq = len(t.Events)
		t.Events = append(t.Events, *ev)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &ParseError{lineno + 1, fmt.Sprintf("line too long (over %d bytes)", MaxLineBytes)}
		}
		return nil, err
	}
	return t, nil
}

var errReadFailed = errors.New("read failed")

// failingReader serves data in chunks of at most chunk bytes and then fails
// with errReadFailed, either on a call of its own or, with withData, together
// with the last chunk.
type failingReader struct {
	data     string
	chunk    int
	withData bool
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.data == "" {
		return 0, errReadFailed
	}
	n := copy(p[:min(len(p), f.chunk)], f.data)
	f.data = f.data[n:]
	if f.withData && f.data == "" {
		return n, errReadFailed
	}
	return n, nil
}

// sameRead reports how got differs from the reference result, or "".
func sameRead(got *Trace, gotErr error, want *Trace, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		var gp, wp *ParseError
		switch {
		case errors.As(wantErr, &wp) != errors.As(gotErr, &gp):
			return fmt.Sprintf("error type %T, reference %T", gotErr, wantErr)
		case wp != nil && *gp != *wp:
			return fmt.Sprintf("error %+v, reference %+v", *gp, *wp)
		case wp == nil && gotErr != wantErr:
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	if got.EOF != want.EOF {
		return fmt.Sprintf("eof %v, reference %v", got.EOF, want.EOF)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		return fmt.Sprintf("events\n%#v\nreference\n%#v", got.Events, want.Events)
	}
	return ""
}

// FuzzReadReference holds ReadString and Read to the reference reader on
// arbitrary text, and Read also through a reader that fails after k bytes:
// the lines read before the failure are parsed first, so a malformed one is
// reported instead of the I/O error.
func FuzzReadReference(f *testing.F) {
	f.Add("in U TCONreq\nout N CR d=5\neof\n", 7, uint8(3))
	f.Add("# comment\r\n\n  in A x p=? q=-3  \r\nIN b Y\n", 20, uint8(1))
	f.Add("eof", 2, uint8(0))
	f.Add("in A x\nsideways", 9, uint8(4))
	f.Add("in A x\neof\nout A y\n", 100, uint8(2))
	f.Add("in A x a= b==c\n in B　y\u0085", 11, uint8(5))
	f.Add("İn A x\nout A y =v\n", 5, uint8(6))
	f.Add("in A x\nin\nout A y d5\n\xff\n", 3, uint8(7))
	// The line limit: the longest line accepted, and one byte more.
	f.Add("in A x\n#"+strings.Repeat("x", MaxLineBytes-2), 0, uint8(0))
	f.Add("in A x\n#"+strings.Repeat("x", MaxLineBytes-1), 0, uint8(0))
	f.Fuzz(func(t *testing.T, text string, k int, mode uint8) {
		want, wantErr := refRead(strings.NewReader(text))
		got, err := ReadString(text)
		if d := sameRead(got, err, want, wantErr); d != "" {
			t.Fatalf("ReadString: %s", d)
		}
		got, err = Read(strings.NewReader(text))
		if d := sameRead(got, err, want, wantErr); d != "" {
			t.Fatalf("Read: %s", d)
		}

		// Short chunks exercise reads that end mid-line; they grow with the
		// text because the reference rescans its pending line on every read.
		k = int(uint(k) % uint(len(text)+1))
		chunk, withData := int(mode>>1)%7+1+len(text)/16, mode&1 == 1
		want, wantErr = refRead(&failingReader{text[:k], chunk, withData})
		got, err = Read(&failingReader{text[:k], chunk, withData})
		if d := sameRead(got, err, want, wantErr); d != "" {
			t.Fatalf("Read failing after %d bytes: %s", k, d)
		}
	})
}

// TestReadLineLimitBoundary pins the line limit: a line's raw bytes are
// everything before its '\n', a '\r' included, and MaxLineBytes of them are
// too many, with or without a newline after them.
func TestReadLineLimitBoundary(t *testing.T) {
	long := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	cases := []struct {
		name string
		text string
		ok   bool
	}{
		{"max-1 LF", long(MaxLineBytes-1) + "\n", true},
		{"max-1 CRLF", long(MaxLineBytes-1) + "\r\n", false},
		{"max-1 EOF", long(MaxLineBytes - 1), true},
		{"max LF", long(MaxLineBytes) + "\n", false},
		{"max CRLF", long(MaxLineBytes) + "\r\n", false},
		{"max EOF", long(MaxLineBytes), false},
	}
	for _, c := range cases {
		text := "in U a\n" + c.text
		for _, read := range []struct {
			name string
			fn   func() (*Trace, error)
		}{
			{"Read", func() (*Trace, error) { return Read(strings.NewReader(text)) }},
			{"ReadString", func() (*Trace, error) { return ReadString(text) }},
		} {
			tr, err := read.fn()
			if c.ok {
				if err != nil || tr.Len() != 1 {
					t.Errorf("%s %s: err=%v, want the one event", read.name, c.name, err)
				}
				continue
			}
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Line != 2 ||
				pe.Msg != fmt.Sprintf("line too long (over %d bytes)", MaxLineBytes) {
				t.Errorf("%s %s: err=%v, want line 2 too long", read.name, c.name, err)
			}
		}
	}
}
