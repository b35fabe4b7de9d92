package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAndFormatRoundTrip(t *testing.T) {
	text := `# a comment

in U TCONreq
out N CR
in N DT d=5 extra=true
out U TDTind d=5
eof
`
	tr, err := ReadString(text)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 || !tr.EOF {
		t.Fatalf("len=%d eof=%v", tr.Len(), tr.EOF)
	}
	if tr.Inputs() != 2 || tr.Outputs() != 2 {
		t.Fatalf("inputs=%d outputs=%d", tr.Inputs(), tr.Outputs())
	}
	ev := tr.Events[2]
	if ev.Dir != In || ev.IP != "N" || ev.Interaction != "DT" || len(ev.Params) != 2 {
		t.Fatalf("event: %+v", ev)
	}
	if ev.Params[0].Name != "d" || ev.Params[0].Value != "5" {
		t.Fatalf("param: %+v", ev.Params[0])
	}
	// Round trip.
	tr2, err := ReadString(Format(tr))
	if err != nil {
		t.Fatal(err)
	}
	if Format(tr2) != Format(tr) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", Format(tr), Format(tr2))
	}
}

func TestSeqNumbering(t *testing.T) {
	tr, err := ReadString("in A x\n# gap\nout B y\nin A z\n")
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range tr.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"sideways A x\n",
		"in A\n",
		"in A x d5\n",
		"in A x =v\n",
		"eof\nin A x\n",
	}
	for _, text := range cases {
		if _, err := ReadString(text); err == nil {
			t.Errorf("%q: expected error", text)
		}
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Dir: Out, IP: "N", Interaction: "DT",
		Params: []Param{{Name: "d", Value: "7"}}}
	if got := ev.String(); got != "out N DT d=7" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSliceSource(t *testing.T) {
	chunks := [][]Event{
		{{Dir: In, IP: "A", Interaction: "x"}},
		{},
		{{Dir: Out, IP: "A", Interaction: "y"}, {Dir: In, IP: "B", Interaction: "z"}},
	}
	src := NewSliceSource(chunks, true)
	var all []Event
	eofAt := -1
	for i := 0; i < 10; i++ {
		evs, eof, err := src.Poll()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, evs...)
		if eof {
			eofAt = i
			break
		}
	}
	if len(all) != 3 || eofAt != 2 {
		t.Fatalf("events=%d eofAt=%d", len(all), eofAt)
	}
	for i, ev := range all {
		if ev.Seq != i {
			t.Fatalf("event %d seq %d", i, ev.Seq)
		}
	}
	// After EOF, polls keep reporting EOF with no events.
	evs, eof, _ := src.Poll()
	if len(evs) != 0 || !eof {
		t.Fatal("post-eof poll")
	}
}

func TestSliceSourceNoEOF(t *testing.T) {
	src := NewSliceSource(nil, false)
	for i := 0; i < 3; i++ {
		evs, eof, err := src.Poll()
		if err != nil || len(evs) != 0 || eof {
			t.Fatalf("poll %d: %v %v %v", i, evs, eof, err)
		}
	}
}

func TestReaderSource(t *testing.T) {
	r := strings.NewReader("in A x\nout A y\neof\n")
	src := NewReaderSource(r)
	tr, err := Collect(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || !tr.EOF {
		t.Fatalf("len=%d eof=%v", tr.Len(), tr.EOF)
	}
}

func TestReaderSourcePartialLines(t *testing.T) {
	// Feed a line split across two reads using a custom reader.
	pr := &pieceReader{pieces: []string{"in A ", "x\nou", "t A y\neof\n"}}
	src := NewReaderSource(pr)
	var all []Event
	sawEOF := false
	for i := 0; i < 20 && !sawEOF; i++ {
		evs, eof, err := src.Poll()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, evs...)
		sawEOF = eof
	}
	if len(all) != 2 || !sawEOF {
		t.Fatalf("events=%d eof=%v", len(all), sawEOF)
	}
	if all[0].Interaction != "x" || all[1].Interaction != "y" {
		t.Fatalf("events: %+v", all)
	}
}

// pieceReader returns one piece per Read call, then io.EOF-style zero reads.
type pieceReader struct {
	pieces []string
	i      int
}

func (p *pieceReader) Read(b []byte) (int, error) {
	if p.i >= len(p.pieces) {
		return 0, errEOF{}
	}
	n := copy(b, p.pieces[p.i])
	if n == len(p.pieces[p.i]) {
		p.i++
	} else {
		p.pieces[p.i] = p.pieces[p.i][n:]
	}
	return n, nil
}

type errEOF struct{}

func (errEOF) Error() string { return "EOF" }

func TestReaderSourceStopsAtReadErrorBoundary(t *testing.T) {
	// A non-io.EOF error is propagated. Poll answers with buffered events
	// first (it must not block on a live stream once it has something to
	// deliver), so the error surfaces no later than the following Poll.
	pr := &pieceReader{pieces: []string{"in A x\n"}}
	src := NewReaderSource(pr)
	evs, _, err := src.Poll()
	if len(evs) != 1 {
		t.Fatalf("events: %v", evs)
	}
	if err == nil {
		_, _, err = src.Poll()
	}
	if err == nil {
		t.Fatal("expected propagated read error")
	}
}

func TestCorrupt(t *testing.T) {
	tr, _ := ReadString("in A x\nout A y\n")
	mut := Corrupt(tr, 1, func(e Event) Event {
		e.Interaction = "z"
		return e
	})
	if tr.Events[1].Interaction != "y" {
		t.Fatal("original mutated")
	}
	if mut.Events[1].Interaction != "z" {
		t.Fatal("copy not mutated")
	}
}

func TestStats(t *testing.T) {
	tr, _ := ReadString("in A x\nout A y\nin B z\n")
	s := Stats(tr)
	if !strings.Contains(s, "3 events") || !strings.Contains(s, "A: 1/1") {
		t.Fatalf("stats: %s", s)
	}
}

// Property: any trace of well-formed events round-trips through the codec.
func TestRoundTripProperty(t *testing.T) {
	name := func(seed uint8) string {
		names := []string{"A", "B", "N1", "Up", "low"}
		return names[int(seed)%len(names)]
	}
	f := func(dirs []bool, seeds []uint8, vals []int32) bool {
		n := len(dirs)
		if len(seeds) < n {
			n = len(seeds)
		}
		if len(vals) < n {
			n = len(vals)
		}
		tr := &Trace{EOF: true}
		for i := 0; i < n; i++ {
			d := In
			if dirs[i] {
				d = Out
			}
			tr.Events = append(tr.Events, Event{
				Seq: i, Dir: d, IP: name(seeds[i]), Interaction: "m",
				Params: []Param{{Name: "v", Value: itoa(int64(vals[i]))}},
			})
		}
		got, err := ReadString(Format(tr))
		if err != nil {
			return false
		}
		return Format(got) == Format(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [24]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// TestReadParamsWindows: all events of a trace cut their Params from one
// array, so each window must end at its own last parameter (cap == len), or
// an append to one event's Params would overwrite the next event's.
func TestReadParamsWindows(t *testing.T) {
	text := "in A x a=1 b=2\nout A y\nin A z c=3\n# c\nout A w d=4 e=5\n"
	for _, read := range []func() (*Trace, error){
		func() (*Trace, error) { return ReadString(text) },
		func() (*Trace, error) { return Read(strings.NewReader(text)) },
	} {
		tr, err := read()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Events[1].Params != nil {
			t.Fatalf("event without parameters has Params %#v, want nil", tr.Events[1].Params)
		}
		for i, ev := range tr.Events {
			if cap(ev.Params) != len(ev.Params) {
				t.Fatalf("event %d: cap %d != len %d", i, cap(ev.Params), len(ev.Params))
			}
		}
		want := Format(tr)
		for i := range tr.Events {
			_ = append(tr.Events[i].Params, Param{Name: "z", Value: "9"})
		}
		if got := Format(tr); got != want {
			t.Fatalf("appending to Params changed other events:\n%s\nwant\n%s", got, want)
		}
	}
}
