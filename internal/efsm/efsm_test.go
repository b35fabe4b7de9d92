package efsm

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/estelle/types"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/specs"
)

func compileTP0(t *testing.T) *Spec {
	t.Helper()
	s, err := Compile("tp0.estelle", specs.TP0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("bad", "not estelle"); err == nil ||
		!strings.Contains(err.Error(), "parse") {
		t.Fatalf("err = %v", err)
	}
	if _, err := Compile("bad", `specification s;
channel CH(a, b);
  by a: m;
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
state S0;
initialize to NOPE begin end;
trans from S0 to S0 when P.m name t: begin end;
end;
end.`); err == nil || !strings.Contains(err.Error(), "check") {
		t.Fatalf("err = %v", err)
	}
}

func TestIndexing(t *testing.T) {
	s := compileTP0(t)
	if s.NumStates() != 4 || s.NumIPs() != 2 {
		t.Fatalf("states=%d ips=%d", s.NumStates(), s.NumIPs())
	}
	if s.TransitionCount() != 19 {
		t.Fatalf("transitions = %d, want 19", s.TransitionCount())
	}
	idle, okIdle := 0, false
	dataSt := 0
	for i := 0; i < s.NumStates(); i++ {
		switch s.StateName(i) {
		case "idle":
			idle, okIdle = i, true
		case "data":
			dataSt = i
		}
	}
	if !okIdle {
		t.Fatal("no idle state")
	}
	u, ok := s.IPByName("u") // case-insensitive
	if !ok {
		t.Fatal("no U ip")
	}
	// In idle, U offers TCONreq (T1) and TDTreq (T22).
	if got := len(s.When(idle, u)); got != 2 {
		t.Fatalf("when(idle, U) = %d transitions, want 2", got)
	}
	// In data, spontaneous T14/T16 exist.
	if got := len(s.Spontaneous(dataSt)); got != 2 {
		t.Fatalf("spontaneous(data) = %d, want 2", got)
	}
	if !s.HasWhenOn(idle, u) {
		t.Fatal("HasWhenOn(idle, U) = false")
	}
}

func TestResolveEvent(t *testing.T) {
	s := compileTP0(t)
	re, err := s.ResolveEvent(trace.Event{
		Dir: trace.In, IP: "U", Interaction: "TDTreq",
		Params: []trace.Param{{Name: "d", Value: "42"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if re.Inter.Name != "TDTreq" || len(re.Params) != 1 || re.Params[0].I != 42 {
		t.Fatalf("resolved: %+v", re)
	}
	// Missing parameter becomes undefined.
	re, err = s.ResolveEvent(trace.Event{Dir: trace.In, IP: "U", Interaction: "TDTreq"})
	if err != nil {
		t.Fatal(err)
	}
	if !re.Params[0].Undef {
		t.Fatal("missing parameter should resolve to undefined")
	}
	// Direction checking.
	if _, err := s.ResolveEvent(trace.Event{Dir: trace.Out, IP: "U", Interaction: "TCONreq"}); err == nil {
		t.Fatal("TCONreq cannot be an output of the module at U")
	}
	if _, err := s.ResolveEvent(trace.Event{Dir: trace.In, IP: "U", Interaction: "TDTind"}); err == nil {
		t.Fatal("TDTind cannot be an input of the module at U")
	}
	// NSAP interactions flow both ways.
	if _, err := s.ResolveEvent(trace.Event{Dir: trace.In, IP: "N", Interaction: "DT",
		Params: []trace.Param{{Name: "d", Value: "1"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ResolveEvent(trace.Event{Dir: trace.Out, IP: "N", Interaction: "DT",
		Params: []trace.Param{{Name: "d", Value: "1"}}}); err != nil {
		t.Fatal(err)
	}

	// Names resolve case-insensitively, whether spelled as declared or not.
	want, err := s.ResolveEvent(trace.Event{Dir: trace.In, IP: "U", Interaction: "TCONreq"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ip := range []string{"u", "U"} {
		for _, inter := range []string{"tconreq", "TCONREQ", "TCONreq"} {
			re, err := s.ResolveEvent(trace.Event{Dir: trace.In, IP: ip, Interaction: inter})
			if err != nil || re.IP != want.IP || re.Inter != want.Inter {
				t.Errorf("%s %s: ip %d inter %p err %v, want ip %d inter %p",
					ip, inter, re.IP, re.Inter, err, want.IP, want.Inter)
			}
		}
	}
	// Unknown names keep their error texts.
	for _, c := range []struct {
		ev   trace.Event
		want string
	}{
		{trace.Event{Line: 3, Dir: trace.In, IP: "X", Interaction: "TCONreq"},
			`trace line 3: unknown interaction point "X"`},
		{trace.Event{Line: 4, Dir: trace.In, IP: "u", Interaction: "TCONREQX"},
			`trace line 4: channel USAP has no interaction "TCONREQX"`},
		{trace.Event{Line: 5, Dir: trace.In, IP: "U", Interaction: "tdtreq",
			Params: []trace.Param{{Name: "D", Value: "1"}, {Name: "e", Value: "2"}}},
			`trace line 5: interaction TDTreq has no parameter "e"`},
		{trace.Event{Line: 6, Dir: trace.In, IP: "U", Interaction: "TDTreq",
			Params: []trace.Param{{Name: "d", Value: "x"}}},
			`trace line 6: parameter d: invalid integer "x"`},
		{trace.Event{Line: 7, Dir: trace.Out, IP: "U", Interaction: "TCONREQ"},
			`trace line 7: interaction TCONreq cannot be output at ip U (not sendable by role provider)`},
		{trace.Event{Line: 8, Dir: trace.In, IP: "n", Interaction: "tdtind"},
			`trace line 8: channel NSAP has no interaction "tdtind"`},
	} {
		if _, err := s.ResolveEvent(c.ev); err == nil || err.Error() != c.want {
			t.Errorf("line %d: err = %v, want %s", c.ev.Line, err, c.want)
		}
	}
}

// TestResolveEventsSharedArray: the values of a batch share one array, so
// each event's window must end at its own last value, and a failing batch
// keeps the events before the first error in trace order.
func TestResolveEventsSharedArray(t *testing.T) {
	s := compileTP0(t)
	tr, err := trace.ReadString("in U TCONreq\nin U TDTreq d=1\nout N DT d=1\nin N DT d=2\nin U TDTreq d=3\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ResolveEvents(nil, tr.Events)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if cap(res[i].Params) != len(res[i].Params) {
			t.Fatalf("event %d: cap %d != len %d", i, cap(res[i].Params), len(res[i].Params))
		}
	}
	for i := 0; i+1 < len(res); i++ {
		next := append([]vm.Value(nil), res[i+1].Params...)
		_ = append(res[i].Params, vm.MakeInt(99))
		for k := range next {
			if res[i+1].Params[k].I != next[k].I {
				t.Fatalf("append to event %d changed event %d", i, i+1)
			}
		}
	}

	bad := append([]trace.Event(nil), tr.Events...)
	bad[2].Params = []trace.Param{{Name: "d", Value: "x"}}
	bad[3].IP = "X"
	res, err = s.ResolveEvents(nil, bad)
	if len(res) != 2 || err == nil || !strings.Contains(err.Error(), "trace line 3: parameter d") {
		t.Fatalf("got %d events, err %v; want 2 and the line 3 value error", len(res), err)
	}
}

func TestParseValue(t *testing.T) {
	enum := &types.Type{Kind: types.Enum, EnumNames: []string{"red", "green", "blue"}}
	sub := &types.Type{Kind: types.Subrange, Base: types.Int, Lo: 0, Hi: 9}
	cases := []struct {
		t       *types.Type
		in      string
		want    int64
		undef   bool
		wantErr bool
	}{
		{types.Int, "42", 42, false, false},
		{types.Int, "-3", -3, false, false},
		{types.Int, "?", 0, true, false},
		{types.Int, "x", 0, false, true},
		{types.Bool, "true", 1, false, false},
		{types.Bool, "FALSE", 0, false, false},
		{types.Bool, "maybe", 0, false, true},
		{types.Chr, "'a'", 'a', false, false},
		{types.Chr, "b", 'b', false, false},
		{enum, "green", 1, false, false},
		{enum, "GREEN", 1, false, false},
		{enum, "2", 2, false, false},
		{enum, "mauve", 0, false, true},
		{sub, "9", 9, false, false},
		{sub, "10", 0, false, true},
	}
	for _, c := range cases {
		v, err := ParseValue(c.t, c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseValue(%s, %q): expected error", c.t, c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseValue(%s, %q): %v", c.t, c.in, err)
			continue
		}
		if v.Undef != c.undef || (!c.undef && v.I != c.want) {
			t.Errorf("ParseValue(%s, %q) = %v (undef=%v), want %d (undef=%v)",
				c.t, c.in, v.I, v.Undef, c.want, c.undef)
		}
	}
}

// Property: integer values round-trip through FormatValue/ParseValue.
func TestValueRoundTripProperty(t *testing.T) {
	f := func(n int32) bool {
		v, err := ParseValue(types.Int, FormatValue(vm.MakeInt(int64(n))))
		return err == nil && v.I == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventFor(t *testing.T) {
	s := compileTP0(t)
	u, _ := s.IPByName("U")
	group := s.Prog.IPs[u].Group
	inter := group.Channel.Interactions["tdtind"]
	ev := s.EventFor(trace.Out, u, inter, []vm.Value{vm.MakeInt(5)})
	if ev.String() != "out U TDTind d=5" {
		t.Fatalf("event: %s", ev.String())
	}
}

func TestIPArrayNames(t *testing.T) {
	s, err := Compile("demux.estelle", specs.Demux)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumIPs() != 5 {
		t.Fatalf("ips = %d, want 5 (INP + OUTP[0..3])", s.NumIPs())
	}
	if _, ok := s.IPByName("OUTP[2]"); !ok {
		t.Fatal("OUTP[2] not found by name")
	}
	if _, ok := s.IPByName("outp[2]"); !ok {
		t.Fatal("ip array lookup should be case-insensitive")
	}
}
