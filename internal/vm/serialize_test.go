package vm

import (
	"errors"
	"testing"

	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
)

// compileSpec parses and checks a full specification source.
func compileSpec(t *testing.T, src string) *sema.Program {
	t.Helper()
	spec, err := parser.Parse("serialize_test.estelle", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sema.Check(spec)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

// richSpec exercises every value shape: ordinals, enums, subranges, records,
// arrays, sets and a cyclic pointer/record type (list node pointing at its
// own type), plus heap allocation.
const richSpec = `specification s;
channel CH(a, b);
  by a: m(v : integer);
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
type
  color = (red, green, blue);
  small = 1..9;
  ptr = ^node;
  node = record val : integer; next : ptr end;
var
  c : color;
  r : record x : small; f : boolean end;
  a : array [1..3] of integer;
  cs : set of color;
  head : ptr;
state S0;
initialize to S0 begin
  c := green;
  r.x := 5;
  r.f := true;
  a[2] := 7;
  cs := [red, blue];
  new(head);
  head^.val := 11;
  new(head^.next);
  head^.next^.val := 22;
end;
trans when P.m from S0 to S0 begin a[1] := v end;
end;
end.`

func TestTypeTableDeterministic(t *testing.T) {
	prog := compileSpec(t, richSpec)
	t1, t2 := NewTypeTable(prog), NewTypeTable(prog)
	if t1.Len() == 0 || t1.Len() != t2.Len() {
		t.Fatalf("table lengths %d, %d", t1.Len(), t2.Len())
	}
	if t1.Fingerprint() != t2.Fingerprint() {
		t.Fatal("fingerprints differ across builds from the same program")
	}
	for i := range t1.list {
		if t1.list[i] != t2.list[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestEncodeDecodeStateRoundTrip(t *testing.T) {
	prog := compileSpec(t, richSpec)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	tt := NewTypeTable(prog)
	b, err := EncodeState(st, tt)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeState(b, tt)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Fingerprint() != st.Fingerprint() {
		t.Fatalf("fingerprint mismatch:\n got %q\nwant %q", got.Fingerprint(), st.Fingerprint())
	}
	if got.Heap.next != st.Heap.next || got.Heap.Allocs != st.Heap.Allocs {
		t.Fatalf("heap counters: got next=%d allocs=%d, want next=%d allocs=%d",
			got.Heap.next, got.Heap.Allocs, st.Heap.next, st.Heap.Allocs)
	}
	// The decoded state must be live: fire the transition on it.
	outs, err := e.Execute(got, prog.Trans[0], []Value{MakeInt(42)})
	if err != nil {
		t.Fatalf("execute on decoded state: %v", err)
	}
	_ = outs
}

func TestEncodeDecodeUndefState(t *testing.T) {
	prog := compileSpec(t, richSpec)
	e := New(Compile(prog))
	e.Partial = true
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	tt := NewTypeTable(prog)
	b, err := EncodeState(st, tt)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeState(b, tt)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Fingerprint() != st.Fingerprint() {
		t.Fatal("undef-attribute fingerprint mismatch")
	}
}

func TestDecodeStateRejectsCorruption(t *testing.T) {
	prog := compileSpec(t, richSpec)
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	tt := NewTypeTable(prog)
	good, err := EncodeState(st, tt)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)/2],
		"trailing":  append(append([]byte{}, good...), 0x01),
	}
	for name, b := range cases {
		if _, err := DecodeState(b, tt); !errors.Is(err, ErrBadStateEncoding) {
			t.Errorf("%s: err = %v, want ErrBadStateEncoding", name, err)
		}
	}
	// A table from a different program must be rejected by fingerprint.
	other := compileSpec(t, `specification s2;
channel CH(a, b);
  by a: m(v : boolean);
module M systemprocess;
  ip P : CH(b) individual queue;
end;
body B for M;
var g : array [0..4] of boolean;
state S0;
initialize to S0 begin g[0] := true end;
trans when P.m from S0 to S0 begin g[1] := v end;
end;
end.`)
	if _, err := DecodeState(good, NewTypeTable(other)); !errors.Is(err, ErrBadStateEncoding) {
		t.Fatalf("cross-program decode: err = %v, want ErrBadStateEncoding", err)
	}
}

func FuzzDecodeState(f *testing.F) {
	spec, err := parser.Parse("fuzz.estelle", richSpec)
	if err != nil {
		f.Fatal(err)
	}
	prog, err := sema.Check(spec)
	if err != nil {
		f.Fatal(err)
	}
	e := New(Compile(prog))
	st, _, err := e.RunInit()
	if err != nil {
		f.Fatal(err)
	}
	tt := NewTypeTable(prog)
	good, err := EncodeState(st, tt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeState(b, tt)
		if err == nil {
			// Whatever decodes must at least fingerprint without panicking.
			_ = s.Fingerprint()
		}
	})
}
