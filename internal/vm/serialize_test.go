package vm

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
	"repro/internal/estelle/types"
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
	for name, b := range badHeapEncodings(t, st, tt) {
		cases[name] = b
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

// badHeapEncodings encodes st with its heap bent out of shape in each way
// DecodeState must refuse: a later Alloc could then overwrite a live cell,
// or a lookup miss one. st must hold at least two heap cells.
func badHeapEncodings(t testing.TB, st *State, tt *TypeTable) map[string][]byte {
	t.Helper()
	bend := map[string]func(h *Heap){
		"duplicate address": func(h *Heap) { h.cells[1].addr = h.cells[0].addr },
		"address 0":         func(h *Heap) { h.cells[0].addr = 0 },
		"out of order":      func(h *Heap) { h.cells[0], h.cells[1] = h.cells[1], h.cells[0] },
		"next too low":      func(h *Heap) { h.next = h.cells[len(h.cells)-1].addr },
		"next 0":            func(h *Heap) { h.next = 0 },
	}
	out := make(map[string][]byte, len(bend))
	for name, f := range bend {
		h := *st.Heap
		h.cells = slices.Clone(st.Heap.cells)
		f(&h)
		b, err := EncodeState(&State{FSM: st.FSM, Globals: st.Globals, Heap: &h}, tt)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		out[name] = b
	}
	return out
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
	bad := badHeapEncodings(f, st, tt)
	f.Add(bad["duplicate address"])
	f.Add(bad["next too low"])
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeState(b, tt)
		if err != nil {
			return
		}
		// decode → encode → decode is a fixpoint.
		enc, err := EncodeState(s, tt)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeState(enc, tt)
		if err != nil {
			t.Fatalf("decode of the re-encoded state: %v", err)
		}
		if fp := s.Fingerprint(); again.Fingerprint() != fp {
			t.Fatalf("fingerprint changed across re-encoding:\n got %q\nwant %q", again.Fingerprint(), fp)
		}
		// The heap invariant holds: every decoded cell is loadable, and a
		// fresh Alloc gets an address no live cell has.
		var addrs []int64
		for _, e := range s.Heap.cells {
			if _, err := s.Heap.Load(e.addr); err != nil {
				t.Fatalf("decoded cell %d: %v", e.addr, err)
			}
			addrs = append(addrs, e.addr)
		}
		if a := s.Heap.Alloc(types.Int, false); slices.Contains(addrs, a) {
			t.Fatalf("Alloc after decode reused live address %d", a)
		}
	})
}
