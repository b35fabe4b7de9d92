package vm

import "testing"

// TestReleasePoisonsState pins the use-after-release poison: until the pool
// re-issues it, a released container reads as no live state can, with a
// negative FSM ordinal and undefined globals of nil type, while the globals
// keep the backing arrays the pool reuses.
func TestReleasePoisonsState(t *testing.T) {
	st := &State{FSM: 3, Heap: NewHeap(), Globals: []Value{
		{I: 7},
		{Elems: []Value{{I: 1}, {I: 2}}},
		{Words: []uint64{5}},
	}}
	snap := st.Snapshot()
	ReleaseState(snap)
	if snap.FSM >= 0 || snap.Heap != nil {
		t.Fatalf("released state: FSM %d, heap %p; want a negative FSM and no heap", snap.FSM, snap.Heap)
	}
	for i, g := range snap.Globals {
		if !g.Undef || g.T != nil || g.I != 0 || len(g.Elems) != 0 || len(g.Words) != 0 {
			t.Fatalf("global %d after release = %+v, want an undefined value of nil type", i, g)
		}
	}
	if cap(snap.Globals[1].Elems) < 2 || cap(snap.Globals[2].Words) < 1 {
		t.Fatal("release dropped a backing array the pool reuses")
	}
	if st.FSM != 3 || st.Globals[0].I != 7 || st.Globals[1].Elems[1].I != 2 {
		t.Fatal("releasing the snapshot changed the original")
	}
}
