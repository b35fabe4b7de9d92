package vm

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fnv1aString is the reference implementation the streaming Hasher must
// match: plain FNV-1a 64 over the bytes of s.
func fnv1aString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// randValue builds a random Value: undefined, integer, set words, or a
// composite with nested elements (bounded depth).
func randValue(r *rand.Rand, depth int) Value {
	switch n := r.Intn(8); {
	case n == 0:
		return Value{Undef: true}
	case n == 1:
		words := make([]uint64, 1+r.Intn(3))
		for i := range words {
			words[i] = r.Uint64() >> uint(r.Intn(64)) // exercise short hex forms and zeros
		}
		return Value{Words: words}
	case n <= 3 && depth > 0:
		elems := make([]Value, 1+r.Intn(4))
		for i := range elems {
			elems[i] = randValue(r, depth-1)
		}
		return Value{Elems: elems}
	default:
		return Value{I: r.Int63n(2000) - 1000}
	}
}

// putCell stores v at addr as a cell h owns, replacing any cell already
// there, and keeps the heap invariant Alloc maintains: cells in address
// order, every address below next.
func putCell(h *Heap, addr int64, v Value) {
	h.ensureOwned()
	c := &cell{v: v, gen: h.gen}
	if i, ok := h.find(addr); ok {
		h.cells[i].c = c
	} else {
		h.cells = slices.Insert(h.cells, i, heapEntry{addr, c})
	}
	h.next = max(h.next, addr+1)
}

func randState(r *rand.Rand) *State {
	st := &State{FSM: r.Intn(6), Heap: NewHeap(), Globals: make([]Value, 1+r.Intn(5))}
	for i := range st.Globals {
		st.Globals[i] = randValue(r, 2)
	}
	for n := r.Intn(6); n > 0; n-- {
		addr := int64(1 + r.Intn(40))
		putCell(st.Heap, addr, randValue(r, 2))
	}
	return st
}

// TestValueHashMatchesFingerprint pins the exact correspondence for values:
// the streaming hash IS FNV-1a over the canonical string's bytes.
func TestValueHashMatchesFingerprint(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := randValue(r, 3)
		var sb strings.Builder
		v.Fingerprint(&sb)
		if got, want := v.Hash64(), fnv1aString(sb.String()); got != want {
			t.Fatalf("value %q: Hash64=%#x, fnv1a(fingerprint)=%#x", sb.String(), got, want)
		}
	}
}

// TestStateHashMatchesFingerprint pins the same correspondence for whole
// states, heap cells included: the state hash IS FNV-1a over the canonical
// string's bytes, and on a randomized corpus distinct fingerprints do not
// collide.
func TestStateHashMatchesFingerprint(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	byHash := make(map[uint64]string)
	for i := 0; i < 3000; i++ {
		st := randState(r)
		fp, h := st.Fingerprint(), st.Hash64()
		if want := fnv1aString(fp); h != want {
			t.Fatalf("state %q: Hash64=%#x, fnv1a(fingerprint)=%#x", fp, h, want)
		}
		if prev, ok := byHash[h]; ok && prev != fp {
			t.Fatalf("hash collision %#x between %q and %q", h, prev, fp)
		}
		byHash[h] = fp
	}
}

// TestStateHashHeapOrderIndependent inserts the same cells in two different
// orders: fingerprints and hashes must agree, because heap identity is the
// cell set, not the insertion history.
func TestStateHashHeapOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mk := func(perm []int) *State {
		st := &State{FSM: 1, Heap: NewHeap(), Globals: []Value{{I: 7}}}
		for _, i := range perm {
			putCell(st.Heap, int64(i+1), Value{I: int64(i * 11)})
		}
		return st
	}
	fwd := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rev := make([]int, len(fwd))
	copy(rev, fwd)
	r.Shuffle(len(rev), func(i, j int) { rev[i], rev[j] = rev[j], rev[i] })
	a, b := mk(fwd), mk(rev)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ across insertion orders")
	}
	if a.Hash64() != b.Hash64() {
		t.Fatalf("hashes differ across insertion orders")
	}
}

// TestFPMapParanoidCountsCollisions feeds the paranoid map two distinct
// canonical strings under one forced hash: membership must stay correct and
// the collision must be counted. In fast mode the hash is the key, so the
// same two strings are one fingerprint and no collision can be seen.
func TestFPMapParanoidCountsCollisions(t *testing.T) {
	// add reports whether canon was absent, recording it if so.
	add := func(m *FPMap[struct{}], canon string) bool {
		if _, ok := m.Get(42, canon); ok {
			return false
		}
		m.Put(42, canon, struct{}{})
		return true
	}
	s := NewFPMap[struct{}](true)
	if !add(&s, "a") {
		t.Fatal("first add of a")
	}
	if !add(&s, "b") {
		t.Fatal("b is a new state despite the colliding hash")
	}
	if add(&s, "a") {
		t.Fatal("a must be a revisit")
	}
	if s.Collisions() != 1 {
		t.Fatalf("Collisions = %d, want 1", s.Collisions())
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}

	fast := NewFPMap[struct{}](false)
	if !add(&fast, "") || add(&fast, "") {
		t.Fatal("fast mode: first add true, revisit false")
	}
	if add(&fast, "b") || fast.Collisions() != 0 || fast.Len() != 1 {
		t.Fatalf("fast mode keys by hash alone: Len = %d, Collisions = %d", fast.Len(), fast.Collisions())
	}
}

// TestApproxBytesComposite pins the composite accounting of ApproxBytes: a
// state whose global holds nested elements and set words must report the
// payload, not just one header per global.
func TestApproxBytesComposite(t *testing.T) {
	flat := &State{Heap: NewHeap(), Globals: []Value{{I: 1}}}
	elems := make([]Value, 16)
	for i := range elems {
		elems[i] = Value{Words: []uint64{1, 2, 3, 4}}
	}
	composite := &State{Heap: NewHeap(), Globals: []Value{{Elems: elems}}}

	fb, cb := flat.ApproxBytes(), composite.ApproxBytes()
	// 16 nested element headers (64 each) + 16*4 set words (8 each).
	wantExtra := int64(16*64 + 16*4*8)
	if cb-fb != wantExtra {
		t.Fatalf("composite ApproxBytes %d - flat %d = %d, want %d", cb, fb, cb-fb, wantExtra)
	}

	// Heap cells count too.
	withCell := &State{Heap: NewHeap(), Globals: []Value{{I: 1}}}
	putCell(withCell.Heap, 1, Value{Words: []uint64{1, 2}})
	if got := withCell.ApproxBytes() - fb; got != 64+16 {
		t.Fatalf("heap cell contribution = %d, want %d", got, 64+16)
	}
}

// TestSnapshotCopyOnWrite pins the COW heap protocol: a snapshot is
// logically independent (writes on either side are invisible to the other)
// even though cells are shared until first write.
func TestSnapshotCopyOnWrite(t *testing.T) {
	st := &State{Heap: NewHeap(), Globals: []Value{{I: 1}}}
	putCell(st.Heap, 7, Value{I: 100})

	snap := st.Snapshot()
	// Write through the original: the snapshot must keep the old payload.
	cv, err := st.Heap.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	cv.I = 999
	got, err := snap.Heap.Load(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 100 {
		t.Fatalf("snapshot saw the original's write: %d", got.I)
	}

	// Write through the snapshot: the original must keep its value.
	sv, err := snap.Heap.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	sv.I = -5
	back, err := st.Heap.Load(7)
	if err != nil {
		t.Fatal(err)
	}
	if back.I != 999 {
		t.Fatalf("original saw the snapshot's write: %d", back.I)
	}

	// Alloc/Dispose on the snapshot must not disturb the original's cell set.
	if err := snap.Heap.Dispose(7); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Heap.Load(7); err != nil {
		t.Fatalf("original lost cell 7 after snapshot dispose: %v", err)
	}

	// Releasing the (diverged) snapshot must not corrupt the original.
	ReleaseState(snap)
	if got, err := st.Heap.Load(7); err != nil || got.I != 999 {
		t.Fatalf("original corrupted after ReleaseState: %v %v", got, err)
	}
}
