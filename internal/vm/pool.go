package vm

import "sync"

// Snapshot pooling: the MDFS search creates and discards states at every
// branch point, and the restore path in particular produces short-lived
// states whose only purpose is to seed one transition attempt. Pooling the
// State and Heap containers (and reusing Globals backing arrays via
// copyValueInto) keeps those allocations off the garbage collector's plate.
//
// Only containers are pooled — never cell payloads or heap cell slices,
// which may be structurally shared across a snapshot family. A state may be
// released only when its owner can prove nothing else references it. The
// analyzer releases a restored state whose candidate failed, and in a static
// run the saved and (unless the parent shares it in place) live states of
// every node it pops. sync.Pool is safe for concurrent use, so distinct
// goroutines' heap families may share the pools even though each family is
// confined.

var (
	statePool = sync.Pool{New: func() any { return new(State) }}
	heapPool  = sync.Pool{New: func() any { return new(Heap) }}
)

func allocState(nglobals int) *State {
	s := statePool.Get().(*State)
	s.pooled = false
	if cap(s.Globals) >= nglobals {
		s.Globals = s.Globals[:nglobals]
	} else {
		s.Globals = make([]Value, nglobals)
	}
	return s
}

func allocHeap() *Heap {
	return heapPool.Get().(*Heap)
}

// copyValueInto deep-copies src into dst, reusing dst's Elems and Words
// backing arrays when they are large enough. dst must be exclusively owned
// by the caller.
func copyValueInto(dst, src *Value) {
	dst.T = src.T
	dst.Undef = src.Undef
	dst.I = src.I
	if src.Elems == nil {
		dst.Elems = nil
	} else {
		if cap(dst.Elems) >= len(src.Elems) {
			dst.Elems = dst.Elems[:len(src.Elems)]
		} else {
			dst.Elems = make([]Value, len(src.Elems))
		}
		for i := range src.Elems {
			copyValueInto(&dst.Elems[i], &src.Elems[i])
		}
	}
	if src.Words == nil {
		dst.Words = nil
	} else {
		if cap(dst.Words) >= len(src.Words) {
			dst.Words = dst.Words[:len(src.Words)]
		} else {
			dst.Words = make([]uint64, len(src.Words))
		}
		copy(dst.Words, src.Words)
	}
}

// releasedFSM is the FSM ordinal of a state sitting in the pool: negative,
// so indexing a per-state table with it panics and a fingerprint or hash of
// it matches no live state.
const releasedFSM = -1 << 30

// ReleaseState returns a state obtained from Snapshot to the pool. The
// caller asserts that no other code holds a reference to the state, its
// globals, or its heap container. Cell payloads are never recycled (they may
// be shared copy-on-write), nor is the heap's cell slice (a snapshot may
// share it); only the containers are. Releasing is always optional — an
// unreleased state is simply garbage-collected.
//
// Releasing the same state twice panics: a double release would hand one
// container to two future owners and corrupt an unrelated search, which is
// far harder to debug than a crash at the second release site. The check is
// best effort — it cannot fire once the pool has re-issued the struct. The
// released container is also poisoned: its FSM ordinal becomes releasedFSM
// and every global an undefined value of nil type, so a read through a stale
// pointer before the pool re-issues the container panics or changes a
// verdict instead of reading as a plausible state.
func ReleaseState(s *State) {
	if s == nil {
		return
	}
	s.own.acquire()
	if s.pooled {
		s.own.release()
		panic("vm: ReleaseState called twice on the same State")
	}
	s.pooled = true
	if h := s.Heap; h != nil {
		*h = Heap{}
		heapPool.Put(h)
	}
	s.Heap = nil
	s.FSM = releasedFSM
	// Globals keep their backing array (that is the point of pooling) but
	// drop payload references so pooled memory does not pin old values.
	for i := range s.Globals {
		s.Globals[i] = Value{Undef: true, Elems: s.Globals[i].Elems[:0], Words: s.Globals[i].Words[:0]}
	}
	// The guard is released before Put: once pooled, the container may be
	// another goroutine's at once.
	s.own.release()
	statePool.Put(s)
}
