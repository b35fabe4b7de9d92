package vm

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/estelle/types"
)

// cell is one heap allocation together with the ownership generation of the
// heap that last wrote it. A heap may mutate a cell in place only when the
// cell's gen equals the heap's own gen; any other cell is potentially shared
// with snapshots and must be copied before the first write (copy-on-write).
type cell struct {
	v   Value
	gen uint64
}

// heapEntry is one live cell of a Heap, keyed by its address.
type heapEntry struct {
	addr int64
	c    *cell
}

// Heap models Estelle dynamic memory (new/dispose). Addresses are opaque
// positive integers; 0 is nil. The heap supports snapshot/restore, which is
// what makes backtracking over transitions that allocate memory possible
// (§3.2.2 of the paper discusses the cost of exactly this operation).
//
// The live cells sit in a slice sorted by address. next only grows (across
// Snapshot and DecodeState too), so every live address is below next and
// Alloc appends; Get, Load and Dispose find a cell by binary search, and
// Fingerprint and EncodeState walk the slice in order without sorting.
//
// Snapshot is O(1): it shares the cell slice between the two heaps and bumps
// a family-wide generation counter so that neither side owns any existing
// cell. The first Alloc, Dispose or cell copy on either side copies the
// slice of (address, cell pointer) pairs (ensureOwned) and, for Get, just
// the written cell, so branches that never touch dynamic memory pay nothing
// for it.
//
// Concurrency contract: each Heap (and the State wrapping it) is owned by
// exactly one goroutine at a time — Snapshot and the write paths mutate the
// struct's ownership fields without locks. Distinct heaps of the same
// snapshot family MAY live on different goroutines simultaneously, provided
// every handoff of a heap between goroutines goes through a happens-before
// edge (channel send, mutex, or an atomic publish). Family-wide safety rests
// on three invariants:
//
//  1. the generation counter shared by the family is atomic;
//  2. a cell slice referenced by more than one heap is never written — both
//     sides of a Snapshot carry shared=true and copy it before their first
//     write, so shared=false implies exclusive ownership of the slice and of
//     its spare capacity;
//  3. a cell payload is mutated in place only when cell.gen == heap.gen,
//     which holds only for cells created or COW-copied by this heap after
//     its last Snapshot — such cells are reachable from this heap alone.
//
// The -race tests in this package exercise exactly this cross-goroutine
// sharing. No caller hands a family across goroutines today (the analyzer's
// search runs on one goroutine); the contract keeps doing so safe.
type Heap struct {
	cells []heapEntry // live cells, in increasing address order
	next  int64       // the next address Alloc hands out; above every live address

	// Allocs and Disposes count lifetime operations, for statistics.
	Allocs, Disposes int64

	gen    uint64         // ownership generation: cells with this gen are exclusively ours
	genCtr *atomic.Uint64 // generation counter shared across the snapshot family
	shared bool           // the cells slice may be aliased by other heaps in the family
}

// NewHeap returns an empty heap rooting a fresh snapshot family.
func NewHeap() *Heap {
	ctr := new(atomic.Uint64)
	ctr.Store(1)
	return &Heap{next: 1, gen: 1, genCtr: ctr}
}

// ensureOwned makes the cells slice exclusively ours, copying the pairs
// (pointers only, not payloads) if a snapshot may still alias them. The
// copy leaves room for one Alloc.
func (h *Heap) ensureOwned() {
	if !h.shared {
		return
	}
	cells := make([]heapEntry, len(h.cells), len(h.cells)+1)
	copy(cells, h.cells)
	h.cells = cells
	h.shared = false
}

// find returns the index of addr in h.cells, or the index where it would be
// inserted, and whether it is present. It is written out rather than
// calling slices.BinarySearchFunc, whose comparison closure costs an
// indirect call per probe; every pointer dereference goes through here.
func (h *Heap) find(addr int64) (int, bool) {
	lo, hi := 0, len(h.cells)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.cells[m].addr < addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(h.cells) && h.cells[lo].addr == addr
}

// Alloc allocates a cell of type t and returns its address. With undef set
// the new cell's scalars start undefined (partial-trace mode).
func (h *Heap) Alloc(t *types.Type, undef bool) int64 {
	h.ensureOwned()
	addr := h.next
	h.next++
	h.cells = append(h.cells, heapEntry{addr, &cell{v: Zero(t, undef), gen: h.gen}})
	h.Allocs++
	return addr
}

// Get returns the cell at addr for writing, copying it first if a snapshot
// may still share it. Use Load for read-only access.
func (h *Heap) Get(addr int64) (*Value, error) {
	i, err := h.lookup(addr)
	if err != nil {
		return nil, err
	}
	c := h.cells[i].c
	if c.gen != h.gen {
		h.ensureOwned()
		c = &cell{v: c.v.Copy(), gen: h.gen}
		h.cells[i].c = c
	}
	return &c.v, nil
}

// Load returns the cell at addr for reading only. The returned value must
// not be mutated through: it may be shared with snapshots of this heap.
func (h *Heap) Load(addr int64) (*Value, error) {
	i, err := h.lookup(addr)
	if err != nil {
		return nil, err
	}
	return &h.cells[i].c.v, nil
}

func (h *Heap) lookup(addr int64) (int, error) {
	if addr == 0 {
		return 0, fmt.Errorf("nil pointer dereference")
	}
	i, ok := h.find(addr)
	if !ok {
		return 0, fmt.Errorf("dangling pointer dereference (address %d)", addr)
	}
	return i, nil
}

// Dispose frees the cell at addr.
func (h *Heap) Dispose(addr int64) error {
	if addr == 0 {
		return fmt.Errorf("dispose of nil pointer")
	}
	i, ok := h.find(addr)
	if !ok {
		return fmt.Errorf("dispose of unallocated address %d", addr)
	}
	h.ensureOwned()
	h.cells = slices.Delete(h.cells, i, i+1) // shifts in place, clears the vacated slot
	h.Disposes++
	return nil
}

// Len returns the number of live cells.
func (h *Heap) Len() int { return len(h.cells) }

// Snapshot returns a logically independent copy of the heap in O(1): the
// cell slice is shared and both heaps give up ownership of every existing
// cell by taking fresh generations, so the first write on either side copies
// just the slice of pairs and the cell it touches. Allocation counters carry
// over so that addresses allocated after a restore do not collide with
// addresses that may still be referenced by other saved states.
func (h *Heap) Snapshot() *Heap {
	// One atomic bump hands out two fresh generations, one per side; the
	// counter is the only family-wide mutable datum, so snapshots of
	// *different* heaps in the family may race benignly from different
	// goroutines (the heap structs themselves stay single-owner).
	g := h.genCtr.Add(2)
	h.gen = g - 1
	out := allocHeap()
	*out = Heap{
		cells:    h.cells,
		next:     h.next,
		Allocs:   h.Allocs,
		Disposes: h.Disposes,
		gen:      g,
		genCtr:   h.genCtr,
		shared:   true,
	}
	h.shared = true
	return out
}

// Fingerprint writes a canonical representation of the heap reachable-state
// into sb. Cells are visited in address order; because address allocation is
// deterministic along any execution path, equal heaps along different paths
// of the same search produce equal fingerprints whenever their allocation
// histories coincide.
func (h *Heap) Fingerprint(sb *strings.Builder) {
	for _, e := range h.cells {
		fmt.Fprintf(sb, "@%d", e.addr)
		e.c.v.Fingerprint(sb)
	}
}

// State is the VM half of a TAM state (§2.3 of the paper): the FSM control
// state expressed as an ordinal, the values of all global module variables,
// and dynamic memory. Queue states (trace cursors) are layered on top by the
// analyzer.
type State struct {
	FSM     int
	Globals []Value
	Heap    *Heap

	// pooled is set while the container sits in the state pool, turning a
	// double ReleaseState into an immediate panic instead of silently
	// corrupting whatever search the pool re-issued the struct to. Best
	// effort by design: the flag clears as soon as the pool re-issues it.
	pooled bool
	// own is the debug-mode single-owner assertion: zero-sized in normal
	// builds, an atomic guard under -race (see owner_race.go).
	own stateOwner
}

// Snapshot returns a logically independent copy of the state (the paper's
// Save operation, minus queue cursors which the analyzer copies itself).
// Globals are deep-copied into a pooled state; the heap is shared
// copy-on-write (see Heap.Snapshot). States obtained here may be handed back
// with ReleaseState once provably unreachable.
func (s *State) Snapshot() *State {
	s.own.acquire()
	defer s.own.release()
	out := allocState(len(s.Globals))
	out.FSM = s.FSM
	for i := range s.Globals {
		copyValueInto(&out.Globals[i], &s.Globals[i])
	}
	out.Heap = s.Heap.Snapshot()
	return out
}

// ApproxBytes estimates how much memory this state's payload occupies: one
// Value header per global, per heap cell, and per nested element, plus the
// backing arrays of composites (array/record element headers, set words).
// It moves with the quantity §3.2.2 worries about — the per-Save cost of
// deep state copying — and sizes the dead-state memo's byte budget. The
// observability layer feeds it to the snapshot-bytes metric.
func (s *State) ApproxBytes() int64 {
	const valueHeader = 64 // unsafe.Sizeof(Value{}) rounded up to a cache line
	total := int64(valueHeader)
	for i := range s.Globals {
		total += s.Globals[i].approxBytes()
	}
	for _, e := range s.Heap.cells {
		total += e.c.v.approxBytes()
	}
	return total
}

func (v *Value) approxBytes() int64 {
	const valueHeader = 64
	total := int64(valueHeader)
	for i := range v.Elems {
		total += v.Elems[i].approxBytes()
	}
	total += int64(len(v.Words)) * 8
	return total
}

// Fingerprint returns a canonical string for visited-state hashing. It is
// the authoritative collision-free form; Hash64 is the fast 64-bit digest of
// the same byte stream.
func (s *State) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "F%d|", s.FSM)
	for i := range s.Globals {
		s.Globals[i].Fingerprint(&sb)
	}
	sb.WriteByte('|')
	s.Heap.Fingerprint(&sb)
	return sb.String()
}
