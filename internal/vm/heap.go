package vm

import (
	"fmt"
	"sort"
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

// Heap models Estelle dynamic memory (new/dispose). Addresses are opaque
// positive integers; 0 is nil. The heap supports snapshot/restore, which is
// what makes backtracking over transitions that allocate memory possible
// (§3.2.2 of the paper discusses the cost of exactly this operation).
//
// Snapshot is O(1): it shares the cell map between the two heaps and bumps a
// family-wide generation counter so that neither side owns any existing cell.
// The first write on either side lazily clones the map container
// (ensureOwnedMap) and copies just the written cell, so branches that never
// touch dynamic memory pay nothing for it.
//
// Concurrency contract: each Heap (and the State wrapping it) is owned by
// exactly one goroutine at a time — Snapshot and the write paths mutate the
// struct's ownership fields without locks. Distinct heaps of the same
// snapshot family MAY live on different goroutines simultaneously, provided
// every handoff of a heap between goroutines goes through a happens-before
// edge (channel send, mutex, or an atomic publish such as the analysis
// work-stealing deque). Family-wide safety rests on three invariants:
//
//  1. the generation counter shared by the family is atomic;
//  2. a cells map referenced by more than one heap is never written — both
//     sides of a Snapshot carry mapShared=true and clone before their first
//     write, so mapShared=false implies exclusive map ownership;
//  3. a cell payload is mutated in place only when cell.gen == heap.gen,
//     which holds only for cells created or COW-copied by this heap after
//     its last Snapshot — such cells are reachable from this heap alone.
//
// The -race tests in this package exercise exactly this cross-goroutine
// sharing. The parallel search in internal/analysis relies on it.
type Heap struct {
	cells map[int64]*cell
	next  int64

	// Allocs and Disposes count lifetime operations, for statistics.
	Allocs, Disposes int64

	gen       uint64         // ownership generation: cells with this gen are exclusively ours
	genCtr    *atomic.Uint64 // generation counter shared across the snapshot family
	mapShared bool           // the cells map may be aliased by other heaps in the family
}

// NewHeap returns an empty heap rooting a fresh snapshot family.
func NewHeap() *Heap {
	ctr := new(atomic.Uint64)
	ctr.Store(1)
	return &Heap{cells: make(map[int64]*cell), next: 1, gen: 1, genCtr: ctr}
}

// ensureOwnedMap makes the cells map exclusively ours, cloning the container
// (pointers only, not payloads) if a snapshot may still alias it.
func (h *Heap) ensureOwnedMap() {
	if !h.mapShared {
		return
	}
	m := newCellMap(len(h.cells))
	for a, c := range h.cells {
		m[a] = c
	}
	h.cells = m
	h.mapShared = false
}

// Alloc allocates a cell of type t and returns its address. With undef set
// the new cell's scalars start undefined (partial-trace mode).
func (h *Heap) Alloc(t *types.Type, undef bool) int64 {
	h.ensureOwnedMap()
	addr := h.next
	h.next++
	h.cells[addr] = &cell{v: Zero(t, undef), gen: h.gen}
	h.Allocs++
	return addr
}

// Get returns the cell at addr for writing, copying it first if a snapshot
// may still share it. Use Load for read-only access.
func (h *Heap) Get(addr int64) (*Value, error) {
	c, err := h.lookup(addr)
	if err != nil {
		return nil, err
	}
	if c.gen != h.gen {
		h.ensureOwnedMap()
		c = &cell{v: c.v.Copy(), gen: h.gen}
		h.cells[addr] = c
	}
	return &c.v, nil
}

// Load returns the cell at addr for reading only. The returned value must
// not be mutated through: it may be shared with snapshots of this heap.
func (h *Heap) Load(addr int64) (*Value, error) {
	c, err := h.lookup(addr)
	if err != nil {
		return nil, err
	}
	return &c.v, nil
}

func (h *Heap) lookup(addr int64) (*cell, error) {
	if addr == 0 {
		return nil, fmt.Errorf("nil pointer dereference")
	}
	c, ok := h.cells[addr]
	if !ok {
		return nil, fmt.Errorf("dangling pointer dereference (address %d)", addr)
	}
	return c, nil
}

// Dispose frees the cell at addr.
func (h *Heap) Dispose(addr int64) error {
	if addr == 0 {
		return fmt.Errorf("dispose of nil pointer")
	}
	if _, ok := h.cells[addr]; !ok {
		return fmt.Errorf("dispose of unallocated address %d", addr)
	}
	h.ensureOwnedMap()
	delete(h.cells, addr)
	h.Disposes++
	return nil
}

// Len returns the number of live cells.
func (h *Heap) Len() int { return len(h.cells) }

// Snapshot returns a logically independent copy of the heap in O(1): the
// cell map is shared and both heaps give up ownership of every existing cell
// by taking fresh generations, so the first write on either side copies just
// the cell it touches. Allocation counters carry over so that addresses
// allocated after a restore do not collide with addresses that may still be
// referenced by other saved states.
func (h *Heap) Snapshot() *Heap {
	// One atomic bump hands out two fresh generations, one per side; the
	// counter is the only family-wide mutable datum, so snapshots of
	// *different* heaps in the family may race benignly from different
	// goroutines (the heap structs themselves stay single-owner).
	g := h.genCtr.Add(2)
	h.gen = g - 1
	out := allocHeap()
	*out = Heap{
		cells:     h.cells,
		next:      h.next,
		Allocs:    h.Allocs,
		Disposes:  h.Disposes,
		gen:       g,
		genCtr:    h.genCtr,
		mapShared: true,
	}
	h.mapShared = true
	return out
}

// Fingerprint writes a canonical representation of the heap reachable-state
// into sb. Cells are visited in address order; because address allocation is
// deterministic along any execution path, equal heaps along different paths
// of the same search produce equal fingerprints whenever their allocation
// histories coincide.
func (h *Heap) Fingerprint(sb *strings.Builder) {
	addrs := make([]int64, 0, len(h.cells))
	for a := range h.cells {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(sb, "@%d", a)
		h.cells[a].v.Fingerprint(sb)
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
	for _, c := range s.Heap.cells {
		total += c.v.approxBytes()
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
