package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/estelle/sema"
	"repro/internal/estelle/types"
)

// This file implements a portable binary encoding of State for checkpoint
// files. Values reference their *types.Type, and type graphs can be cyclic
// (a pointer type's Elem may be a record containing that pointer type), so
// the encoding cannot serialize types themselves. Instead both sides build a
// TypeTable — a deterministic enumeration of every type reachable from the
// checked Program — and values are encoded against table indexes. Because
// the table is a pure function of the Program, an encoder and a decoder
// working from the same specification agree on every index.

// ErrNotSerializable reports a state that references a type outside the
// encoder's TypeTable. Checkpoint writers treat it as "skip this checkpoint",
// never as fatal.
var ErrNotSerializable = errors.New("vm: state not serializable")

// ErrBadStateEncoding reports malformed or truncated state bytes.
var ErrBadStateEncoding = errors.New("vm: malformed state encoding")

// TypeTable assigns a stable, deterministic index to every type reachable
// from a Program: the predeclared types first, then the types of global
// variables, transition parameters, function frames, channel interaction
// parameters and interaction-point dimensions, each walked structurally in
// declaration order (map-valued program fields are walked in sorted key
// order). The walk is cycle-safe.
type TypeTable struct {
	list  []*types.Type
	index map[*types.Type]int
}

// NewTypeTable enumerates the types of prog.
func NewTypeTable(prog *sema.Program) *TypeTable {
	tt := &TypeTable{index: make(map[*types.Type]int)}
	tt.add(types.Int)
	tt.add(types.Bool)
	tt.add(types.Chr)
	for _, v := range prog.GlobalVars {
		tt.add(v.Type)
	}
	for _, tr := range prog.Trans {
		for _, p := range tr.ParamSyms {
			tt.add(p.Type)
		}
	}
	for _, fn := range prog.Funcs {
		for _, p := range fn.Params {
			tt.add(p.Type)
		}
		for _, l := range fn.Locals {
			tt.add(l.Type)
		}
		tt.add(fn.Result)
	}
	chNames := make([]string, 0, len(prog.Channels))
	for name := range prog.Channels {
		chNames = append(chNames, name)
	}
	sort.Strings(chNames)
	for _, cn := range chNames {
		ch := prog.Channels[cn]
		inNames := make([]string, 0, len(ch.Interactions))
		for name := range ch.Interactions {
			inNames = append(inNames, name)
		}
		sort.Strings(inNames)
		for _, in := range inNames {
			for _, p := range ch.Interactions[in].Params {
				tt.add(p.Type)
			}
		}
	}
	for _, g := range prog.IPGroups {
		for _, d := range g.Dims {
			tt.add(d)
		}
	}
	return tt
}

func (tt *TypeTable) add(t *types.Type) {
	if t == nil {
		return
	}
	if _, ok := tt.index[t]; ok {
		return
	}
	tt.index[t] = len(tt.list)
	tt.list = append(tt.list, t)
	tt.add(t.Base)
	for _, ix := range t.Indexes {
		tt.add(ix)
	}
	tt.add(t.Elem)
	for _, f := range t.Fields {
		tt.add(f.Type)
	}
}

// Len returns the number of enumerated types.
func (tt *TypeTable) Len() int { return len(tt.list) }

// Fingerprint hashes the table's shape so a decoder can detect that it was
// built from a different specification than the encoder. Each entry hashes
// its shallow structure only (kind, name, bounds, member counts) — recursion
// is unnecessary because referenced types occupy their own table slots, and
// unsafe because type graphs may be cyclic.
func (tt *TypeTable) Fingerprint() uint64 {
	h := fnv.New64a()
	for i, t := range tt.list {
		fmt.Fprintf(h, "%d:%d:%s:%d:%d:%d:%d:%d:%d;", i, t.Kind, t.Name,
			len(t.EnumNames), t.Lo, t.Hi, len(t.Indexes), len(t.Fields), tt.ref(t.Elem))
	}
	return h.Sum64()
}

// ref returns the table index of t, or -1 for nil/unknown.
func (tt *TypeTable) ref(t *types.Type) int {
	if t == nil {
		return -1
	}
	if i, ok := tt.index[t]; ok {
		return i
	}
	return -1
}

// ---------------------------------------------------------------------------
// Encoding

type stateEnc struct {
	buf []byte
	tt  *TypeTable
}

func (e *stateEnc) uvarint(x uint64) {
	e.buf = binary.AppendUvarint(e.buf, x)
}

func (e *stateEnc) varint(x int64) {
	e.buf = binary.AppendVarint(e.buf, x)
}

func (e *stateEnc) value(v *Value) error {
	idx, ok := e.tt.index[v.T]
	if !ok {
		return fmt.Errorf("%w: type %s not in table", ErrNotSerializable, v.T)
	}
	e.uvarint(uint64(idx))
	var flags byte
	if v.Undef {
		flags |= 1
	}
	if v.Elems != nil {
		flags |= 2
	}
	if v.Words != nil {
		flags |= 4
	}
	e.buf = append(e.buf, flags)
	e.varint(v.I)
	if v.Elems != nil {
		e.uvarint(uint64(len(v.Elems)))
		for i := range v.Elems {
			if err := e.value(&v.Elems[i]); err != nil {
				return err
			}
		}
	}
	if v.Words != nil {
		e.uvarint(uint64(len(v.Words)))
		for _, w := range v.Words {
			e.uvarint(w)
		}
	}
	return nil
}

// EncodeState serializes s against the type table. The encoding starts with
// the table fingerprint and length, so DecodeState can reject bytes produced
// under a different specification before touching any value.
func EncodeState(s *State, tt *TypeTable) ([]byte, error) {
	e := &stateEnc{tt: tt}
	e.uvarint(tt.Fingerprint())
	e.uvarint(uint64(tt.Len()))
	e.uvarint(uint64(s.FSM))
	e.uvarint(uint64(len(s.Globals)))
	for i := range s.Globals {
		if err := e.value(&s.Globals[i]); err != nil {
			return nil, err
		}
	}
	h := s.Heap
	e.uvarint(uint64(h.next))
	e.uvarint(uint64(h.Allocs))
	e.uvarint(uint64(h.Disposes))
	e.uvarint(uint64(len(h.cells)))
	for _, c := range h.cells {
		e.uvarint(uint64(c.addr))
		if err := e.value(&c.c.v); err != nil {
			return nil, err
		}
	}
	return e.buf, nil
}

// ---------------------------------------------------------------------------
// Decoding

type stateDec struct {
	buf []byte
	tt  *TypeTable
}

func (d *stateDec) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, ErrBadStateEncoding
	}
	d.buf = d.buf[n:]
	return x, nil
}

func (d *stateDec) varint() (int64, error) {
	x, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, ErrBadStateEncoding
	}
	d.buf = d.buf[n:]
	return x, nil
}

// maxDecodeElems bounds aggregate lengths against corrupt inputs.
const maxDecodeElems = 1 << 24

// count reads the length of an aggregate of what. Every element takes at
// least one byte, so a length beyond the remaining input is corrupt; it is
// refused before anything is allocated for it.
func (d *stateDec) count(what string) (uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > maxDecodeElems || n > uint64(len(d.buf)) {
		return 0, fmt.Errorf("%w: %d %s", ErrBadStateEncoding, n, what)
	}
	return n, nil
}

func (d *stateDec) value(v *Value) error {
	idx, err := d.uvarint()
	if err != nil {
		return err
	}
	if idx >= uint64(len(d.tt.list)) {
		return fmt.Errorf("%w: type index %d out of range", ErrBadStateEncoding, idx)
	}
	v.T = d.tt.list[idx]
	if len(d.buf) == 0 {
		return ErrBadStateEncoding
	}
	flags := d.buf[0]
	d.buf = d.buf[1:]
	v.Undef = flags&1 != 0
	if v.I, err = d.varint(); err != nil {
		return err
	}
	if flags&2 != 0 {
		n, err := d.count("elements")
		if err != nil {
			return err
		}
		v.Elems = make([]Value, n)
		for i := range v.Elems {
			if err := d.value(&v.Elems[i]); err != nil {
				return err
			}
		}
	}
	if flags&4 != 0 {
		n, err := d.count("set words")
		if err != nil {
			return err
		}
		v.Words = make([]uint64, n)
		for i := range v.Words {
			if v.Words[i], err = d.uvarint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeState reconstructs a State encoded by EncodeState. The decoder's
// type table must have been built from the same specification; a fingerprint
// mismatch yields ErrBadStateEncoding.
func DecodeState(b []byte, tt *TypeTable) (*State, error) {
	d := &stateDec{buf: b, tt: tt}
	fp, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if fp != tt.Fingerprint() {
		return nil, fmt.Errorf("%w: type table fingerprint mismatch", ErrBadStateEncoding)
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n != uint64(tt.Len()) {
		return nil, fmt.Errorf("%w: type table length mismatch", ErrBadStateEncoding)
	}
	fsm, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	ng, err := d.count("globals")
	if err != nil {
		return nil, err
	}
	s := &State{FSM: int(fsm), Globals: make([]Value, ng), Heap: NewHeap()}
	for i := range s.Globals {
		if err := d.value(&s.Globals[i]); err != nil {
			return nil, err
		}
	}
	next, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	allocs, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	disposes, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if next == 0 || next > math.MaxInt64 {
		return nil, fmt.Errorf("%w: next heap address %d", ErrBadStateEncoding, next)
	}
	s.Heap.next = int64(next)
	s.Heap.Allocs = int64(allocs)
	s.Heap.Disposes = int64(disposes)
	nc, err := d.count("heap cells")
	if err != nil {
		return nil, err
	}
	s.Heap.cells = make([]heapEntry, 0, nc)
	prev := uint64(0)
	for i := uint64(0); i < nc; i++ {
		addr, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		// The heap invariant: addresses are positive, strictly increasing
		// and below next, so a later Alloc never reuses a live address.
		if addr <= prev || addr >= next {
			return nil, fmt.Errorf("%w: heap address %d after %d (next %d)", ErrBadStateEncoding, addr, prev, next)
		}
		prev = addr
		var v Value
		if err := d.value(&v); err != nil {
			return nil, err
		}
		// The fresh heap owns its slice and every decoded cell outright.
		s.Heap.cells = append(s.Heap.cells, heapEntry{int64(addr), &cell{v: v, gen: s.Heap.gen}})
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadStateEncoding, len(d.buf))
	}
	return s, nil
}
