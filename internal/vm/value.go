// Package vm implements the run-time value model of checked Estelle
// specifications, compiles their guards, transition blocks and functions
// into Go closures (Compile), and executes them (Exec). It plays the role of
// Dingo's generated C++ plus run-time library in the original Tango tool
// chain: module state (FSM state, global variables, dynamic memory) with
// deep snapshot/restore, and atomic execution of transition blocks that
// collects output interactions.
//
// Every value carries an "undefined" attribute, following §5.1 of the paper:
// in partial-trace mode, reading an undefined value propagates undefinedness
// through expressions, provided-clauses treat undefined booleans as true, and
// interaction-parameter comparisons treat undefined as equal to anything.
package vm

import (
	"fmt"
	"strings"

	"repro/internal/estelle/types"
)

// Value is a run-time value. The zero Value is invalid; construct values with
// Zero or the Make helpers.
type Value struct {
	T *types.Type
	// Undef is the paper's "undefined" attribute (§5.1).
	Undef bool
	// I holds ordinals (integer/boolean/char/enum/subrange ordinal value)
	// and pointers (heap address, 0 = nil).
	I int64
	// Elems holds array elements (flattened row-major) or record fields.
	Elems []Value
	// Words holds set membership bits; bit i stands for ordinal value i.
	Words []uint64
}

// Zero returns the initial value of type t. With undef set, scalar and
// pointer values start undefined (partial-trace semantics); otherwise they
// start as defined zero values (integer 0 or the subrange low bound, false,
// first enum member, nil pointer, empty set).
func Zero(t *types.Type, undef bool) Value {
	v := Value{T: t}
	switch t.Kind {
	case types.Array:
		n := t.ArrayLen()
		v.Elems = make([]Value, n)
		for i := range v.Elems {
			v.Elems[i] = Zero(t.Elem, undef)
		}
	case types.Record:
		v.Elems = make([]Value, len(t.Fields))
		for i, f := range t.Fields {
			v.Elems[i] = Zero(f.Type, undef)
		}
	case types.Set:
		v.Words = nil // empty set
		v.Undef = undef
	case types.Subrange:
		v.I = t.Lo
		v.Undef = undef
	default:
		v.Undef = undef
	}
	return v
}

// MakeInt returns a defined integer value.
func MakeInt(i int64) Value { return Value{T: types.Int, I: i} }

// MakeBool returns a defined boolean value.
func MakeBool(b bool) Value {
	v := Value{T: types.Bool}
	if b {
		v.I = 1
	}
	return v
}

// MakeOrdinal returns a defined ordinal value of type t.
func MakeOrdinal(t *types.Type, i int64) Value { return Value{T: t, I: i} }

// UndefValue returns an undefined value of type t (used for parameters of
// synthesized interactions at unobserved interaction points, §5.2).
func UndefValue(t *types.Type) Value { return Zero(t, true) }

// Copy returns a deep copy of v.
func (v Value) Copy() Value {
	out := v
	if v.Elems != nil {
		out.Elems = make([]Value, len(v.Elems))
		for i := range v.Elems {
			out.Elems[i] = v.Elems[i].Copy()
		}
	}
	if v.Words != nil {
		out.Words = make([]uint64, len(v.Words))
		copy(out.Words, v.Words)
	}
	return out
}

// IsNil reports whether a pointer value is nil.
func (v Value) IsNil() bool { return v.I == 0 }

// setHas reports set membership of ordinal x. The representation is
// canonical: bit i stands for ordinal value i, independent of the set type's
// declared element range, so values of compatible set types share bits.
func (v Value) setHas(x int64) bool {
	w := int(x / 64)
	if x < 0 || w >= len(v.Words) {
		return false
	}
	return v.Words[w]&(1<<uint(x%64)) != 0
}

// setAdd inserts ordinal x (0 <= x < limit) into the set, growing Words.
func (v *Value) setAdd(x int64, limit int) {
	if x < 0 || int(x) >= limit {
		return
	}
	w := int(x / 64)
	if w >= len(v.Words) {
		words := make([]uint64, w+1)
		copy(words, v.Words)
		v.Words = words
	}
	v.Words[w] |= 1 << uint(x%64)
}

// Equal performs deep structural equality between two defined values.
// Undefined handling is the caller's responsibility (it differs between
// normal expressions and trace-parameter matching).
func Equal(a, b Value) bool {
	switch a.T.Root().Kind {
	case types.Array, types.Record:
		if len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if a.Elems[i].Undef != b.Elems[i].Undef {
				return false
			}
			if !a.Elems[i].Undef && !Equal(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case types.Set:
		return setEqual(a, b)
	default:
		return a.I == b.I
	}
}

func setEqual(a, b Value) bool {
	n := len(a.Words)
	if len(b.Words) > n {
		n = len(b.Words)
	}
	for i := 0; i < n; i++ {
		var wa, wb uint64
		if i < len(a.Words) {
			wa = a.Words[i]
		}
		if i < len(b.Words) {
			wb = b.Words[i]
		}
		if wa != wb {
			return false
		}
	}
	return true
}

// MatchParam compares a generated interaction parameter against a traced
// parameter under partial-trace semantics: an undefined side matches
// anything (§5.1).
func MatchParam(gen, traced Value) bool {
	if gen.Undef || traced.Undef {
		return true
	}
	switch gen.T.Root().Kind {
	case types.Array, types.Record:
		if len(gen.Elems) != len(traced.Elems) {
			return false
		}
		for i := range gen.Elems {
			if !MatchParam(gen.Elems[i], traced.Elems[i]) {
				return false
			}
		}
		return true
	case types.Set:
		return setEqual(gen, traced)
	default:
		return gen.I == traced.I
	}
}

// String renders the value for traces and diagnostics. Ordinals of enum type
// print their member name; records print {f=v,...}; arrays print [v,...].
func (v Value) String() string {
	if v.Undef {
		return "?"
	}
	t := v.T
	if t == nil {
		return "<invalid>"
	}
	switch t.Root().Kind {
	case types.Boolean:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case types.Char:
		return fmt.Sprintf("'%c'", byte(v.I))
	case types.Enum:
		root := t.Root()
		if v.I >= 0 && v.I < int64(len(root.EnumNames)) {
			return root.EnumNames[v.I]
		}
		return fmt.Sprintf("enum(%d)", v.I)
	case types.Integer, types.Subrange:
		return fmt.Sprint(v.I)
	case types.Pointer:
		if v.I == 0 {
			return "nil"
		}
		return fmt.Sprintf("ptr(%d)", v.I)
	case types.Record:
		var sb strings.Builder
		sb.WriteByte('{')
		for i, f := range t.Root().Fields {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%s=%s", f.Name, v.Elems[i])
		}
		sb.WriteByte('}')
		return sb.String()
	case types.Array:
		var sb strings.Builder
		sb.WriteByte('[')
		for i := range v.Elems {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.Elems[i].String())
		}
		sb.WriteByte(']')
		return sb.String()
	case types.Set:
		var sb strings.Builder
		sb.WriteByte('[')
		lo, hi := t.Root().Elem.OrdinalRange()
		if lo < 0 {
			lo = 0
		}
		if hi >= 4096 {
			hi = 4095 // canonical set universe bound
		}
		first := true
		for x := lo; x <= hi; x++ {
			if v.setHas(x) {
				if !first {
					sb.WriteByte(',')
				}
				first = false
				sb.WriteString(fmt.Sprint(x))
			}
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return "<invalid>"
	}
}

// Fingerprint writes a canonical byte representation of the value into sb,
// used for visited-state hashing. Undefined values hash distinctly.
func (v Value) Fingerprint(sb *strings.Builder) {
	if v.Undef {
		sb.WriteByte('U')
		return
	}
	switch {
	case v.Elems != nil:
		sb.WriteByte('(')
		for i := range v.Elems {
			v.Elems[i].Fingerprint(sb)
		}
		sb.WriteByte(')')
	case v.Words != nil:
		sb.WriteByte('s')
		for _, w := range v.Words {
			fmt.Fprintf(sb, "%x.", w)
		}
	default:
		fmt.Fprintf(sb, "%d,", v.I)
	}
}
