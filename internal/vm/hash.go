package vm

import "strconv"

// This file implements zero-allocation 64-bit fingerprint hashing for values
// and states. The hash is FNV-1a over exactly the canonical byte stream that
// the string Fingerprint methods produce, so a state's hash is the FNV-1a of
// its fingerprint string; tests in hash_test.go pin that on randomized values
// and states. The string form remains what paranoid FPMaps key by (see
// fpmap.go) and the canonical cross-process form used by checkpoints.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hasher is an incremental FNV-1a 64-bit hash over a canonical byte stream.
// The zero Hasher is not valid; start from NewHasher. All Write methods are
// allocation-free.
type Hasher struct{ h uint64 }

// NewHasher returns a Hasher seeded with the FNV-1a offset basis.
func NewHasher() Hasher { return Hasher{h: fnvOffset64} }

// Byte folds one byte into the hash.
func (h *Hasher) Byte(b byte) {
	h.h = (h.h ^ uint64(b)) * fnvPrime64
}

// Str folds the bytes of s into the hash.
func (h *Hasher) Str(s string) {
	x := h.h
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * fnvPrime64
	}
	h.h = x
}

// Int folds the decimal representation of i into the hash, matching the
// bytes "%d" would produce. The digits are written backwards into a stack
// buffer and folded in reading order.
func (h *Hasher) Int(i int64) {
	x := h.h
	u := uint64(i)
	if i < 0 {
		x = (x ^ '-') * fnvPrime64
		u = -u // also right for math.MinInt64, whose magnitude fits in a uint64
	}
	var buf [20]byte
	n := len(buf)
	for u >= 10 {
		n--
		buf[n] = byte('0' + u%10)
		u /= 10
	}
	n--
	buf[n] = byte('0' + u)
	for _, c := range buf[n:] {
		x = (x ^ uint64(c)) * fnvPrime64
	}
	h.h = x
}

// Hex folds the lowercase-hex representation of u into the hash,
// matching the bytes "%x" would produce.
func (h *Hasher) Hex(u uint64) {
	var buf [16]byte
	b := strconv.AppendUint(buf[:0], u, 16)
	for _, c := range b {
		h.h = (h.h ^ uint64(c)) * fnvPrime64
	}
}

// Mix64 folds u into the hash as 8 raw little-endian bytes. It is used
// to mix an already-hashed component, such as a state hash being extended
// with trace cursors.
func (h *Hasher) Mix64(u uint64) {
	x := h.h
	for i := 0; i < 8; i++ {
		x = (x ^ (u & 0xff)) * fnvPrime64
		u >>= 8
	}
	h.h = x
}

// Sum64 returns the current hash.
func (h *Hasher) Sum64() uint64 { return h.h }

// hashInto mirrors Value.Fingerprint byte for byte.
func (v *Value) hashInto(h *Hasher) {
	if v.Undef {
		h.Byte('U')
		return
	}
	switch {
	case v.Elems != nil:
		h.Byte('(')
		for i := range v.Elems {
			v.Elems[i].hashInto(h)
		}
		h.Byte(')')
	case v.Words != nil:
		h.Byte('s')
		for _, w := range v.Words {
			h.Hex(w)
			h.Byte('.')
		}
	default:
		h.Int(v.I)
		h.Byte(',')
	}
}

// Hash64 returns the value's 64-bit fingerprint hash.
func (v *Value) Hash64() uint64 {
	h := NewHasher()
	v.hashInto(&h)
	return h.Sum64()
}

// Hash64 returns the state's 64-bit fingerprint hash: FNV-1a over exactly
// the bytes of Fingerprint, "F<fsm>|" + globals + "|" + each heap cell as
// "@<addr>" + payload in address order.
func (s *State) Hash64() uint64 {
	h := NewHasher()
	h.Byte('F')
	h.Int(int64(s.FSM))
	h.Byte('|')
	for i := range s.Globals {
		s.Globals[i].hashInto(&h)
	}
	h.Byte('|')
	for _, e := range s.Heap.cells {
		h.Byte('@')
		h.Int(e.addr)
		e.c.v.hashInto(&h)
	}
	return h.Sum64()
}
