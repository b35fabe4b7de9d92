package vm

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// This file implements zero-allocation 64-bit fingerprint hashing for values,
// heaps, and states. The hash is FNV-1a over exactly the canonical byte
// stream that the string Fingerprint methods produce, so equal string
// fingerprints always imply equal hashes; a property test in hash_test.go
// enforces the correspondence on randomized states. The string form remains
// the collision-check fallback (see FPSet's paranoid mode) and the canonical
// cross-process form used by checkpoints.

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
// to mix already-hashed components (for example a heap's order-independent
// digest, or a state hash being extended with trace cursors).
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

// hash64 returns an order-independent digest of the heap: each live cell is
// hashed as its own FNV-1a chain over the same "@addr" + payload bytes the
// string Fingerprint writes, and the per-cell sums are XOR-combined. Because
// each chain bakes in the cell's address, the digest identifies the cell set
// in any visiting order. The form dates from the map-backed heap; with the
// cells now in address order one chain would do. The XOR form is kept only
// so that replacing the map by the sorted slice changed no hash value, which
// let HashHits, PrunedByMemo and every other search statistic be compared
// byte for byte across that change. Hash values are never persisted: they
// live in the analyzer's and the simulator's in-memory sets, and checkpoints
// carry the fingerprint string.
func (h *Heap) hash64() uint64 {
	var acc uint64
	for _, e := range h.cells {
		ch := NewHasher()
		ch.Byte('@')
		ch.Int(e.addr)
		e.c.v.hashInto(&ch)
		acc ^= ch.Sum64()
	}
	return acc
}

// Hash64 returns the state's 64-bit fingerprint hash: the FNV-1a chain over
// the same "F<fsm>|" + globals + "|" prefix the string Fingerprint writes,
// extended with the heap's order-independent digest. Equal string
// fingerprints imply equal hashes.
func (s *State) Hash64() uint64 {
	h := NewHasher()
	h.Byte('F')
	h.Int(int64(s.FSM))
	h.Byte('|')
	for i := range s.Globals {
		s.Globals[i].hashInto(&h)
	}
	h.Byte('|')
	h.Mix64(s.Heap.hash64())
	return h.Sum64()
}

// fpShardBits sizes the FPSet stripe count. 64 shards keeps per-shard
// contention negligible for any plausible worker count while the fixed
// array stays a few cache lines of mutexes.
const fpShardBits = 6

type fpShard struct {
	mu       sync.Mutex
	fast     map[uint64]struct{}
	byString map[string]struct{}
	byHash   map[uint64]string
}

// FPSet is a visited-fingerprint set shared by the analyzer's seen-state
// pruning and the simulator's reachability exploration. In fast mode it
// stores only 64-bit hashes (8 bytes a state instead of a full canonical
// string). In paranoid mode — for tests and for callers that cannot tolerate
// even a 2^-64 collision — the canonical string stays authoritative and the
// hash is used only to detect and count collisions.
//
// The set is striped into shards keyed by the fingerprint's high bits, each
// behind its own mutex, so concurrent searches (the work-stealing parallel
// backtracker, parallel reachability sweeps) can share one set without a
// global lock. Single-goroutine callers pay one uncontended lock per Add.
type FPSet struct {
	paranoid   bool
	shards     [1 << fpShardBits]fpShard
	collisions atomic.Int64
}

// NewFPSet returns an empty set. With paranoid set, membership is decided by
// canonical strings and hash collisions are counted instead of trusted.
func NewFPSet(paranoid bool) *FPSet {
	s := &FPSet{paranoid: paranoid}
	for i := range s.shards {
		sh := &s.shards[i]
		if paranoid {
			sh.byString = make(map[string]struct{})
			sh.byHash = make(map[uint64]string)
		} else {
			sh.fast = make(map[uint64]struct{})
		}
	}
	return s
}

func (s *FPSet) shard(h uint64) *fpShard {
	return &s.shards[h>>(64-fpShardBits)]
}

// Add inserts the fingerprint and reports whether it was absent. canon is
// only invoked in paranoid mode, so fast-mode callers can pass a closure
// that builds the canonical string lazily. In paranoid mode the canonical
// string is materialized BEFORE the shard lock is taken: canon walks the
// whole state and may be arbitrarily expensive, and holding the stripe while
// it runs would serialize every other worker hashing into the same shard.
func (s *FPSet) Add(h uint64, canon func() string) bool {
	sh := s.shard(h)
	if !s.paranoid {
		sh.mu.Lock()
		_, dup := sh.fast[h]
		if !dup {
			sh.fast[h] = struct{}{}
		}
		sh.mu.Unlock()
		return !dup
	}
	c := canon() // outside the lock, deliberately
	collided := false
	sh.mu.Lock()
	if prev, ok := sh.byHash[h]; ok {
		collided = prev != c
	} else {
		sh.byHash[h] = c
	}
	_, dup := sh.byString[c]
	if !dup {
		sh.byString[c] = struct{}{}
	}
	sh.mu.Unlock()
	if collided {
		s.collisions.Add(1)
	}
	return !dup
}

// Collisions returns the number of distinct canonical strings observed with
// the same 64-bit hash (paranoid mode only; fast mode cannot see them).
func (s *FPSet) Collisions() int64 { return s.collisions.Load() }

// Len returns the number of distinct states recorded.
func (s *FPSet) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if s.paranoid {
			n += len(sh.byString)
		} else {
			n += len(sh.fast)
		}
		sh.mu.Unlock()
	}
	return n
}
