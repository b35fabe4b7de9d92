package vm

// FPMap maps state fingerprints to values of type V. It is the one table
// behind the analyzer's visited tables and dead-state memos and the
// simulator's visited set.
//
// A fingerprint is given as its 64-bit hash (Hash64, or a hash extended from
// it) and its canonical string, which callers build only in paranoid mode and
// pass as "" otherwise. In fast mode the map keys by the hash alone, 8 bytes a
// key. In paranoid mode the canonical string is the key, so a hash collision
// cannot merge two states, and the hash serves only to count collisions: each
// Get whose hash was Put before under a different string counts one.
//
// An FPMap is not safe for concurrent use. Start from NewFPMap; a copy shares
// the original's maps.
type FPMap[V any] struct {
	fast       map[uint64]V      // fast mode
	byString   map[string]V      // paranoid mode
	byHash     map[uint64]string // paranoid mode: the first string Put under each hash
	collisions int64
}

// NewFPMap returns an empty map that keys by canonical string when paranoid
// is set, and by hash otherwise.
func NewFPMap[V any](paranoid bool) FPMap[V] {
	if paranoid {
		return FPMap[V]{byString: make(map[string]V), byHash: make(map[uint64]string)}
	}
	return FPMap[V]{fast: make(map[uint64]V)}
}

// Get returns the value recorded for the fingerprint (h, canon).
func (m *FPMap[V]) Get(h uint64, canon string) (V, bool) {
	if m.byString == nil {
		v, ok := m.fast[h]
		return v, ok
	}
	if prev, ok := m.byHash[h]; ok && prev != canon {
		m.collisions++
	}
	v, ok := m.byString[canon]
	return v, ok
}

// Put records v for the fingerprint (h, canon).
func (m *FPMap[V]) Put(h uint64, canon string, v V) {
	if m.byString == nil {
		m.fast[h] = v
		return
	}
	if _, ok := m.byHash[h]; !ok {
		m.byHash[h] = canon
	}
	m.byString[canon] = v
}

// Len returns the number of fingerprints recorded.
func (m *FPMap[V]) Len() int { return len(m.fast) + len(m.byString) }

// Collisions returns how many Get calls met a different canonical string
// under their hash. Fast mode cannot see collisions and always reports 0.
func (m *FPMap[V]) Collisions() int64 { return m.collisions }
