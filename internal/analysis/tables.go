package analysis

import "repro/internal/vm"

// The search's pruning tables: a visited table and a dead-state memo, both
// built on vm.FPMap, which owns fingerprint keying and collision counting.
// Callers pass a node's fingerprint as its hash (hashNode) and its canonical
// string (fingerprintState), which they build only under
// Options.CollisionCheck. DESIGN.md §10.3 gives the soundness arguments.

// seenTable is the visited table: the minimum depth each fingerprint was
// explored at. Pruning any revisit would be unsound under MaxDepth
// truncation: the first visit may have been cut short by the depth cap while
// a later, shallower one would have had budget to reach an accept. So a
// revisit is pruned only at the same or greater depth, where the recorded
// visit's subtree dominates it (same state, at least as much depth budget).
type seenTable struct{ vm.FPMap[int32] }

func newSeenTable(paranoid bool) *seenTable {
	return &seenTable{vm.NewFPMap[int32](paranoid)}
}

// visit reports whether a node with this fingerprint at this depth must be
// pruned, recording its depth as the new minimum when not.
func (t *seenTable) visit(h uint64, canon string, depth int) bool {
	d := int32(depth)
	if prev, ok := t.Get(h, canon); ok && prev <= d {
		return true
	}
	t.Put(h, canon, d)
	return false
}

// memoEntryCost approximates the per-entry overhead of a map entry (key,
// bucket share, and header amortization).
const memoEntryCost = 48

// memoStore is the dead-state memo: fingerprints of subtrees proven
// non-accepting, within a byte budget enforced with two generations. Inserts
// go to cur; when cur's cost would pass half the budget, old is dropped (its
// entries counted as evictions) and cur becomes old. Hits in old are
// promoted back into cur, so hot entries survive rotation. An entry costs
// memoEntryCost plus its canonical string in paranoid mode.
type memoStore struct {
	budget     int64
	paranoid   bool
	cur, old   vm.FPMap[struct{}]
	curCost    int64
	evictions  int64
	collisions int64 // counted by dropped generations
}

func newMemoStore(budget int64, paranoid bool) *memoStore {
	return &memoStore{budget: budget, paranoid: paranoid,
		cur: vm.NewFPMap[struct{}](paranoid), old: vm.NewFPMap[struct{}](paranoid)}
}

// lookup reports whether the fingerprint was proven dead.
func (m *memoStore) lookup(h uint64, canon string) bool {
	if _, ok := m.cur.Get(h, canon); ok {
		return true
	}
	if _, ok := m.old.Get(h, canon); ok {
		m.insert(h, canon) // promote: hot entries survive rotation
		return true
	}
	return false
}

// insert records a fingerprint proven dead.
func (m *memoStore) insert(h uint64, canon string) {
	if _, ok := m.cur.Get(h, canon); ok {
		return
	}
	cost := memoEntryCost + int64(len(canon))
	if m.curCost+cost > m.budget/2 {
		m.evictions += int64(m.old.Len())
		m.collisions += m.old.Collisions()
		m.old, m.cur = m.cur, vm.NewFPMap[struct{}](m.paranoid)
		m.curCost = 0
	}
	m.cur.Put(h, canon, struct{}{})
	m.curCost += cost
}

// counts returns the entries evicted and the collisions counted so far.
func (m *memoStore) counts() (evictions, collisions int64) {
	return m.evictions, m.collisions + m.cur.Collisions() + m.old.Collisions()
}
