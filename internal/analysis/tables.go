package analysis

import (
	"sync"

	"repro/internal/vm"
)

// The search's pruning tables: a visited table and a dead-state memo for
// each engine, all built on vm.FPMap, which owns fingerprint keying and
// collision counting. Callers pass a node's fingerprint as its hash
// (hashNode) and its canonical string (fingerprintState), which they build
// only under Options.CollisionCheck. DESIGN.md §10.3 and §15.3 give the
// soundness arguments.

// seenTable is the sequential visited table: the minimum depth each
// fingerprint was explored at. Pruning any revisit would be unsound under
// MaxDepth truncation: the first visit may have been cut short by the depth
// cap while a later, shallower one would have had budget to reach an accept.
// So a revisit is pruned only at the same or greater depth, where the
// recorded visit's subtree dominates it (same state, at least as much depth
// budget). That is the depth half of the parallel table's (rank, depth)
// witness rule, so the two engines prune against comparable witnesses.
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

// memoWitness is what a memo entry records about the proof that its subtree
// is dead: nothing in the sequential memo (proof), the prover's rank key in
// the parallel one (proverRank).
type memoWitness[W any] interface {
	// pinned is the bytes the witness holds beyond the entry itself.
	pinned() int64
	// replaces reports whether it should overwrite the recorded witness w.
	replaces(w W) bool
}

// proof is the sequential memo's witness: the entry is the whole proof.
type proof struct{}

func (proof) pinned() int64       { return 0 }
func (proof) replaces(proof) bool { return false }

// proverRank is the DFS rank key of the node that proved a subtree dead; a
// smaller rank proves it for more of the parallel search.
type proverRank string

func (r proverRank) pinned() int64              { return int64(len(r)) }
func (r proverRank) replaces(w proverRank) bool { return r < w }

// memoStore is the dead-state memo: fingerprints of subtrees proven
// non-accepting, within a byte budget enforced with two generations. Inserts
// go to cur; when cur's cost would pass half the budget, old is dropped (its
// entries counted as evictions) and cur becomes old. Hits in old are
// promoted back into cur, so hot entries survive rotation. An entry costs
// memoEntryCost plus the bytes it pins beyond its hash: its canonical string
// in paranoid mode, and its witness.
type memoStore[W memoWitness[W]] struct {
	budget     int64
	paranoid   bool
	cur, old   vm.FPMap[W]
	curCost    int64
	evictions  int64
	collisions int64 // counted by dropped generations
}

func newMemoStore[W memoWitness[W]](budget int64, paranoid bool) *memoStore[W] {
	return &memoStore[W]{budget: budget, paranoid: paranoid,
		cur: vm.NewFPMap[W](paranoid), old: vm.NewFPMap[W](paranoid)}
}

// lookup returns the witness of a recorded proof for the fingerprint.
func (m *memoStore[W]) lookup(h uint64, canon string) (W, bool) {
	w, ok := m.cur.Get(h, canon)
	if !ok {
		if w, ok = m.old.Get(h, canon); ok {
			m.insert(h, canon, w) // promote: hot entries survive rotation
		}
	}
	return w, ok
}

// insert records a proof; a fingerprint already in cur keeps the better
// witness.
func (m *memoStore[W]) insert(h uint64, canon string, w W) {
	if prev, ok := m.cur.Get(h, canon); ok {
		if w.replaces(prev) {
			m.cur.Put(h, canon, w)
		}
		return
	}
	cost := memoEntryCost + int64(len(canon)) + w.pinned()
	if m.curCost+cost > m.budget/2 {
		m.evictions += int64(m.old.Len())
		m.collisions += m.old.Collisions()
		m.old, m.cur = m.cur, vm.NewFPMap[W](m.paranoid)
		m.curCost = 0
	}
	m.cur.Put(h, canon, w)
	m.curCost += cost
}

// counts returns the entries evicted and the collisions counted so far.
func (m *memoStore[W]) counts() (evictions, collisions int64) {
	return m.evictions, m.collisions + m.cur.Collisions() + m.old.Collisions()
}

// The parallel tables are striped by the fingerprint's high bits, one mutex
// per shard. Every entry carries a WITNESS RANK, the DFS rank key (see
// parallel.go) of the node that recorded it, and a node may be pruned only
// against a witness of strictly smaller rank (and, for the visited table, of
// no greater depth). That rule keeps the parallel search's verdicts and
// diagnoses byte-identical to the sequential search's: every pruned node has
// a counterpart subtree that the sequential order explores earlier and at
// least as deeply. Under-pruning (a witness lost to a race, an evicted memo
// entry) only costs time. Canonical strings are built outside the locks.

const parShardBits = 6

func parShard(h uint64) int { return int(h >> (64 - parShardBits)) }

// rankWitness is a recorded visit: who (rank) and how deep.
type rankWitness struct {
	rank  string
	depth int32
}

// sharedSeen is the parallel visited table.
type sharedSeen [1 << parShardBits]struct {
	mu sync.Mutex
	m  vm.FPMap[rankWitness]
}

func newSharedSeen(paranoid bool) *sharedSeen {
	s := new(sharedSeen)
	for i := range s {
		s[i].m = vm.NewFPMap[rankWitness](paranoid)
	}
	return s
}

// visit reports whether the node (fingerprint, DFS rank key, depth) must be
// pruned: only when a recorded witness has strictly smaller rank and no
// greater depth. Otherwise the witness moves to the smaller rank, so later
// arrivals prune against the earliest visit in sequential order.
func (s *sharedSeen) visit(h uint64, canon, rank string, depth int) bool {
	d := int32(depth)
	sh := &s[parShard(h)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prev, ok := sh.m.Get(h, canon)
	if ok && prev.rank < rank && prev.depth <= d {
		return true
	}
	if !ok || rank < prev.rank {
		sh.m.Put(h, canon, rankWitness{rank: rank, depth: d})
	}
	return false
}

// collisions sums the shards' collision counts; call it once the workers
// have stopped.
func (s *sharedSeen) collisions() (n int64) {
	for i := range s {
		n += s[i].m.Collisions()
	}
	return n
}

// sharedMemo is the parallel dead-state memo: one memoStore per shard, each
// with an even share of the budget, keeping the minimum prover rank.
type sharedMemo [1 << parShardBits]struct {
	mu sync.Mutex
	m  *memoStore[proverRank]
}

func newSharedMemo(budget int64, paranoid bool) *sharedMemo {
	per := max(budget>>parShardBits, 4*memoEntryCost)
	s := new(sharedMemo)
	for i := range s {
		s[i].m = newMemoStore[proverRank](per, paranoid)
	}
	return s
}

// dead reports whether the node was proven non-accepting by a subtree of
// strictly smaller rank.
func (s *sharedMemo) dead(h uint64, canon, rank string) bool {
	sh := &s[parShard(h)]
	sh.mu.Lock()
	prover, ok := sh.m.lookup(h, canon)
	sh.mu.Unlock()
	return ok && string(prover) < rank
}

// insert records a subtree proven dead by the node with this rank.
func (s *sharedMemo) insert(h uint64, canon, rank string) {
	sh := &s[parShard(h)]
	sh.mu.Lock()
	sh.m.insert(h, canon, proverRank(rank))
	sh.mu.Unlock()
}

// counts sums the shards' eviction and collision counts; call it once the
// workers have stopped.
func (s *sharedMemo) counts() (evictions, collisions int64) {
	for i := range s {
		e, c := s[i].m.counts()
		evictions += e
		collisions += c
	}
	return evictions, collisions
}
