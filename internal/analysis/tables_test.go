package analysis

import (
	"sync"
	"testing"
)

// TestMemoStoreCountsCollisions forces two canonical strings under one hash
// through the paranoid memo, sequential and parallel: the canonical string
// decides membership, and the lookup that meets the other string under its
// hash counts one collision.
func TestMemoStoreCountsCollisions(t *testing.T) {
	seq := newMemoStore[proof](1<<20, true)
	seq.insert(42, "a", proof{})
	if _, dead := seq.lookup(42, "b"); dead {
		t.Fatal("sequential: b is dead because a is")
	}
	if _, c := seq.counts(); c != 1 {
		t.Fatalf("sequential: Collisions = %d, want 1", c)
	}
	if _, dead := seq.lookup(42, "a"); !dead {
		t.Fatal("sequential: a is not dead")
	}

	const prover, later = "\x02\x00\x00\x00\x01", "\x02\x00\x00\x00\x02"
	par := newSharedMemo(1<<20, true)
	par.insert(42, "a", prover)
	if par.dead(42, "b", later) {
		t.Fatal("parallel: b is dead because a is")
	}
	if _, c := par.counts(); c != 1 {
		t.Fatalf("parallel: Collisions = %d, want 1", c)
	}
	if !par.dead(42, "a", later) {
		t.Fatal("parallel: a is not dead for a later rank")
	}
	if par.dead(42, "a", prover) {
		t.Fatal("parallel: a is dead for its own prover's rank")
	}
}

// TestSharedSeenConcurrentCollisionInjection drives two canonical strings
// under one forced hash through the parallel visited table from 8
// goroutines. Every visit carries the same rank, so none may prune and only
// a first sighting records an entry: there must be exactly two, each pruning
// later ranks of its own string only, and the collisions between them must
// be counted.
func TestSharedSeenConcurrentCollisionInjection(t *testing.T) {
	s := newSharedSeen(true)
	const h = uint64(0xdead) << 48
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(canon string) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if s.visit(h, canon, "\x02", 1) {
					t.Errorf("%s pruned against a witness of equal rank", canon)
					return
				}
			}
		}([]string{"alpha", "beta"}[g%2])
	}
	wg.Wait()
	if n := s[parShard(h)].m.Len(); n != 2 {
		t.Fatalf("%d first sightings, want exactly 2 (alpha, beta)", n)
	}
	if c := s.collisions(); c < 1 {
		t.Fatalf("Collisions = %d, want >= 1 (alpha vs beta share the forced hash)", c)
	}
	for _, canon := range []string{"alpha", "beta"} {
		if !s.visit(h, canon, "\x03", 1) {
			t.Errorf("%s at a later rank is not pruned by its own witness", canon)
		}
	}
	if s.visit(h, "gamma", "\x03", 1) {
		t.Error("gamma pruned by another string's witness")
	}
}
