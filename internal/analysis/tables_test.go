package analysis

import "testing"

// TestMemoStoreCountsCollisions forces two canonical strings under one hash
// through the paranoid memo: the canonical string decides membership, and the
// lookup that meets the other string under its hash counts one collision.
func TestMemoStoreCountsCollisions(t *testing.T) {
	m := newMemoStore(1<<20, true)
	m.insert(42, "a")
	if m.lookup(42, "b") {
		t.Fatal("b is dead because a is")
	}
	if _, c := m.counts(); c != 1 {
		t.Fatalf("Collisions = %d, want 1", c)
	}
	if !m.lookup(42, "a") {
		t.Fatal("a is not dead")
	}
}
