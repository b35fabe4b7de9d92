//go:build !race

package vm

// stateOwner is the debug-mode single-owner assertion attached to every
// State. In normal builds it is zero-sized and its methods compile away; the
// -race build (owner_race.go) swaps in an atomic guard that panics when two
// goroutines enter Snapshot/ReleaseState on the same State concurrently —
// the exact contract violation any cross-goroutine use of a snapshot family
// must never commit.
type stateOwner struct{}

func (stateOwner) acquire() {}
func (stateOwner) release() {}
