// The VM half of the compile-once/analyze-many contract: distinct Execs over
// one shared compiled vm.Code must be able to run concurrently, because every
// batch worker, serve request and parallel-search worker drives its own VM
// against the same compiled specification. These tests fail under
// `go test -race` if execution ever writes to the shared code, program or
// type tables.
package vm_test

import (
	"sync"
	"testing"

	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/vm"
	"repro/specs"
)

func TestDistinctExecsShareProgram(t *testing.T) {
	spec, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	prog, code := spec.Prog, spec.Code
	byName := make(map[string]*sema.TransInfo)
	for _, ti := range prog.Trans {
		byName[ti.Name] = ti
	}
	ping, good := byName["ping"], byName["good"]
	if ping == nil || good == nil {
		t.Fatalf("echo transitions not found: %v", byName)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := vm.New(code)
			st, _, err := exec.RunInit()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 100; i++ {
				// waiting -> waiting when S.probe: output S.alive.
				outs, err := exec.Execute(st, ping, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(outs) != 1 || outs[0].Inter.Name != "alive" {
					t.Errorf("ping produced %v", outs)
					return
				}
				// Guard evaluation reads the shared program concurrently too.
				seq := st.Globals[0].Copy()
				if _, err := exec.EvalProvided(st, good, []vm.Value{seq, seq}); err != nil {
					t.Error(err)
					return
				}
				// Snapshot/restore while other Execs execute.
				snap := st.Snapshot()
				if _, err := exec.Execute(snap, ping, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedFamilyAcrossGoroutines is the contract the parallel search rests
// on: COW snapshots of ONE heap family, handed to N goroutines through a
// channel (the happens-before edge), each goroutine executing, snapshotting,
// and releasing its own states while all of them share one paranoid FPSet.
// Under -race this hammers the atomic generation counter, the
// immutable-while-shared cell slices, and the sharded FPSet at once.
func TestSharedFamilyAcrossGoroutines(t *testing.T) {
	spec, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	var ping *sema.TransInfo
	for _, ti := range spec.Prog.Trans {
		if ti.Name == "ping" {
			ping = ti
		}
	}
	if ping == nil {
		t.Fatal("echo ping transition not found")
	}

	root := vm.New(spec.Code)
	rootSt, _, err := root.RunInit()
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	seen := vm.NewFPSet(true)
	work := make(chan *vm.State, workers*4)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := vm.New(spec.Code)
			for st := range work {
				for i := 0; i < 50; i++ {
					if _, err := exec.Execute(st, ping, nil); err != nil {
						t.Error(err)
						return
					}
					seen.Add(st.Hash64(), st.Fingerprint)
					// Fork and discard: Snapshot/ReleaseState churn on a
					// family whose siblings live on other goroutines.
					snap := st.Snapshot()
					if _, err := exec.Execute(snap, ping, nil); err != nil {
						t.Error(err)
						return
					}
					seen.Add(snap.Hash64(), snap.Fingerprint)
					vm.ReleaseState(snap)
				}
			}
		}()
	}
	// All handed-out states are snapshots of the one root family, created by
	// the root owner and published over the channel.
	for i := 0; i < workers*4; i++ {
		work <- rootSt.Snapshot()
	}
	close(work)
	wg.Wait()
	if seen.Collisions() != 0 {
		t.Fatalf("observed %d hash collisions on echo states", seen.Collisions())
	}
	if seen.Len() == 0 {
		t.Fatal("no states recorded")
	}
}

// TestReleaseStateTwicePanics pins the double-release guard: handing one
// container to two future owners must crash at the second release site.
func TestReleaseStateTwicePanics(t *testing.T) {
	st := &vm.State{Heap: vm.NewHeap()}
	snap := st.Snapshot()
	vm.ReleaseState(snap)
	defer func() {
		if recover() == nil {
			t.Fatal("second ReleaseState did not panic")
		}
	}()
	vm.ReleaseState(snap)
}

// TestFPSetConcurrentCollisionInjection drives colliding canonical strings
// through the sharded paranoid set from many goroutines: membership answers
// must stay exact (each distinct canon admitted exactly once) and every
// cross-string collision on the forced hash must be counted.
func TestFPSetConcurrentCollisionInjection(t *testing.T) {
	s := vm.NewFPSet(true)
	const workers = 8
	admitted := make([]int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			canon := []string{"alpha", "beta"}[g%2]
			for i := 0; i < 1000; i++ {
				if s.Add(0xdead<<48, func() string { return canon }) {
					admitted[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range admitted {
		total += n
	}
	if total != 2 {
		t.Fatalf("admitted %d first-sightings, want exactly 2 (alpha, beta)", total)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if c := s.Collisions(); c < 1 {
		t.Fatalf("Collisions = %d, want >= 1 (alpha vs beta share the forced hash)", c)
	}
}
