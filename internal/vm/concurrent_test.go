// The VM half of the compile-once/analyze-many contract: distinct Execs over
// one shared compiled vm.Code must be able to run concurrently, because every
// batch worker and serve request drives its own VM against the same compiled
// specification. These tests fail under `go test -race` if execution ever
// writes to the shared code, program or type tables.
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

// TestSharedFamilyAcrossGoroutines pins the Heap concurrency contract: COW
// snapshots of ONE heap family, handed to N goroutines through a channel (the
// happens-before edge), each goroutine executing, snapshotting, and releasing
// its own states while all of them fingerprint into one paranoid FPMap
// behind a mutex. Under -race this hammers the atomic generation counter and
// the immutable-while-shared cell slices at once.
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
	var mu sync.Mutex
	seen := vm.NewFPMap[struct{}](true)
	add := func(st *vm.State) {
		h, canon := st.Hash64(), st.Fingerprint() // outside the lock
		mu.Lock()
		if _, ok := seen.Get(h, canon); !ok {
			seen.Put(h, canon, struct{}{})
		}
		mu.Unlock()
	}
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
					add(st)
					// Fork and discard: Snapshot/ReleaseState churn on a
					// family whose siblings live on other goroutines.
					snap := st.Snapshot()
					if _, err := exec.Execute(snap, ping, nil); err != nil {
						t.Error(err)
						return
					}
					add(snap)
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
