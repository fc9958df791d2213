package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pacevm/internal/rng"
	"pacevm/internal/workload"
)

// reuseSets returns two VM sets whose type tables disagree: type 0 is a
// CPU VM in a and an IO VM in b, so a block memo left over from one
// set would price the other's blocks under the wrong composition.
func reuseSets(t *testing.T) (a, b []VMRequest) {
	cpu, mem, io := refTime(t, workload.ClassCPU), refTime(t, workload.ClassMEM), refTime(t, workload.ClassIO)
	a = []VMRequest{
		vm("a0", workload.ClassCPU, cpu, 0),
		vm("a1", workload.ClassCPU, cpu, 0),
		vm("a2", workload.ClassMEM, mem, mem*2),
		vm("a3", workload.ClassIO, io, 0),
		vm("a4", workload.ClassIO, io*1.25, 0),
		vm("a5", workload.ClassMEM, mem, 0),
	}
	b = []VMRequest{
		vm("b0", workload.ClassIO, io, 0),
		vm("b1", workload.ClassCPU, cpu*1.5, cpu*3),
		vm("b2", workload.ClassIO, io, 0),
	}
	return a, b
}

// checkFresh runs one call on the reused allocator and demands the
// answer, stats and error of a freshly built allocator with the same
// configuration, plus the AllocateReference answer.
func checkFresh(t *testing.T, label string, reused *Allocator, goal Goal, servers []ServerState, vms []VMRequest) {
	t.Helper()
	fresh, err := NewAllocator(reused.cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, wantErr := fresh.AllocateExplained(goal, servers, vms)
	got, gotStats, gotErr := reused.AllocateExplained(goal, servers, vms)
	if gotErr != wantErr || gotStats != wantStats || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: reused allocator answered (%+v, %+v, %v), fresh (%+v, %+v, %v)",
			label, got, gotStats, gotErr, want, wantStats, wantErr)
	}
	ref, refErr := reused.AllocateReference(goal, servers, vms)
	if gotErr != refErr {
		t.Fatalf("%s: err %v, reference err %v", label, gotErr, refErr)
	}
	if gotErr == nil {
		sameAllocation(t, label, got, ref)
	}
	if reused.spare.Load() == nil {
		t.Fatalf("%s: the call did not leave its search context as the spare", label)
	}
}

// TestReusedAllocatorMatchesFresh alternates VM sets with different
// type tables on one allocator, serial and pooled: every call must be
// bit-identical to a fresh allocator's and to AllocateReference.
func TestReusedAllocatorMatchesFresh(t *testing.T) {
	setA, setB := reuseSets(t)
	r := rng.New(23)
	for _, workers := range []int{1, 4} {
		a, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for round, vms := range [][]VMRequest{setA, setB, setA, setB[:1], setA} {
			servers := randomFleet(r, 5+round)
			for _, goal := range []Goal{GoalEnergy, GoalPerformance, GoalBalanced} {
				checkFresh(t, fmt.Sprintf("workers=%d round=%d alpha=%g", workers, round, goal.Alpha),
					a, goal, servers, vms)
			}
		}
	}
}

// TestReusedAllocatorAfterCutSearch abandons a search, by budget and by
// Cancel, and then runs a full one on the same allocator: the abandoned
// call's partial state must not leak into the next answer.
func TestReusedAllocatorAfterCutSearch(t *testing.T) {
	setA, setB := reuseSets(t)
	servers := randomFleet(rng.New(29), 6)
	for _, workers := range []int{1, 4} {
		// Budget: B(6) partitions of setA exceed 10; setB's five fit.
		a, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: workers, SearchBudget: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, stats, err := a.AllocateExplained(GoalBalanced, servers, setA); err != nil || !stats.Exhausted {
			t.Fatalf("workers=%d: budget 10 did not exhaust on setA (stats %+v, err %v)", workers, stats, err)
		}
		checkFresh(t, fmt.Sprintf("workers=%d after budget", workers), a, GoalBalanced, servers, setB)

		cut := true
		c, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: workers,
			Cancel: func() bool { return cut }})
		if err != nil {
			t.Fatal(err)
		}
		if _, stats, err := c.AllocateExplained(GoalBalanced, servers, setA); err != nil || !stats.Canceled {
			t.Fatalf("workers=%d: cancel did not cut setA (stats %+v, err %v)", workers, stats, err)
		}
		cut = false
		checkFresh(t, fmt.Sprintf("workers=%d after cancel", workers), c, GoalBalanced, servers, setA)
	}
}

// TestSharedAllocatorConcurrent shares one allocator between 8
// goroutines (run it under -race): whichever caller holds the spare and
// whichever builds a fresh context, every call must return the answer
// AllocateReference gives.
func TestSharedAllocatorConcurrent(t *testing.T) {
	a, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		goal    Goal
		servers []ServerState
		vms     []VMRequest
		want    Allocation
		err     error
	}
	r := rng.New(41)
	var cases []tcase
	for n := 1; n <= 6; n++ {
		c := tcase{goal: Goal{Alpha: float64(n%3) / 2}, servers: randomFleet(r, 4+n), vms: randomVMs(t, r, n)}
		c.want, c.err = a.AllocateReference(c.goal, c.servers, c.vms)
		cases = append(cases, c)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(cases); i++ {
				c := cases[(g+i)%len(cases)]
				got, err := a.Allocate(c.goal, c.servers, c.vms)
				if err != c.err {
					t.Errorf("goroutine %d n=%d: err %v, reference err %v", g, len(c.vms), err, c.err)
					continue
				}
				if err == nil && !reflect.DeepEqual(got, c.want) {
					t.Errorf("goroutine %d n=%d: got %+v, reference %+v", g, len(c.vms), got, c.want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmAllocatorSwitchingCalls drives one warmed allocator through
// consecutive calls that switch the fleet, the VM-type pattern (A/B/A)
// and the goal, serial and with a two-worker pool, under strict and
// relaxed QoS: every answer must equal AllocateReference's. Patterns A
// and B share their type-count shape, so their block ids coincide while
// their prices differ: a price table or server grouping carried from
// one call into the next would misprice it.
func TestWarmAllocatorSwitchingCalls(t *testing.T) {
	cpu, io := refTime(t, workload.ClassCPU), refTime(t, workload.ClassIO)
	patA := []VMRequest{
		vm("a0", workload.ClassCPU, cpu, cpu*3/2),
		vm("a1", workload.ClassCPU, cpu, cpu*3/2),
		vm("a2", workload.ClassIO, io, 0),
	}
	patB := []VMRequest{
		vm("b0", workload.ClassIO, io, io*3/2),
		vm("b1", workload.ClassIO, io, io*3/2),
		vm("b2", workload.ClassCPU, cpu*5/4, 0),
	}
	// setA has six VMs, so with two workers it takes the pooled path.
	setA, setB := reuseSets(t)
	r := rng.New(71)
	fleets := [][]ServerState{
		randomFleet(r, 66),
		fuzzFleet([]byte{14, 0, 3, 15, 3, 7, 13, 0, 14, 6, 4, 5, 12, 0}),
		randomFleet(r, 9),
	}
	for _, relax := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			a, err := NewAllocator(Config{DB: sharedDB(t), RelaxQoS: relax, SearchWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			step := 0
			for _, vms := range [][]VMRequest{patA, patB, patA, setA, setB, setA} {
				for fi, servers := range fleets {
					goal := Goal{Alpha: float64(step%3) / 2}
					step++
					label := fmt.Sprintf("relax=%v workers=%d step=%d fleet=%d", relax, workers, step, fi)
					want, wantErr := a.AllocateReference(goal, servers, vms)
					got, gotErr := a.Allocate(goal, servers, vms)
					if gotErr != wantErr {
						t.Fatalf("%s: err %v, reference err %v", label, gotErr, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Allocate %+v\nreference %+v", label, got, want)
					}
				}
			}
		}
	}
}

// TestWarmAllocateAllocs pins the allocation count of a warmed Allocate
// over the paper's 66-server SMALLER cloud. With the search context and
// estimate cache reused, and the partition generator's buffers shared by
// every partition of a call, what remains is those two buffers, the
// retained frontier and the returned Allocation: 7 allocations for one
// VM and 28 for four, against 33 and 85 when every call built its own
// context and 10 and 59 when every partition got fresh blocks. The
// ceilings leave two and five allocations of room for toolchain drift.
func TestWarmAllocateAllocs(t *testing.T) {
	a, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(53)
	servers := randomFleet(r, 66)
	for _, tc := range []struct {
		n       int
		ceiling float64
	}{{1, 9}, {4, 33}} {
		vms := randomVMs(t, r, tc.n)
		if _, err := a.Allocate(GoalBalanced, servers, vms); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := a.Allocate(GoalBalanced, servers, vms); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %.1f allocs per warmed Allocate", tc.n, allocs)
		if allocs > tc.ceiling {
			t.Errorf("n=%d: %.1f allocs per warmed Allocate, ceiling %.0f", tc.n, allocs, tc.ceiling)
		}
	}
}
