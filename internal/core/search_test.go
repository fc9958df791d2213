package core

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// randomFleet builds nServers servers with small valid residual
// allocations drawn from r.
func randomFleet(r *rng.Stream, nServers int) []ServerState {
	servers := make([]ServerState, nServers)
	for i := range servers {
		servers[i] = ServerState{ID: i}
		if r.Bool(0.6) {
			servers[i].Alloc = model.Key{
				NCPU: r.Intn(3),
				NMEM: r.Intn(2),
				NIO:  r.Intn(2),
			}
		}
	}
	return servers
}

// randomVMs builds n VM requests with attributes drawn from small pools
// so that some VMs are interchangeable and some are not.
func randomVMs(t testing.TB, r *rng.Stream, n int) []VMRequest {
	t.Helper()
	factors := []float64{1, 1, 1.25, 1.5}
	vms := make([]VMRequest, n)
	for i := range vms {
		class := workload.Classes[r.Intn(workload.NumClasses)]
		nominal := refTime(t, class) * units.Seconds(factors[r.Intn(len(factors))])
		var max units.Seconds
		switch r.Intn(3) {
		case 1:
			max = nominal * 4
		case 2:
			max = nominal * 3 / 2
		}
		vms[i] = VMRequest{ID: string(rune('a' + i)), Class: class, NominalTime: nominal, MaxTime: max}
	}
	return vms
}

// sameAllocation asserts two allocations are bit-for-bit identical:
// same placements in the same order, same servers, same VM identities,
// and exactly equal estimated times and energies.
func sameAllocation(t *testing.T, label string, got, want Allocation) {
	t.Helper()
	if got.EstTime != want.EstTime || got.EstEnergy != want.EstEnergy {
		t.Errorf("%s: totals (%v, %v) != reference (%v, %v)",
			label, got.EstTime, got.EstEnergy, want.EstTime, want.EstEnergy)
	}
	if len(got.Placements) != len(want.Placements) {
		t.Fatalf("%s: %d placements, reference has %d", label, len(got.Placements), len(want.Placements))
	}
	for i := range got.Placements {
		g, w := got.Placements[i], want.Placements[i]
		if g.ServerID != w.ServerID || g.NewAlloc != w.NewAlloc ||
			g.EstTime != w.EstTime || g.EstEnergy != w.EstEnergy {
			t.Errorf("%s: placement %d = {srv %d alloc %v t %v e %v}, reference {srv %d alloc %v t %v e %v}",
				label, i, g.ServerID, g.NewAlloc, g.EstTime, g.EstEnergy,
				w.ServerID, w.NewAlloc, w.EstTime, w.EstEnergy)
		}
		if len(g.VMs) != len(w.VMs) {
			t.Fatalf("%s: placement %d has %d VMs, reference %d", label, i, len(g.VMs), len(w.VMs))
		}
		for j := range g.VMs {
			if g.VMs[j].ID != w.VMs[j].ID {
				t.Errorf("%s: placement %d VM %d = %q, reference %q", label, i, j, g.VMs[j].ID, w.VMs[j].ID)
			}
		}
	}
}

// TestAllocateMatchesReference is the equivalence satellite: the
// pruned/memoized engine — serial and parallel — must return the
// identical Allocation as the retained literal transcription of the
// paper's search, across seeded random fleets, all three evaluated α
// goals, and VM sets up to n = 8.
func TestAllocateMatchesReference(t *testing.T) {
	db := sharedDB(t)
	serial, err := NewAllocator(Config{DB: db, SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewAllocator(Config{DB: db, SearchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	goals := []Goal{GoalEnergy, GoalPerformance, GoalBalanced}
	r := rng.New(7)
	for n := 2; n <= 8; n++ {
		servers := randomFleet(r, 4+r.Intn(5))
		vms := randomVMs(t, r, n)
		for _, goal := range goals {
			want, wantErr := serial.AllocateReference(goal, servers, vms)
			for name, a := range map[string]*Allocator{"serial": serial, "parallel": pooled} {
				got, gotErr := a.Allocate(goal, servers, vms)
				label := name
				if gotErr != wantErr {
					t.Errorf("%s n=%d alpha=%g: err %v, reference err %v", label, n, goal.Alpha, gotErr, wantErr)
					continue
				}
				if wantErr != nil {
					continue
				}
				sameAllocation(t, label, got, want)
			}
		}
	}
}

// TestAllocateParallelDeterministic re-runs a pooled search and demands
// identical output every time: the enumeration index carried through
// the fan-out must fully pin the tie-breaks.
func TestAllocateParallelDeterministic(t *testing.T) {
	a, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	servers := randomFleet(r, 6)
	vms := randomVMs(t, r, 7)
	first, err := a.Allocate(GoalBalanced, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		again, err := a.Allocate(GoalBalanced, servers, vms)
		if err != nil {
			t.Fatal(err)
		}
		sameAllocation(t, "rerun", again, first)
	}
}

// randomRGS draws a uniform valid restricted-growth string of length n
// and materializes its blocks.
func randomRGS(r *rng.Stream, n int) [][]int {
	a := make([]int, n)
	mx := 0
	for i := 1; i < n; i++ {
		a[i] = r.Intn(mx + 2)
		if a[i] > mx {
			mx = a[i]
		}
	}
	blocks := make([][]int, mx+1)
	for i, v := range a {
		blocks[v] = append(blocks[v], i)
	}
	return blocks
}

// TestPartitionSignatureProperty is the signature satellite: two
// partitions get equal typed-multiset signatures iff the legacy string
// canonicalization — the previous implementation, kept as the spec —
// also considers them equal.
func TestPartitionSignatureProperty(t *testing.T) {
	r := rng.New(23)
	f := func(nRaw, seedRaw uint8) bool {
		n := int(nRaw%7) + 2
		vms := make([]VMRequest, n)
		nominals := []units.Seconds{600, 900}
		maxes := []units.Seconds{0, 2400}
		for i := range vms {
			vms[i] = VMRequest{
				ID:          string(rune('a' + i)),
				Class:       workload.Classes[r.Intn(workload.NumClasses)],
				NominalTime: nominals[r.Intn(len(nominals))],
				MaxTime:     maxes[r.Intn(len(maxes))],
			}
		}
		b1 := randomRGS(r, n)
		b2 := randomRGS(r, n)
		typeOf, types := vmTypes(vms, nil, nil)
		if len(types) > n {
			return false
		}
		radix, _ := blockRadix(typeOf, len(types), nil)
		newEq := sigOfPartition(typeOf, radix, b1) == sigOfPartition(typeOf, radix, b2)
		legacyEq := legacyPartitionSignature(vms, b1) == legacyPartitionSignature(vms, b2)
		return newEq == legacyEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestGroupServersMatchesLinearScan checks the slot-indexed server
// grouping against the first-occurrence linear grouping it replaced, on
// one reused context (so each call must clear the previous call's slot
// marks) over fleets mixing allocations inside and outside the estimate
// cache's box.
func TestGroupServersMatchesLinearScan(t *testing.T) {
	a, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(83)
	vms := randomVMs(t, r, 2)
	sc := newSearchCtx(a, GoalBalanced, emptyServers(1), vms)
	outTwins := 0
	for round := 0; round < 200; round++ {
		fleet := make([]byte, 1+r.Intn(80))
		for i := range fleet {
			fleet[i] = byte(r.Intn(256))
		}
		servers := fuzzFleet(fleet)
		sc.reset(GoalBalanced, servers, vms)

		var heads, tails []int
		groupOf := make([]int, len(servers))
		for si, s := range servers {
			g := slices.IndexFunc(heads, func(h int) bool { return servers[h].Alloc == s.Alloc })
			if g < 0 {
				g = len(heads)
				heads, tails = append(heads, si), append(tails, si)
			} else if _, inBox := a.est.Slot(s.Alloc); !inBox {
				outTwins++
			}
			groupOf[si], tails[g] = g, si
		}
		if !slices.Equal(sc.groupHead, heads) || !slices.Equal(sc.groupOf, groupOf) || !slices.Equal(sc.groupTail, tails) {
			t.Fatalf("round %d: groups heads %v of %v tails %v, linear scan %v of %v tails %v",
				round, sc.groupHead, sc.groupOf, sc.groupTail, heads, groupOf, tails)
		}
		for g, head := range heads {
			if sc.groupKey[g] != servers[head].Alloc {
				t.Fatalf("round %d: group %d key %v, head allocation %v", round, g, sc.groupKey[g], servers[head].Alloc)
			}
		}
	}
	if outTwins == 0 {
		t.Fatal("no fleet repeated an allocation outside the box; the comparison fallback went untested")
	}
}

// TestVMTypesInterchangeability pins the type-table construction: ids
// collapse exactly on (class, nominal, QoS) equality.
func TestVMTypesInterchangeability(t *testing.T) {
	vms := []VMRequest{
		{ID: "a", Class: workload.ClassCPU, NominalTime: 600},
		{ID: "b", Class: workload.ClassCPU, NominalTime: 600},
		{ID: "c", Class: workload.ClassCPU, NominalTime: 900},
		{ID: "d", Class: workload.ClassMEM, NominalTime: 600},
		{ID: "e", Class: workload.ClassCPU, NominalTime: 600, MaxTime: 1200},
		{ID: "f", Class: workload.ClassCPU, NominalTime: 600},
	}
	typeOf, types := vmTypes(vms, nil, nil)
	if len(types) != 4 {
		t.Fatalf("types = %d, want 4", len(types))
	}
	want := []uint8{0, 0, 1, 2, 3, 0}
	for i, w := range want {
		if typeOf[i] != w {
			t.Errorf("typeOf[%d] = %d, want %d", i, typeOf[i], w)
		}
	}
}

// TestPickBestTieBreak is the small-fix satellite: two candidates with
// equal normalized scores must select the earlier enumeration index,
// under every goal, and a later candidate must win only when strictly
// better than the epsilon band.
func TestPickBestTieBreak(t *testing.T) {
	goals := []Goal{GoalEnergy, GoalPerformance, GoalBalanced}
	tied := []candidate{
		{idx: 0, time: 100, energy: 200},
		{idx: 1, time: 100, energy: 200},
	}
	for _, g := range goals {
		if got := pickBest(g, tied, 100, 200); got != 0 {
			t.Errorf("alpha=%g: tied candidates picked %d, want earlier index 0", g.Alpha, got)
		}
	}
	// A later, strictly dominating candidate wins.
	better := []candidate{
		{idx: 0, time: 100, energy: 200},
		{idx: 1, time: 50, energy: 100},
	}
	for _, g := range goals {
		if got := pickBest(g, better, 100, 200); got != 1 {
			t.Errorf("alpha=%g: strictly better candidate not picked (got %d)", g.Alpha, got)
		}
	}
	// A later candidate inside the epsilon band does not dethrone the
	// incumbent: its normalized score differs by ~1e-14 < scoreEpsilon.
	within := []candidate{
		{idx: 0, time: 100, energy: 200},
		{idx: 1, time: 100 * (1 - 1e-14), energy: 200 * (1 - 1e-14)},
	}
	for _, g := range goals {
		if got := pickBest(g, within, 100, 200); got != 0 {
			t.Errorf("alpha=%g: epsilon-tied candidate dethroned the incumbent (got %d)", g.Alpha, got)
		}
	}
}

// TestParetoFrontierKeepsWinner checks the pruning invariant directly:
// for a random search the frontier the engine retains must contain the
// winner the unpruned reference selects, for every goal.
func TestParetoFrontierKeepsWinner(t *testing.T) {
	a := mkAllocator(t)
	r := rng.New(31)
	servers := randomFleet(r, 5)
	vms := randomVMs(t, r, 6)
	for _, goal := range []Goal{GoalEnergy, GoalPerformance, GoalBalanced} {
		want, err := a.AllocateReference(goal, servers, vms)
		if err != nil {
			t.Fatal(err)
		}
		sc := newSearchCtx(a, goal, servers, vms)
		frontier, maxT, maxE, exhausted, err := sc.search(1)
		if err != nil {
			t.Fatal(err)
		}
		if exhausted {
			t.Fatal("unbudgeted search reported exhaustion")
		}
		best := pickBest(goal, frontier, maxT, maxE)
		got := sc.materialize(frontier[best])
		sameAllocation(t, "frontier", got, want)
	}
}

// TestSearchTelemetryInvariants runs an instrumented pooled search and
// checks the bookkeeping identities that tie the counters to the
// search's structure: every enumerated partition is either deduped or
// evaluated, every evaluated candidate lands in exactly one of
// feasible/infeasible, and the worker-load histogram accounts for every
// evaluated job across the pool.
func TestSearchTelemetryInvariants(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: 8, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	servers := randomFleet(r, 6)
	vms := randomVMs(t, r, 9) // Bell(9) = 21147 partitions: plenty of pool traffic
	if _, err := a.Allocate(GoalBalanced, servers, vms); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	enumerated := snap.Counters["search_partitions_enumerated"]
	deduped := snap.Counters["search_partitions_deduped"]
	feasible := snap.Counters["search_candidates_feasible"]
	infeasible := snap.Counters["search_candidates_infeasible"]
	if enumerated == 0 || deduped == 0 || feasible == 0 {
		t.Fatalf("counters not populated: %+v", snap.Counters)
	}
	if feasible+infeasible != enumerated-deduped {
		t.Errorf("feasible (%d) + infeasible (%d) != enumerated (%d) - deduped (%d)",
			feasible, infeasible, enumerated, deduped)
	}
	load := snap.Histograms["search_jobs_per_worker"]
	if load.Count != 8 {
		t.Errorf("worker-load histogram has %d samples, want one per worker (8)", load.Count)
	}
	if int64(load.Sum) != enumerated-deduped {
		t.Errorf("worker-load sum = %.0f jobs, want evaluated count %d", load.Sum, enumerated-deduped)
	}
	if snap.Counters["model_cache_hits"] == 0 || snap.Counters["model_cache_misses"] == 0 {
		t.Error("search did not exercise the instrumented estimate cache")
	}
}

// TestSearchTelemetryConcurrentAllocations drives several pooled
// searches at once against one shared registry (run under -race in
// `make verify` and CI): worker goroutines from every pool update the
// same counters concurrently, and the aggregate must still balance.
func TestSearchTelemetryConcurrentAllocations(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(100 + uint64(g))
			for i := 0; i < 3; i++ {
				servers := randomFleet(r, 5)
				vms := randomVMs(t, r, 7)
				if _, err := a.Allocate(GoalBalanced, servers, vms); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	enumerated := snap.Counters["search_partitions_enumerated"]
	deduped := snap.Counters["search_partitions_deduped"]
	feasible := snap.Counters["search_candidates_feasible"]
	infeasible := snap.Counters["search_candidates_infeasible"]
	if feasible+infeasible != enumerated-deduped {
		t.Errorf("aggregate imbalance: feasible (%d) + infeasible (%d) != enumerated (%d) - deduped (%d)",
			feasible, infeasible, enumerated, deduped)
	}
	if got := snap.Histograms["search_jobs_per_worker"].Count; got != 12*4 {
		t.Errorf("worker-load samples = %d, want 48 (12 searches x 4 workers)", got)
	}
}
