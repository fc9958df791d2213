package core

import (
	"testing"

	"pacevm/internal/model"
	"pacevm/internal/rng"
)

// BenchmarkAllocateSmallerCloud is the steady state of a PA replay on
// the paper's SMALLER cloud: one warmed allocator over 66 servers that
// share 12 distinct allocations, cycling through mixed 1-4 VM requests
// under the balanced goal. `make profile-search` profiles it.
func BenchmarkAllocateSmallerCloud(b *testing.B) {
	a, err := NewAllocator(Config{DB: sharedDB(b), SearchWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	allocs := [12]model.Key{
		{}, {NCPU: 1}, {NMEM: 1}, {NIO: 1}, {NCPU: 2}, {NCPU: 1, NMEM: 1},
		{NCPU: 1, NIO: 1}, {NMEM: 1, NIO: 1}, {NIO: 2}, {NCPU: 2, NIO: 1},
		{NCPU: 1, NMEM: 1, NIO: 1}, {NMEM: 2},
	}
	r := rng.New(61)
	servers := make([]ServerState, 66)
	for i := range servers {
		// Half the fleet idle, as in a replay between bursts.
		k := allocs[0]
		if r.Bool(0.5) {
			k = allocs[1+r.Intn(len(allocs)-1)]
		}
		servers[i] = ServerState{ID: i, Alloc: k}
	}
	reqs := make([][]VMRequest, 64)
	for i := range reqs {
		reqs[i] = randomVMs(b, r, 1+r.Intn(4))
	}
	for _, vms := range reqs {
		if _, err := a.Allocate(GoalBalanced, servers, vms); err != nil && err != ErrInfeasible {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Allocate(GoalBalanced, servers, reqs[i%len(reqs)]); err != nil && err != ErrInfeasible {
			b.Fatal(err)
		}
	}
}
