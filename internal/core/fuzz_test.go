package core

import (
	"reflect"
	"testing"

	"pacevm/internal/model"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// fuzzAllocs is the palette fuzzed fleets draw server allocations from,
// one byte per server, so a fleet repeats a few allocations many times.
// The tail lies outside the per-class box of the default bounds, and the
// last two exceed the default MaxVMsPerServer of the test database.
var fuzzAllocs = [...]model.Key{
	{}, {}, {},
	{NCPU: 1}, {NMEM: 1}, {NIO: 1},
	{NCPU: 1, NMEM: 1}, {NCPU: 2}, {NMEM: 1, NIO: 1}, {NCPU: 1, NIO: 2},
	{NCPU: 3, NMEM: 2}, {NIO: 6}, {NCPU: 8},
	{NCPU: 2, NMEM: 3, NIO: 4}, {NCPU: 13}, {NCPU: 5, NMEM: 5, NIO: 5},
}

// fuzzFleet decodes one server per byte (at most 80), IDs ascending.
func fuzzFleet(fleet []byte) []ServerState {
	if len(fleet) == 0 {
		fleet = []byte{0}
	}
	if len(fleet) > 80 {
		fleet = fleet[:80]
	}
	servers := make([]ServerState, len(fleet))
	for i, b := range fleet {
		servers[i] = ServerState{ID: i, Alloc: fuzzAllocs[int(b)%len(fuzzAllocs)]}
	}
	return servers
}

// fuzzVMs decodes one VM per byte (1 to 7 of them): the class, a nominal
// time factor and a QoS bound from small pools, so types repeat. The
// tightest bound, 1.01 times the nominal time, is missed under
// contention: for a CPU VM, one more CPU VM on its server is enough.
func fuzzVMs(t *testing.T, spec []byte) []VMRequest {
	if len(spec) == 0 {
		spec = []byte{0}
	}
	if len(spec) > 7 {
		spec = spec[:7]
	}
	factors := [...]units.Seconds{1, 1, 1.25, 1.5}
	vms := make([]VMRequest, len(spec))
	for i, b := range spec {
		class := workload.Classes[int(b)%workload.NumClasses]
		nominal := refTime(t, class) * factors[int(b)/3%len(factors)]
		var qos units.Seconds
		switch int(b) / 12 % 4 {
		case 1:
			qos = nominal * 4
		case 2:
			qos = nominal * 3 / 2
		case 3:
			qos = nominal * 1.01
		}
		vms[i] = vm(string(rune('a'+i)), class, nominal, qos)
	}
	return vms
}

// shiftBytes returns b with every byte incremented: fuzzFleet and
// fuzzVMs decode it to another fleet and another VM-type pattern.
func shiftBytes(b []byte) []byte {
	out := make([]byte, len(b))
	for i, x := range b {
		out[i] = x + 1
	}
	return out
}

// FuzzAllocateMatchesReference asserts that Allocate answers exactly
// what AllocateReference does, serial and with a two-worker pool, over
// fleets with many duplicated allocations (some outside the per-class
// box or above MaxVMsPerServer), 1 to 7 VMs with repeated types, each
// paper goal, QoS relaxed or not, and per-class bounds disabled by a
// negative PerClassBound (the ablation setting). ablate's low three
// bits pick the classes whose bound is disabled. Each allocator serves
// three calls in turn, A/B/A: the fuzzed call, one with the fleet and
// VM bytes shifted under the next goal, and the fuzzed call again, so
// state one call leaves in the allocator must not reach the next.
func FuzzAllocateMatchesReference(f *testing.F) {
	// The TestTouchedTwinStaysSkipped fleet and VMs.
	f.Add([]byte{0, 3, 0}, []byte{36, 0}, uint8(2), false, uint8(0))
	f.Add([]byte{0, 3, 3, 0, 7, 3, 0, 7, 7, 12}, []byte{0, 0, 1, 36}, uint8(2), false, uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, []byte{0, 12, 24, 1, 2}, uint8(0), false, uint8(0))
	f.Add([]byte{14, 15, 13, 0, 0, 6, 6, 6}, []byte{0, 3, 0, 3, 1, 2, 25}, uint8(1), true, uint8(7))
	f.Add([]byte{10, 11, 3, 3, 3, 4, 4, 9}, []byte{24, 25, 26, 24, 25, 26}, uint8(1), false, uint8(5))
	f.Fuzz(func(t *testing.T, fleet, spec []byte, alpha uint8, relax bool, ablate uint8) {
		type call struct {
			goal    Goal
			servers []ServerState
			vms     []VMRequest
		}
		first := call{Goal{Alpha: float64(alpha%3) / 2}, fuzzFleet(fleet), fuzzVMs(t, spec)}
		second := call{Goal{Alpha: float64((alpha+1)%3) / 2}, fuzzFleet(shiftBytes(fleet)), fuzzVMs(t, shiftBytes(spec))}
		var bound [workload.NumClasses]int
		for c := range bound {
			if ablate>>c&1 != 0 {
				bound[c] = -1
			}
		}
		for _, workers := range []int{1, 2} {
			a, err := NewAllocator(Config{DB: sharedDB(t), RelaxQoS: relax, PerClassBound: bound, SearchWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range []call{first, second, first} {
				want, wantErr := a.AllocateReference(c.goal, c.servers, c.vms)
				got, gotErr := a.Allocate(c.goal, c.servers, c.vms)
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("workers=%d call %d: err %v, reference err %v", workers, i, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d call %d: Allocate %+v\nreference %+v", workers, i, got, want)
				}
			}
		}
	})
}

// TestTouchedTwinStaysSkipped pins the server dedup against a touched
// server. Servers 0 and 2 are empty and server 1 holds one CPU VM. In
// the partition {v0}{v1}, v0 (a CPU VM whose QoS bound fails under any
// CPU neighbour) takes server 0, which then has the same effective
// allocation as server 1. Pricing v1, the scan reaches server 0 first:
// it fails placedOK (v0 would miss its bound), and its untouched twin,
// server 1, is skipped as a duplicate allocation although v1 alone
// would fit there. v1 must therefore go to server 2, even though the
// energy goal prefers server 1.
func TestTouchedTwinStaysSkipped(t *testing.T) {
	a, err := NewAllocator(Config{DB: sharedDB(t), SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := refTime(t, workload.ClassCPU)
	probe := vm("probe", workload.ClassCPU, ref, 0)
	alone, err1 := a.EstimateVM(model.Key{NCPU: 1}, probe)
	paired, err2 := a.EstimateVM(model.Key{NCPU: 2}, probe)
	if err1 != nil || err2 != nil || !(alone < paired) {
		t.Fatalf("model shows no CPU contention: alone %v (%v), paired %v (%v)", alone, err1, paired, err2)
	}
	vms := []VMRequest{
		vm("v0", workload.ClassCPU, ref, (alone+paired)/2),
		vm("v1", workload.ClassCPU, ref, 0),
	}
	servers := []ServerState{{ID: 0}, {ID: 1, Alloc: model.Key{NCPU: 1}}, {ID: 2}}

	// The skip must matter: on its own, v1 is cheaper on server 1.
	onTwin, ok1 := a.EvaluateBlock(model.Key{NCPU: 1}, vms[1:])
	onEmpty, ok2 := a.EvaluateBlock(model.Key{}, vms[1:])
	if !ok1 || !ok2 || !(onTwin.EstEnergy < onEmpty.EstEnergy) {
		t.Fatalf("v1 is not cheaper next to a CPU VM: %+v (%v) vs %+v (%v)", onTwin, ok1, onEmpty, ok2)
	}

	want, err := a.AllocateReference(GoalEnergy, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Allocate(GoalEnergy, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Allocate %+v, reference %+v", got, want)
	}
	if len(got.Placements) != 2 || got.Placements[0].ServerID != 0 || got.Placements[1].ServerID != 2 {
		t.Fatalf("placements %+v, want v0 on server 0 and v1 on server 2", got.Placements)
	}
}
