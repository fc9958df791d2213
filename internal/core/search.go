package core

// The parallel Pareto-pruned partition search behind Allocator.Allocate.
//
// The engine keeps the paper's exhaustive semantics — every non-redundant
// set partition of the VM set is still evaluated — but restructures the
// enumeration around four exact reductions:
//
//  1. Equivalent partitions (same typed multiset of block compositions)
//     are deduplicated through a packed integer signature instead of the
//     legacy sorted-string form; no per-partition string is ever built.
//     A block's part of it is a dense id, its per-type VM counts read as
//     one mixed-radix number.
//  2. Each block is priced once per server group per call. reset groups
//     the servers by current allocation in one pass, finding a group by
//     its allocation's estimate-cache slot (allocations outside the
//     cache's box, by comparison). A block then visits only each group's
//     first untouched member plus the servers this partition already
//     touched, in ascending index, and keeps the first server of every
//     distinct effective allocation. Untouched twins of a group's first
//     untouched member share its allocation, so the full scan's
//     first-occurrence dedup would skip them anyway: the options, their
//     order and the ε tie-break are those of the full scan. The visited
//     untouched servers head distinct groups, so only the touched
//     servers' allocations need comparing. An untouched server's price
//     comes from the worker's dense table indexed by (block id, group),
//     filled on first lookup and cleared per call, with no hashing and
//     no lock; only touched servers, whose allocation depends on the
//     partition prefix, are priced directly. A price is two estimate
//     reads and a loop over the block's VM types, and the Allocator's
//     model.EstimateCache is itself a dense table over the bounded
//     allocation box.
//  3. Candidates are pruned online to a Pareto frontier: the α-weighted
//     score after max-normalization is monotone increasing in both
//     estimated time and energy, so a candidate weakly dominated by an
//     earlier one can never win under any goal — dropping it cannot
//     change the outcome (the earlier candidate also wins the
//     first-of-the-list tie-break). Later dominators never evict earlier
//     candidates, because within the scoreEpsilon tie band the earlier
//     index must still win.
//  4. For larger VM sets the deduplicated partition stream fans out to a
//     bounded worker pool. Each job carries its enumeration index, each
//     worker reduces its subsequence in arrival order, and the final
//     merge re-sorts by index, so the deterministic tie-break of the
//     serial scan survives the parallel reduce bit-for-bit.
//
// Normalization maxima are tracked over every feasible candidate — not
// just the retained frontier — so pickBest sees exactly the constants
// the unpruned enumeration would have used.

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/partition"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// parallelWorkThreshold is the VM-set size from which Allocate fans the
// partition stream out to the worker pool. Below it there are at most
// B(5) = 52 partitions and the pool's startup cost exceeds the work; it
// also keeps the per-job allocations of the nested searches issued by a
// concurrent datacenter simulation (jobs of 1–4 VMs) on the serial fast
// path.
const parallelWorkThreshold = 6

// blockID is the canonical typed-multiset signature of one block: its VM
// count per type read as a mixed-radix number, digit t running from 0 to
// the request's count of type t (blockRadix gives the digit weights).
// Two blocks of one request share an id iff their typed multisets are
// equal, a block's id is positive, and ids lie below the product of
// (count_t + 1), at most 2^n = 4096 for partition.MaxN = 12 VMs — small
// enough to index a dense per-call price table (searchWorker.prices).
type blockID uint16

// partSig canonicalizes a whole partition as its sorted multiset of
// block ids, zero-padded (a block is never empty, so a zero entry is
// unambiguous padding). Two partitions have equal signatures iff their
// multisets of block compositions are equal — the typed generalization
// of the paper's interchangeable-VM reduction [21].
type partSig [partition.MaxN]blockID

// priceTableLimit caps a worker's block-price table, in entries (32
// bytes each). A request of n VMs has at most 2^n block ids per server
// group, so jobs of up to 8 VMs table 64 groups; on larger requests the
// groups past the cap are priced directly, as touched servers are.
const priceTableLimit = 1 << 14

// typeMask is a bitset over VM types (≤ partition.MaxN of them).
type typeMask uint16

// vmTypes assigns each VM a small type id such that two VMs share an id
// iff they are interchangeable: same class, nominal time and QoS bound.
// types[t] is a representative request of type t. The tables are built
// over typeOf[:0] and types[:0], so a reused search context fills them
// without allocating.
func vmTypes(vms []VMRequest, typeOf []uint8, types []VMRequest) ([]uint8, []VMRequest) {
	typeOf, types = typeOf[:0], types[:0]
assign:
	for _, vm := range vms {
		for t, rep := range types {
			if rep.Class == vm.Class && rep.NominalTime == vm.NominalTime && rep.MaxTime == vm.MaxTime {
				typeOf = append(typeOf, uint8(t))
				continue assign
			}
		}
		typeOf = append(typeOf, uint8(len(types)))
		types = append(types, vm)
	}
	return typeOf, types
}

// blockRadix returns, over radix[:0], the weight of each type's digit in
// a blockID, and the number of ids: the product of (count_t + 1). The
// product is capped just past priceTableLimit, so a request too large for
// the partition generator (which rejects it) cannot overflow it.
func blockRadix(typeOf []uint8, ntypes int, radix []blockID) ([]blockID, int) {
	radix = zeroed(radix, ntypes)
	for _, t := range typeOf {
		radix[t]++
	}
	ids := 1
	for t, count := range radix {
		radix[t] = blockID(ids)
		ids = min(ids*(int(count)+1), priceTableLimit+1)
	}
	return radix, ids
}

// sigOfBlock sums a block's members' digit weights into its id.
func sigOfBlock(typeOf []uint8, radix []blockID, block []int) blockID {
	var id blockID
	for _, vi := range block {
		id += radix[typeOf[vi]]
	}
	return id
}

// sigOfPartition canonicalizes a partition: block ids, insertion-sorted
// descending into a fixed array. No heap allocation.
func sigOfPartition(typeOf []uint8, radix []blockID, blocks [][]int) partSig {
	var sig partSig
	for i, block := range blocks {
		s := sigOfBlock(typeOf, radix, block)
		j := i
		for j > 0 && sig[j-1] < s {
			sig[j] = sig[j-1]
			j--
		}
		sig[j] = s
	}
	return sig
}

// blockPrice is one block's pricing on one server state: the placement
// economics minus the concrete VM identities. The grown allocation is
// the base plus the block's key, recomputed where it is needed.
type blockPrice struct {
	time   units.Seconds
	energy units.Joules
	ok     bool
}

// priceEntry is one slot of a worker's block-price table; priced is
// false until the slot's first lookup in the call fills it.
type priceEntry struct {
	blockPrice
	priced bool
}

// candidate is one fully placed partition that survived Pareto pruning.
// Placements are stored as indices (blocks into the request's VM set,
// places into the server list) and materialized only for the winner.
type candidate struct {
	// idx is the partition's position in the deduplicated enumeration —
	// the identity the first-of-the-list tie-break ranks on.
	idx    int
	time   units.Seconds
	energy units.Joules
	blocks [][]int
	places []blockPlace
}

// blockPlace records where one block of a candidate went and at what
// estimated cost.
type blockPlace struct {
	serverID int
	after    model.Key
	time     units.Seconds
	energy   units.Joules
}

// searchTelemetry holds the search's instrument handles, resolved once
// per Allocator; all nil (no-op) when the allocator has no registry.
// Counters are atomic, so workers update them directly.
type searchTelemetry struct {
	enumerated *obs.Counter // partitions produced by the generator
	deduped    *obs.Counter // partitions skipped by the signature dedup
	feasible   *obs.Counter // candidates every block of which placed
	infeasible *obs.Counter // candidates with an unplaceable block
	pruned     *obs.Counter // candidates dropped by Pareto domination
	exhausted  *obs.Counter // searches abandoned on budget exhaustion
	degraded   *obs.Counter // allocations served by the first-fit fallback
	workerLoad *obs.Histogram
}

func newSearchTelemetry(reg *obs.Registry) searchTelemetry {
	return searchTelemetry{
		enumerated: reg.Counter("search_partitions_enumerated"),
		deduped:    reg.Counter("search_partitions_deduped"),
		feasible:   reg.Counter("search_candidates_feasible"),
		infeasible: reg.Counter("search_candidates_infeasible"),
		pruned:     reg.Counter("search_pareto_pruned"),
		exhausted:  reg.Counter("search_budget_exhausted"),
		degraded:   reg.Counter("search_degraded_firstfit"),
		// Jobs per worker: a flat pool shows every worker near
		// jobs/workers; a long tail of idle workers shows the serial
		// producer is the bottleneck.
		workerLoad: reg.Histogram("search_jobs_per_worker",
			1, 4, 16, 64, 256, 1024, 4096, 16384),
	}
}

// searchCtx is the state of one Allocate call: the VM type table, the
// server groups, the partition dedup set and the serial worker. An
// Allocator keeps one idle context as its spare (Allocator.acquire/
// release), so its map and scratch slices are reset between calls
// instead of rebuilt.
type searchCtx struct {
	a *Allocator
	*searchTelemetry

	goal    Goal
	servers []ServerState
	vms     []VMRequest
	typeOf  []uint8
	types   []VMRequest
	typeKey []model.Key
	// radix holds the blockID digit weights and nBlocks the number of
	// ids; a worker's price table covers groups [0, tableGroups).
	radix       []blockID
	nBlocks     int
	tableGroups int

	// stats is the exact per-call tally behind AllocateExplained.
	// Enumerated/Deduped are bumped by the sequential producer; the
	// per-worker tallies are summed in after the pool drains, so no
	// atomic traffic joins the hot path.
	stats SearchStats

	// groupHead lists, in first-occurrence order, the first server of
	// each distinct current allocation, groupKey that allocation and
	// groupTail its last server; groupOf[si] is server si's group.
	groupHead []int
	groupKey  []model.Key
	groupTail []int
	groupOf   []int
	// bySlot maps an allocation's estimate-cache slot to its group plus
	// one (zero: no group yet); it is cleared through groupKey, so only
	// the previous call's entries are touched. outGroups lists the groups
	// whose allocation lies outside the cache's box, the only ones found
	// by comparison.
	bySlot    []int32
	outGroups []int

	// seen is the partition-signature dedup set; only the sequential
	// producer touches it.
	seen map[partSig]struct{}
	// serial is the worker searchSerial evaluates on, kept with its
	// scratch buffers for the context's next call.
	serial *searchWorker
}

func newSearchCtx(a *Allocator, goal Goal, servers []ServerState, vms []VMRequest) *searchCtx {
	sc := &searchCtx{
		a:               a,
		searchTelemetry: &a.tel,
		bySlot:          make([]int32, a.est.Slots()),
		seen:            make(map[partSig]struct{}),
	}
	sc.reset(goal, servers, vms)
	return sc
}

// reset readies the context for one call and groups the servers by
// current allocation (see groupHead).
func (sc *searchCtx) reset(goal Goal, servers []ServerState, vms []VMRequest) {
	sc.goal, sc.servers, sc.vms = goal, servers, vms
	sc.typeOf, sc.types = vmTypes(vms, sc.typeOf, sc.types)
	sc.typeKey = sc.typeKey[:0]
	for _, rep := range sc.types {
		sc.typeKey = append(sc.typeKey, model.KeyFor(rep.Class, 1))
	}
	sc.radix, sc.nBlocks = blockRadix(sc.typeOf, len(sc.types), sc.radix)
	sc.groupServers(servers)
	sc.tableGroups = min(len(sc.groupHead), priceTableLimit/sc.nBlocks)
	sc.stats = SearchStats{}
	clear(sc.seen)
}

// groupServers groups the servers by current allocation in one pass: an
// allocation inside the estimate cache's box finds its group through
// bySlot, one outside it by comparison with the other out-of-box groups.
func (sc *searchCtx) groupServers(servers []ServerState) {
	est, bySlot := sc.a.est, sc.bySlot
	for _, k := range sc.groupKey {
		if slot, ok := est.Slot(k); ok {
			bySlot[slot] = 0
		}
	}
	n := len(servers)
	heads, keys, tails, out := sc.groupHead[:0], sc.groupKey[:0], sc.groupTail[:0], sc.outGroups[:0]
	groupOf := slices.Grow(sc.groupOf[:0], n)[:n]
	for si := range servers {
		alloc := servers[si].Alloc
		g := -1
		slot, inBox := est.Slot(alloc)
		if inBox {
			g = int(bySlot[slot]) - 1
		} else {
			for _, og := range out {
				if keys[og] == alloc {
					g = og
					break
				}
			}
		}
		if g < 0 {
			g = len(heads)
			heads, keys, tails = append(heads, si), append(keys, alloc), append(tails, si)
			if inBox {
				bySlot[slot] = int32(g + 1)
			} else {
				out = append(out, g)
			}
		}
		groupOf[si], tails[g] = g, si
	}
	sc.groupHead, sc.groupKey, sc.groupTail, sc.outGroups = heads, keys, tails, out
	sc.groupOf = groupOf
}

// nextInGroup returns the next server after si, in ascending index, of
// group g, or -1.
func (sc *searchCtx) nextInGroup(g, si int) int {
	for si++; si <= sc.groupTail[g]; si++ {
		if sc.groupOf[si] == g {
			return si
		}
	}
	return -1
}

// priceBlock prices adding a block of the VM types in mask (total key
// blockKey) to a server currently at base. The semantics are those of
// Allocator.evalBlock restricted to the block's own VMs; QoS of VMs
// already tentatively placed on the server is checked separately by
// placedOK, because it depends on the partition prefix.
func (sc *searchCtx) priceBlock(base model.Key, mask typeMask, blockKey model.Key) blockPrice {
	cfg := &sc.a.cfg
	after := base.Add(blockKey)
	if after.Total() > cfg.MaxVMsPerServer {
		return blockPrice{}
	}
	for _, c := range workload.Classes {
		if after.Count(c) > cfg.PerClassBound[c] {
			return blockPrice{}
		}
	}
	recAfter, err := sc.a.est.Estimate(after)
	if err != nil {
		return blockPrice{}
	}
	aux := cfg.DB.Aux()
	var blockTime units.Seconds
	for ; mask != 0; mask &= mask - 1 {
		rep := sc.types[bits.TrailingZeros16(uint16(mask))]
		ref := aux.RefTime[rep.Class]
		if ref <= 0 {
			return blockPrice{}
		}
		est := recAfter.ClassTime(rep.Class) * rep.NominalTime / ref
		if !cfg.RelaxQoS && rep.MaxTime > 0 && est > rep.MaxTime {
			return blockPrice{}
		}
		if est > blockTime {
			blockTime = est
		}
	}
	// Marginal energy: see Allocator.evalBlock — whole-outcome energy
	// difference, clamped at zero.
	var beforeEnergy units.Joules
	if !base.IsZero() {
		recBefore, err := sc.a.est.Estimate(base)
		if err != nil {
			return blockPrice{}
		}
		beforeEnergy = recBefore.Energy
	}
	deltaE := recAfter.Energy - beforeEnergy
	if deltaE < 0 {
		deltaE = 0
	}
	return blockPrice{time: blockTime, energy: deltaE, ok: true}
}

// placedOK rechecks the QoS bounds of VM types already tentatively
// placed on a server whose allocation would grow to after. Counts are
// irrelevant — every VM of a type gets the same estimate — so a type
// bitmask suffices.
func (sc *searchCtx) placedOK(after model.Key, mask typeMask) bool {
	if mask == 0 || sc.a.cfg.RelaxQoS {
		return true
	}
	rec, err := sc.a.est.Estimate(after)
	if err != nil {
		return false
	}
	aux := sc.a.cfg.DB.Aux()
	for t := 0; mask != 0; t++ {
		if mask&1 != 0 {
			rep := sc.types[t]
			if rep.MaxTime > 0 {
				est := rec.ClassTime(rep.Class) * rep.NominalTime / aux.RefTime[rep.Class]
				if est > rep.MaxTime {
					return false
				}
			}
		}
		mask >>= 1
	}
	return true
}

// searchWorker evaluates a subsequence of the deduplicated partition
// stream, reducing it to a Pareto frontier plus the normalization
// maxima over every feasible candidate it saw. All scratch buffers are
// reused across partitions; a worker is single-goroutine state.
type searchWorker struct {
	sc *searchCtx

	// Per-partition scratch, reset via the touched list.
	extra   []model.Key // tentative additions per server index
	mask    []typeMask  // tentatively placed VM types per server index
	touched []int

	// Per-block scratch: the servers to visit, the effective allocations
	// already priced, and those of them that belong to touched servers.
	visit        []int
	seenBases    []model.Key
	touchedBases []model.Key
	options      []blockOption
	places       []blockPlace

	// prices is the block-price table of this call: entry
	// id*sc.tableGroups+g prices block id on group g's allocation, for
	// the groups below sc.tableGroups, filled on its first lookup. It is
	// reset with the worker.
	prices []priceEntry

	// Reduction state.
	frontier []candidate
	maxT     units.Seconds
	maxE     units.Joules
	// jobs counts partitions this worker evaluated (pool-utilization
	// telemetry; a plain int — each worker is single-goroutine state).
	jobs int
	// Per-worker exact tallies folded into searchCtx.stats after the
	// pool drains (plain ints for the same single-goroutine reason).
	nFeasible   int
	nInfeasible int
	nPruned     int
}

type blockOption struct {
	serverIdx int
	val       blockPrice
}

func (sc *searchCtx) newWorker() *searchWorker {
	return &searchWorker{
		sc:           sc,
		extra:        make([]model.Key, len(sc.servers)),
		mask:         make([]typeMask, len(sc.servers)),
		touched:      make([]int, 0, len(sc.vms)),
		visit:        make([]int, 0, len(sc.groupHead)+len(sc.vms)),
		seenBases:    make([]model.Key, 0, len(sc.groupHead)+len(sc.vms)),
		touchedBases: make([]model.Key, 0, len(sc.vms)),
		options:      make([]blockOption, 0, len(sc.groupHead)+len(sc.vms)),
		places:       make([]blockPlace, 0, len(sc.vms)),
		prices:       make([]priceEntry, sc.tableGroups*sc.nBlocks),
	}
}

// serialWorker returns the context's serial worker, reset for this call.
func (sc *searchCtx) serialWorker() *searchWorker {
	w := sc.serial
	if w == nil {
		sc.serial = sc.newWorker()
		return sc.serial
	}
	n := len(sc.servers)
	// The previous call materialized its winner before releasing the
	// context, so the old frontier is dead; clearing it drops the
	// candidates' block and placement slices.
	clear(w.frontier)
	*w = searchWorker{
		sc:           sc,
		extra:        zeroed(w.extra, n),
		mask:         zeroed(w.mask, n),
		touched:      w.touched[:0],
		visit:        w.visit[:0],
		seenBases:    w.seenBases[:0],
		touchedBases: w.touchedBases[:0],
		options:      w.options[:0],
		places:       w.places[:0],
		prices:       zeroed(w.prices, sc.tableGroups*sc.nBlocks),
		frontier:     w.frontier[:0],
	}
	return w
}

// zeroed returns s resized to n zero entries, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// consider evaluates one partition and folds it into the worker's
// frontier. blocks must be owned by the caller if owned is true;
// otherwise they are copied before retention.
func (w *searchWorker) consider(idx int, blocks [][]int, owned bool) {
	w.jobs++
	ok := w.evalPartition(blocks)
	if !ok {
		w.nInfeasible++
		w.sc.infeasible.Inc()
		return
	}
	w.nFeasible++
	w.sc.feasible.Inc()
	var candT units.Seconds
	var candE units.Joules
	for _, p := range w.places {
		candE += p.energy
		if p.time > candT {
			candT = p.time
		}
	}
	if candT > w.maxT {
		w.maxT = candT
	}
	if candE > w.maxE {
		w.maxE = candE
	}
	// Pareto pruning: a candidate weakly dominated by an earlier kept
	// one can never win any goal (the earlier also takes the tie).
	// Within a worker, arrival order is ascending enumeration order, so
	// every kept candidate is earlier than the new one.
	for i := range w.frontier {
		f := &w.frontier[i]
		if f.time <= candT && f.energy <= candE {
			w.nPruned++
			w.sc.pruned.Inc()
			return
		}
	}
	if !owned {
		blocks = copyBlocks(blocks)
	}
	w.frontier = append(w.frontier, candidate{
		idx:    idx,
		time:   candT,
		energy: candE,
		blocks: blocks,
		places: append([]blockPlace(nil), w.places...),
	})
}

// copyBlocks deep-copies a partition with a single backing array (a
// partition of n elements has exactly n entries in total).
func copyBlocks(blocks [][]int) [][]int {
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	flat := make([]int, 0, total)
	out := make([][]int, len(blocks))
	for i, b := range blocks {
		start := len(flat)
		flat = append(flat, b...)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// evalPartition greedily places every block of the partition on its
// best-scoring feasible server and prices the result into w.places
// (valid until the next call). ok is false when some block has no
// feasible server. The block-level choice mirrors the reference
// implementation exactly: servers with identical effective allocation
// collapse to the first of each group, options are max-normalized
// within the block, and the α-scored minimum wins with the epsilon
// tie-break to the lower server index. Only the servers visitServers
// lists are scanned; the rest are later twins of a listed server.
//
// The listed untouched servers belong to distinct groups, so their
// allocations are distinct: an untouched server can only repeat the
// effective allocation of an earlier touched one, and only a touched
// server's can repeat any earlier one. An untouched server's price
// comes from the worker's table (unless its group lies past the table);
// a touched server is priced directly.
func (w *searchWorker) evalPartition(blocks [][]int) (ok bool) {
	sc := w.sc
	alpha := sc.goal.Alpha
	for _, si := range w.touched {
		w.extra[si] = model.Key{}
		w.mask[si] = 0
	}
	w.touched = w.touched[:0]
	w.places = w.places[:0]

	for _, block := range blocks {
		var blockKey model.Key
		var bmask typeMask
		var id blockID
		for _, vi := range block {
			t := sc.typeOf[vi]
			blockKey = blockKey.Add(sc.typeKey[t])
			bmask |= 1 << t
			id += sc.radix[t]
		}

		w.seenBases, w.touchedBases = w.seenBases[:0], w.touchedBases[:0]
		w.options = w.options[:0]
		for _, si := range w.visitServers() {
			var v blockPrice
			if w.mask[si] == 0 {
				base := sc.servers[si].Alloc
				if slices.Contains(w.touchedBases, base) {
					continue
				}
				w.seenBases = append(w.seenBases, base)
				if g := sc.groupOf[si]; g < sc.tableGroups {
					e := &w.prices[int(id)*sc.tableGroups+g]
					if !e.priced {
						e.blockPrice, e.priced = sc.priceBlock(base, bmask, blockKey), true
					}
					v = e.blockPrice
				} else {
					v = sc.priceBlock(base, bmask, blockKey)
				}
			} else {
				base := sc.servers[si].Alloc.Add(w.extra[si])
				if slices.Contains(w.seenBases, base) {
					continue
				}
				w.seenBases = append(w.seenBases, base)
				w.touchedBases = append(w.touchedBases, base)
				v = sc.priceBlock(base, bmask, blockKey)
				v.ok = v.ok && sc.placedOK(base.Add(blockKey), w.mask[si])
			}
			if v.ok {
				w.options = append(w.options, blockOption{serverIdx: si, val: v})
			}
		}
		if len(w.options) == 0 {
			return false
		}

		var maxT units.Seconds
		var maxE units.Joules
		for _, o := range w.options {
			if o.val.time > maxT {
				maxT = o.val.time
			}
			if o.val.energy > maxE {
				maxE = o.val.energy
			}
		}
		bestI := -1
		bestScore := 0.0
		for i, o := range w.options {
			tn, en := 0.0, 0.0
			if maxT > 0 {
				tn = float64(o.val.time) / float64(maxT)
			}
			if maxE > 0 {
				en = float64(o.val.energy) / float64(maxE)
			}
			// The block-level choice honors the same α as the
			// allocation-level ranking.
			score := alpha*en + (1-alpha)*tn
			if bestI < 0 || score < bestScore-scoreEpsilon {
				bestScore, bestI = score, i
			}
		}
		chosen := w.options[bestI]
		si := chosen.serverIdx
		if w.extra[si].IsZero() && w.mask[si] == 0 {
			w.touched = append(w.touched, si)
		}
		w.extra[si] = w.extra[si].Add(blockKey)
		w.mask[si] |= bmask
		w.places = append(w.places, blockPlace{
			serverID: sc.servers[si].ID,
			after:    sc.servers[si].Alloc.Add(w.extra[si]),
			time:     chosen.val.time,
			energy:   chosen.val.energy,
		})
	}
	return true
}

// visitServers lists, in ascending index, the servers whose pricing can
// differ within the current partition: each group's first member not
// yet touched by the partition, and every touched server. An untouched
// server later in its group has the same effective allocation as the
// group's first untouched member, so the first-occurrence dedup of a
// full scan would skip it. The list is valid until the next call and
// must not be modified.
func (w *searchWorker) visitServers() []int {
	sc := w.sc
	if len(w.touched) == 0 {
		return sc.groupHead
	}
	w.visit = w.visit[:0]
	for g, si := range sc.groupHead {
		// A touched head gives way to its group's next untouched server.
		for si >= 0 && w.mask[si] != 0 {
			si = sc.nextInGroup(g, si)
		}
		if si >= 0 {
			w.visit = append(w.visit, si)
		}
	}
	w.visit = append(w.visit, w.touched...)
	// Insertion sort: group heads arrive ascending, so only a touched
	// head's successor and the few touched servers move.
	for i := 1; i < len(w.visit); i++ {
		for j := i; j > 0 && w.visit[j-1] > w.visit[j]; j-- {
			w.visit[j-1], w.visit[j] = w.visit[j], w.visit[j-1]
		}
	}
	return w.visit
}

// search enumerates the deduplicated partitions of the VM set and
// reduces them to a Pareto frontier sorted by enumeration index, plus
// the normalization maxima over all feasible candidates. exhausted
// reports that Config.SearchBudget ran out before the enumeration
// completed — the partial frontier must then be discarded (a truncated
// search breaks the normalization constants and the first-of-the-list
// tie-break) and the caller degrades to the first-fit fallback.
//
// The budget counts deduplicated partitions admitted to scoring, and it
// is spent by the sequential producer in both the serial and the
// parallel engine, so exhaustion strikes at exactly the same partition
// at every worker count: budgeted runs replay bit-for-bit.
func (sc *searchCtx) search(workers int) (cands []candidate, maxT units.Seconds, maxE units.Joules, exhausted bool, err error) {
	n := len(sc.vms)
	if workers <= 1 || n < parallelWorkThreshold {
		return sc.searchSerial(n)
	}
	return sc.searchParallel(n, workers)
}

func (sc *searchCtx) searchSerial(n int) ([]candidate, units.Seconds, units.Joules, bool, error) {
	w := sc.serialWorker()
	seen := sc.seen
	budget := sc.a.cfg.SearchBudget
	cancel := sc.a.cfg.Cancel
	exhausted := false
	idx := 0
	_, err := partition.ForEachIndexed(n, func(_ int, blocks [][]int) bool {
		sc.stats.Enumerated++
		sc.enumerated.Inc()
		ps := sigOfPartition(sc.typeOf, sc.radix, blocks)
		if _, dup := seen[ps]; dup {
			sc.stats.Deduped++
			sc.deduped.Inc()
			return true
		}
		if budget > 0 && idx >= budget {
			exhausted = true
			return false
		}
		if cancel != nil && cancel() {
			sc.stats.Canceled = true
			exhausted = true
			return false
		}
		seen[ps] = struct{}{}
		w.consider(idx, blocks, false)
		idx++
		return true
	})
	if err != nil {
		return nil, 0, 0, false, err
	}
	sc.foldWorkerStats(w)
	sc.workerLoad.Observe(float64(w.jobs))
	return w.frontier, w.maxT, w.maxE, exhausted, nil
}

// foldWorkerStats sums one drained worker's tallies into the per-call
// stats; callers must only invoke it after the worker has stopped.
func (sc *searchCtx) foldWorkerStats(w *searchWorker) {
	sc.stats.Feasible += w.nFeasible
	sc.stats.Infeasible += w.nInfeasible
	sc.stats.Pruned += w.nPruned
}

// searchJob is one deduplicated partition shipped to a worker, tagged
// with its enumeration index so the reduce can restore serial order.
type searchJob struct {
	idx    int
	blocks [][]int
}

func (sc *searchCtx) searchParallel(n, workers int) ([]candidate, units.Seconds, units.Joules, bool, error) {
	jobs := make(chan searchJob, 2*workers)
	ws := make([]*searchWorker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = sc.newWorker()
		wg.Add(1)
		go func(w *searchWorker) {
			defer wg.Done()
			for j := range jobs {
				w.consider(j.idx, j.blocks, true)
			}
		}(ws[i])
	}

	// The producer enumerates and deduplicates sequentially — the seen
	// map stays single-goroutine, so "first occurrence is evaluated" is
	// deterministic — while workers price partitions concurrently. The
	// budget is spent here too, never by the racing consumers, so the
	// cut point is independent of worker scheduling.
	seen := sc.seen
	budget := sc.a.cfg.SearchBudget
	cancel := sc.a.cfg.Cancel
	exhausted := false
	idx := 0
	_, err := partition.ForEachIndexed(n, func(_ int, blocks [][]int) bool {
		sc.stats.Enumerated++
		sc.enumerated.Inc()
		ps := sigOfPartition(sc.typeOf, sc.radix, blocks)
		if _, dup := seen[ps]; dup {
			sc.stats.Deduped++
			sc.deduped.Inc()
			return true
		}
		if budget > 0 && idx >= budget {
			exhausted = true
			return false
		}
		// The cancel poll lives on the producer like the budget: the cut
		// point never depends on worker scheduling, only on when the hook
		// fired relative to the sequential enumeration.
		if cancel != nil && cancel() {
			sc.stats.Canceled = true
			exhausted = true
			return false
		}
		seen[ps] = struct{}{}
		jobs <- searchJob{idx: idx, blocks: copyBlocks(blocks)}
		idx++
		return true
	})
	close(jobs)
	wg.Wait()
	if err != nil {
		return nil, 0, 0, false, err
	}
	for _, w := range ws {
		sc.foldWorkerStats(w)
		sc.workerLoad.Observe(float64(w.jobs))
	}

	var frontier []candidate
	var maxT units.Seconds
	var maxE units.Joules
	for _, w := range ws {
		frontier = append(frontier, w.frontier...)
		if w.maxT > maxT {
			maxT = w.maxT
		}
		if w.maxE > maxE {
			maxE = w.maxE
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].idx < frontier[j].idx })
	// Re-prune across worker boundaries: a candidate kept by one worker
	// may be dominated by an earlier candidate another worker held.
	kept := frontier[:0]
	for _, c := range frontier {
		dominated := false
		for i := range kept {
			if kept[i].time <= c.time && kept[i].energy <= c.energy {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, c)
		} else {
			sc.stats.Pruned++
			sc.pruned.Inc()
		}
	}
	return kept, maxT, maxE, exhausted, nil
}

// materialize expands the winning candidate into the public Allocation
// form, reconstructing per-block VM lists from the stored indices.
func (sc *searchCtx) materialize(c candidate) Allocation {
	pls := make([]Placement, len(c.places))
	for i, p := range c.places {
		block := c.blocks[i]
		vms := make([]VMRequest, len(block))
		for j, vi := range block {
			vms[j] = sc.vms[vi]
		}
		pls[i] = Placement{
			ServerID:  p.serverID,
			VMs:       vms,
			NewAlloc:  p.after,
			EstTime:   p.time,
			EstEnergy: p.energy,
		}
	}
	return Allocation{Placements: pls, EstTime: c.time, EstEnergy: c.energy}
}
