package model

import (
	"sync/atomic"

	"pacevm/internal/obs"
	"pacevm/internal/workload"
)

// maxBoxSide caps each side of an EstimateCache box, so a caller's
// unbounded per-server capacity cannot size a huge table: at most
// (maxBoxSide+1)^3 = 32,768 slots. Keys past the cap are still
// estimated, just not cached.
const maxBoxSide = 31

// EstimateCache memoizes DB.Estimate results. Estimate is pure for a
// given database, but off-grid keys pay a linear nearest-record scan,
// and the allocator's partition search prices the same few dozen
// allocations millions of times per replay. A hit returns exactly the
// record a direct Estimate call would, so cached and uncached searches
// are bit-for-bit equivalent.
//
// The cache is a dense table over the keys inside a box fixed at
// construction: key k with 0 <= k.Count(c) <= box.Count(c) for every
// class c owns one slot, an atomic pointer to an immutable entry filled
// on first use. A lookup is an index computation and a pointer load,
// with no hashing and no lock, so it is safe and cheap under concurrent
// search workers. Keys outside the box go straight to DB.Estimate,
// uncached. The allocator (internal/core) builds one cache per
// Allocator with the box of its per-class and per-server VM bounds, the
// only allocations its search estimates; the database is immutable, so
// the cache lives as long as the Allocator. Do not share a cache across
// databases.
type EstimateCache struct {
	db *DB

	// box is the largest cached key, componentwise; slots holds
	// (box.NCPU+1)(box.NMEM+1)(box.NIO+1) entries in row-major
	// (NCPU, NMEM, NIO) order.
	box   Key
	slots []atomic.Pointer[estimateEntry]
	n     atomic.Int64 // filled slots

	// Telemetry handles (see Instrument); nil by default, the zero-cost
	// disabled path.
	hits   *obs.Counter
	misses *obs.Counter
	size   *obs.Gauge
}

type estimateEntry struct {
	rec Record
	err error
}

// NewEstimateCache returns an empty cache over db that memoizes the keys
// componentwise within box. Negative box counts are treated as zero, and
// each count is capped at 31.
func NewEstimateCache(db *DB, box Key) *EstimateCache {
	for _, c := range workload.Classes {
		box = box.With(c, min(max(box.Count(c), 0), maxBoxSide))
	}
	n := (box.NCPU + 1) * (box.NMEM + 1) * (box.NIO + 1)
	return &EstimateCache{db: db, box: box, slots: make([]atomic.Pointer[estimateEntry], n)}
}

// DB returns the underlying database.
func (c *EstimateCache) DB() *DB { return c.db }

// Instrument wires the cache's telemetry to reg: counters
// model_cache_hits and model_cache_misses plus the model_cache_size
// gauge, the memoized-key count. Every Estimate call is exactly one hit
// or one miss; a key outside the box is always a miss. An allocator's
// cache lives as long as the allocator, so on a warmed allocator the
// gauge reads the bounded key space its searches reached, not one
// search's share of it. A nil reg resolves the handles to nil, keeping
// the disabled no-op path. Multiple caches instrumented against one
// registry share the instruments: the counters aggregate, and the gauge
// shows the largest cache (of the strict and relaxed allocators of one
// PA strategy, for instance).
func (c *EstimateCache) Instrument(reg *obs.Registry) {
	c.hits = reg.Counter("model_cache_hits")
	c.misses = reg.Counter("model_cache_misses")
	c.size = reg.Gauge("model_cache_size")
}

// Len returns the number of memoized keys.
func (c *EstimateCache) Len() int { return int(c.n.Load()) }

// Slots returns the number of keys the box holds: Slot indexes lie in
// [0, Slots()).
func (c *EstimateCache) Slots() int { return len(c.slots) }

// Slot returns k's dense index in the table, or false when k lies
// outside the box. Two keys in the box share an index iff they are
// equal, so callers can group keys through a slice indexed by it.
func (c *EstimateCache) Slot(k Key) (int, bool) {
	b := c.box
	if uint(k.NCPU) > uint(b.NCPU) || uint(k.NMEM) > uint(b.NMEM) || uint(k.NIO) > uint(b.NIO) {
		return 0, false
	}
	return (k.NCPU*(b.NMEM+1)+k.NMEM)*(b.NIO+1) + k.NIO, true
}

// Estimate returns db.Estimate(k), memoized when k lies in the box.
// Errors are memoized too: an unpriceable key stays unpriceable for the
// life of the database.
func (c *EstimateCache) Estimate(k Key) (Record, error) {
	i, ok := c.Slot(k)
	if ok {
		if e := c.slots[i].Load(); e != nil {
			c.hits.Inc()
			return e.rec, e.err
		}
	}
	c.misses.Inc()
	rec, err := c.db.Estimate(k)
	// Concurrent first lookups of one key may both compute it; Estimate
	// is deterministic, so whichever entry lands is the same value, and
	// only the store that lands counts toward the size.
	if ok && c.slots[i].CompareAndSwap(nil, &estimateEntry{rec: rec, err: err}) {
		c.size.SetMax(c.n.Add(1))
	}
	return rec, err
}
