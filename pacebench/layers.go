package main

// Per-layer instrumentation that lives entirely in the benchmark: a span
// recorder, a timing decorator around strategy.Strategy, and runtime
// (GC and allocation) sampling. Nothing here changes what the program
// under test computes; the traced run asserts that.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pacevm/internal/core"
	"pacevm/internal/strategy"
)

// span is one timed interval at a layer boundary. Parent is the ID of
// the span that caused it (0 for a root); Req groups the spans of one
// request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory, up to a cap, and writes them out when
// the run ends. A nil *spanLog records nothing.
type spanLog struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	cap     int
	dropped int64
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{t0: time.Now(), cap: capacity, spans: make([]span, 0, 1024)}
}

// newID reserves a span ID, so children can name a parent still open.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

// add records a finished span.
func (l *spanLog) add(id, parent, req int64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < l.cap {
		l.spans = append(l.spans, span{id, parent, req, name, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds()})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// write dumps the spans as JSON lines into path.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	n, dropped := len(l.spans), l.dropped
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("spans: %d written to %s (%d over the cap not kept)", n, path, dropped)
	return nil
}

// placeStats aggregates the timing decorator's observations. One value
// serves one simulation at a time (cloudsim.Run calls its strategy from
// a single goroutine).
type placeStats struct {
	calls, ok int64
	nanos     []float64 // per-call host time
	busy      time.Duration
	// From PlaceExplained, to cross-check the search counters.
	explained, enumerated, degraded int64

	spans  *spanLog
	parent int64 // span the calls are attributed to (the enclosing replay)
	req    int64 // request the calls belong to (the replayed trace)
}

func (p *placeStats) record(start time.Time, ok bool) {
	end := time.Now()
	d := end.Sub(start)
	p.calls++
	if ok {
		p.ok++
	}
	p.busy += d
	p.nanos = append(p.nanos, float64(d.Nanoseconds()))
	p.spans.add(p.spans.newID(), p.parent, p.req, "strategy.Place", start, end)
}

func (p *placeStats) addSearch(s core.SearchStats) {
	p.explained++
	p.enumerated += int64(s.Enumerated)
	if s.Degraded {
		p.degraded++
	}
}

// timedStrategy times Place. When the wrapped strategy explains its
// decisions, Place goes through PlaceExplained — which must decide
// exactly as Place — so the search tallies are collected too.
type timedStrategy struct {
	inner strategy.Strategy
	ex    strategy.Explainer
	st    *placeStats
}

func (t *timedStrategy) Name() string { return t.inner.Name() }

func (t *timedStrategy) Place(servers []strategy.Server, vms []core.VMRequest) ([]int, bool) {
	start := time.Now()
	if t.ex != nil {
		assign, ok, info := t.ex.PlaceExplained(servers, vms)
		t.st.record(start, ok)
		t.st.addSearch(info.Stats)
		return assign, ok
	}
	assign, ok := t.inner.Place(servers, vms)
	t.st.record(start, ok)
	return assign, ok
}

// timedIndexed keeps the capacity-indexed fast path of strategies that
// have one: cloudsim.Run type-asserts IndexedPlacer and CapacityHinter,
// so dropping either would silently change the code path measured.
type timedIndexed struct {
	*timedStrategy
	ip strategy.IndexedPlacer
	ch strategy.CapacityHinter
}

func (t *timedIndexed) PlaceIndexed(idx *strategy.FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool) {
	start := time.Now()
	assign, ok := t.ip.PlaceIndexed(idx, vms, dst)
	t.st.record(start, ok)
	return assign, ok
}

func (t *timedIndexed) CanFit(idx *strategy.FleetIndex, n int) (fits, exact bool) {
	return t.ch.CanFit(idx, n)
}

// timedExplainer keeps strategy.Explainer for strategies that have it
// (the decision recorder path asserts it).
type timedExplainer struct {
	*timedStrategy
}

func (t *timedExplainer) PlaceExplained(servers []strategy.Server, vms []core.VMRequest) ([]int, bool, strategy.PlaceInfo) {
	start := time.Now()
	assign, ok, info := t.ex.PlaceExplained(servers, vms)
	t.st.record(start, ok)
	t.st.addSearch(info.Stats)
	return assign, ok, info
}

// wrapStrategy returns a timing decorator that implements every
// optional placement interface s implements — IndexedPlacer with
// CapacityHinter, or Explainer — and fails for a combination it cannot
// preserve.
func wrapStrategy(s strategy.Strategy, st *placeStats) (strategy.Strategy, error) {
	base := &timedStrategy{inner: s, st: st}
	ip, isIndexed := s.(strategy.IndexedPlacer)
	ch, isHinter := s.(strategy.CapacityHinter)
	ex, isExplainer := s.(strategy.Explainer)
	switch {
	case isIndexed && isHinter && !isExplainer:
		return &timedIndexed{timedStrategy: base, ip: ip, ch: ch}, nil
	case isExplainer && !isIndexed && !isHinter:
		base.ex = ex
		return &timedExplainer{timedStrategy: base}, nil
	case !isIndexed && !isHinter && !isExplainer:
		return base, nil
	}
	return nil, fmt.Errorf("wrapStrategy: %s implements an interface combination the decorator cannot keep (indexed %v, hinter %v, explainer %v)",
		s.Name(), isIndexed, isHinter, isExplainer)
}

// cpuTime is the CPU time the process has used (user plus system, all
// threads). The kernel keeps time stolen by the hypervisor out of it, so
// on a shared host it is steadier than the wall clock.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a runtime/metrics reading.
type rtSample struct {
	gcCPU, totalCPU       float64 // cpu-seconds
	gcCycles              uint64
	allocBytes, allocObjs uint64
	pauses                *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
		allocObjs:  s[4].Value.Uint64(),
		pauses:     s[5].Value.Float64Histogram(),
	}
}

// rtDelta accumulates runtime activity over timed intervals only, so
// the forced collections between repeats are not charged to the work.
type rtDelta struct {
	gcCPU, totalCPU       float64
	gcCycles              uint64
	allocBytes, allocObjs uint64
	pauseCounts           []uint64
	pauseBuckets          []float64
}

func (d *rtDelta) add(a, b rtSample) {
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	d.gcCycles += b.gcCycles - a.gcCycles
	d.allocBytes += b.allocBytes - a.allocBytes
	d.allocObjs += b.allocObjs - a.allocObjs
	if d.pauseCounts == nil {
		d.pauseCounts = make([]uint64, len(b.pauses.Counts))
		d.pauseBuckets = b.pauses.Buckets
	}
	for i := range b.pauses.Counts {
		d.pauseCounts[i] += b.pauses.Counts[i] - a.pauses.Counts[i]
	}
}

// pauseP99 is the upper bucket edge holding the 99th-percentile GC
// pause, in seconds (0 with no pauses).
func (d *rtDelta) pauseP99() float64 {
	var total uint64
	for _, c := range d.pauseCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total)*0.99 + 0.999999)
	var acc uint64
	for i, c := range d.pauseCounts {
		acc += c
		if acc >= rank {
			hi := d.pauseBuckets[i+1]
			if hi > 1e9 { // +Inf top bucket: report its lower edge
				hi = d.pauseBuckets[i]
			}
			return hi
		}
	}
	return 0
}

// report stores the runtime-layer metrics, normalized by the number of
// requests the timed intervals served.
func (d *rtDelta) report(r *result, requests float64) {
	frac := 0.0
	if d.totalCPU > 0 {
		frac = d.gcCPU / d.totalCPU
	}
	r.Values["runtime.gc_cpu_frac"] = frac
	r.Values["runtime.gc_cycles"] = float64(d.gcCycles)
	r.Values["runtime.alloc_bytes_per_req"] = float64(d.allocBytes) / requests
	r.Values["runtime.allocs_per_req"] = float64(d.allocObjs) / requests
	r.Values["runtime.gc_pause_p99_ms"] = d.pauseP99() * 1e3
}

// heapWatch samples the bytes of heap objects (live and not yet swept)
// every few milliseconds while running and keeps the highest reading.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// heapLiveMB is the live heap, in MB (10^6 bytes), as the last completed
// collection marked it.
func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapWatch) sample() {
	v := heapBytes()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak in MB (10^6 bytes) since the previous take and
// starts a new interval at the current reading.
func (h *heapWatch) take() float64 {
	h.sample()
	return float64(h.peak.Swap(heapBytes())) / 1e6
}

// finish stops the sampler and returns the peak since the last take.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	<-h.done
	return h.take()
}
