package main

// The trace-replay workloads: cloudsim.Run over seeded traces, as a
// researcher reproducing the paper's evaluation runs it.

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime"
	"strconv"
	"time"

	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/experiments"
	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/stats"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
)

// simWorkload describes one trace-replay workload. Each run replays
// several traces derived from the seed, so one run's figures average
// over trace shapes instead of resting on one draw: a single trace's
// replay cost varies by a factor of two across seeds on sim_pa.
type simWorkload struct {
	name    string
	traces  int
	servers int
	idle    units.Watts
	// strategy builds the placement policy; reg, when non-nil, receives
	// the policy's own telemetry (the core search counters).
	strategy func(db *model.DB, reg *obs.Registry) (strategy.Strategy, error)
	// gen builds trace k of the seed.
	gen func(s *setupState, seed uint64, k int) ([]trace.Request, error)
	// refPrefix, when positive, checks Run against the reference
	// simulator on the first refPrefix requests of one trace; zero
	// checks the whole trace.
	refPrefix int
}

// traceSeed derives the seed of trace k of a run seeded with seed.
func traceSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) }

var simFF = simWorkload{
	name: "sim_ff", traces: 8, servers: 1000,
	strategy: func(*model.DB, *obs.Registry) (strategy.Strategy, error) { return strategy.NewFirstFit(3) },
	gen: func(_ *setupState, seed uint64, k int) ([]trace.Request, error) {
		cfg := trace.DefaultStreamConfig(traceSeed(seed, k))
		cfg.MeanInterarrival = 1.5
		s, err := trace.NewStream(cfg)
		if err != nil {
			return nil, err
		}
		return s.Take(100_000), nil
	},
	// The reference simulator scans the fleet per placement: the whole
	// 100k-request trace would take ~20 s, a 5k prefix ~1 s.
	refPrefix: 5_000,
}

var simPA = simWorkload{
	name: "sim_pa", traces: 48, servers: 66, idle: -1,
	strategy: func(db *model.DB, reg *obs.Registry) (strategy.Strategy, error) {
		return strategy.NewProactiveConfig(core.Config{DB: db, SearchWorkers: 2, Obs: reg}, core.GoalBalanced)
	},
	gen: func(s *setupState, seed uint64, k int) ([]trace.Request, error) {
		cfg := experiments.Default()
		cfg.Seed = traceSeed(seed, k)
		ctx := &experiments.Context{Cfg: cfg, DB: s.db, Sum: s.sum}
		reqs, _, err := ctx.Workload()
		return reqs, err
	},
}

//go:embed golden.json
var goldenJSON []byte

// canaryCount is how many canary traces golden.json records per sim
// workload: canary c is trace 0 of seed c.
const canaryCount = 48

// goldenDigests holds one sim workload's digests recorded from a
// known-good build (see --record-golden).
type goldenDigests struct {
	// Seeds maps a seed to the digest of all its traces' Metrics.
	Seeds map[string]string `json:"seeds"`
	// Canaries maps each seed below canaryCount to the digest of its
	// trace 0's Metrics alone.
	Canaries map[string]string `json:"canaries"`
}

func golden() (map[string]goldenDigests, error) {
	g := map[string]goldenDigests{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digest fingerprints the per-trace Metrics of one seed. %+v prints
// every field with shortest round-trip floats, so equal digests mean
// equal Metrics.
func digest(ms []cloudsim.Metrics) string {
	h := sha256.New()
	for _, m := range ms {
		fmt.Fprintf(h, "%+v\n", m)
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

func (w simWorkload) config(db *model.DB, st strategy.Strategy) cloudsim.Config {
	return cloudsim.Config{DB: db, Servers: w.servers, Strategy: st, IdleServerPower: w.idle}
}

// setupSim builds the model database and the seed's traces.
func (w simWorkload) setup(seed uint64, spans *spanLog) (*setupState, error) {
	s, err := newSetup(spans)
	if err != nil {
		return nil, err
	}
	c0, t0 := cpuTime(), time.Now()
	for k := 0; k < w.traces; k++ {
		reqs, err := w.gen(s, seed, k)
		if err != nil {
			return nil, fmt.Errorf("%s: trace %d: %w", w.name, k, err)
		}
		s.traces = append(s.traces, reqs)
	}
	s.traceGen = cpuTime() - c0
	s.spans.add(s.spans.newID(), s.root, 0, "trace.gen", t0, time.Now())
	return s, nil
}

// runSim runs a sim workload: set-up, verification against the oracles,
// the timed replays, and on a traced run one more instrumented pass.
func runSim(w simWorkload, o opts) *result {
	r := newResult()
	var spans *spanLog
	if o.trace {
		spans = newSpanLog(200_000)
	}
	s, setupS, err := timedSetup(func() (*setupState, error) { return w.setup(o.seed, spans) })
	if err != nil {
		r.fail("setup: %v", err)
		return r
	}
	reportSetupLayers(r, s)
	st, err := w.strategy(s.db, nil)
	if err != nil {
		r.fail("strategy: %v", err)
		return r
	}
	cal, err := newCalibrator(calibRefReplayMs)
	if err != nil {
		r.fail("%v", err)
		return r
	}
	defer cal.close()

	// Untraced timed passes. Every pass replays every trace, each after
	// a forced collection, so no replay inherits another's garbage.
	var (
		expected []cloudsim.Metrics
		perTrace = make([][]float64, len(s.traces)) // replay CPU time over the kernel's
		replayMs []float64
		passTime []float64
		rt       rtDelta
		requests float64
		peaks    []float64 // MB, per replay
	)
	for _, t := range s.traces {
		requests += float64(len(t))
	}
	heap := startHeapWatch()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < o.seconds; pass++ {
		var busy time.Duration
		for k, reqs := range s.traces {
			runtime.GC()
			kernelMs := cal.measure()
			heap.take()
			r0 := readRuntime()
			c0 := cpuTime()
			res, err := cloudsim.Run(w.config(s.db, st), reqs)
			dc := cpuTime() - c0
			r1 := readRuntime()
			peaks = append(peaks, heap.take())
			r.Attempted++
			if err != nil {
				r.Failed++
				r.fail("%s trace %d: %v", w.name, k, err)
				continue
			}
			rt.add(r0, r1)
			busy += dc
			perTrace[k] = append(perTrace[k], float64(dc.Nanoseconds())/1e6/kernelMs)
			replayMs = append(replayMs, float64(dc.Nanoseconds())/1e6)
			if pass == 0 {
				expected = append(expected, res.Metrics)
			} else if res.Metrics != expected[k] {
				r.Failed++
				r.fail("%s trace %d: pass %d Metrics differ from pass 0", w.name, k, pass)
			}
		}
		passTime = append(passTime, busy.Seconds())
	}
	heap.finish()
	// The heap's peak within one replay depends on where the collector's
	// cycles happen to fall; the median over replays does not.
	r.Values["peak_heap_mb"] = stats.Median(peaks)
	if !r.Correct {
		return r
	}
	// Replays are timed in process CPU time, which leaves out time the
	// hypervisor steals: on the shared 2-vCPU host the benchmark was
	// built on, wall-clock replay times moved by up to 50% within
	// minutes while CPU times moved by about 5%. CPU time still moves
	// with other tenants' load: the same replays took up to 2.2x as
	// long in busy periods, and replay times scatter widely then, so
	// charging each trace its fastest replay left op_cpu_ms spreading
	// 15-18% over ten seeds. So each replay's CPU time is divided by
	// the calibration kernel's just before it (calib.go), and a trace
	// costs the median of its ratios times the kernel's reference
	// time: throughput is the trace set's requests over the sum of
	// those costs, and op_cpu_ms their median.
	var cost []float64 // per trace, CPU seconds at the reference speed
	var costSum float64
	for _, ratios := range perTrace {
		c := stats.Median(ratios) * calibRefReplayMs / 1e3
		cost = append(cost, c)
		costSum += c
	}
	logf("%s: %d passes over %d traces (%.0f requests each pass)", w.name, len(passTime), len(s.traces), requests)
	f := cal.scale()
	logf("%s: calibration kernel median %.3f CPU-ms over %d runs; set-up time scaled by %.4f", w.name, cal.medianMs(), len(cal.samples), f)
	r.Values["setup_s"] = setupS * f
	r.Values["throughput_per_cpu_s"] = requests / costSum
	r.Values["op_cpu_ms"] = stats.Median(cost) * 1e3
	r.Values["calib.kernel_ms"] = cal.medianMs()
	p90, beyond := percentile(replayMs, 0.90)
	logf("%s: replay CPU time over %d replays; %d beyond the nearest-rank p90", w.name, len(replayMs), beyond)
	r.Values["cloudsim.replay_cpu_p90_ms"] = p90
	rt.report(r, requests*float64(len(passTime)))

	w.verify(r, s, o.seed, expected)
	// Placement quality is pinned exactly by the checks above: a
	// degraded search would change Metrics. Full search answered every
	// placement iff they passed.
	r.Values["full_search_frac"] = 0
	if r.Correct {
		r.Values["full_search_frac"] = 1
	}
	reportQuality(r, expected)

	if o.trace {
		w.tracedPass(r, s, expected, stats.Median(passTime))
		if err := spans.write(spanPath(o, w.name)); err != nil {
			r.fail("writing spans: %v", err)
		}
		zeroLayers(r, "serve.", "http.", "loadgen.")
	}
	return r
}

// verify checks the replayed Metrics against the recorded digests and
// against the reference simulator on one trace chosen by the seed.
func (w simWorkload) verify(r *result, s *setupState, seed uint64, got []cloudsim.Metrics) {
	g, err := golden()
	if err != nil {
		r.fail("%v", err)
		return
	}
	st, err := w.strategy(s.db, nil)
	if err != nil {
		r.fail("strategy: %v", err)
		return
	}
	rec := g[w.name]
	if want, ok := rec.Seeds[strconv.FormatUint(seed, 10)]; ok {
		r.Attempted++
		if d := digest(got); d != want {
			r.Failed++
			r.fail("%s seed %d: Metrics digest %s, recorded %s", w.name, seed, d, want)
		} else {
			logf("%s seed %d: Metrics match the recorded digest %s", w.name, seed, want)
		}
	}
	// Whatever the seed, one trace is checked against a recorded
	// digest, so a change that alters placement fails on every seed:
	// the canary, replayed here unless the run's own set holds it.
	c := seed % canaryCount
	m := got[0]
	if c != seed {
		reqs, err := w.gen(s, c, 0)
		if err == nil {
			var res cloudsim.Result
			res, err = cloudsim.Run(w.config(s.db, st), reqs)
			m = res.Metrics
		}
		if err != nil {
			r.fail("%s canary %d: %v", w.name, c, err)
			return
		}
	}
	r.Attempted++
	if want, d := rec.Canaries[strconv.FormatUint(c, 10)], digest([]cloudsim.Metrics{m}); d != want {
		r.Failed++
		r.fail("%s canary %d: Metrics digest %s, recorded %q", w.name, c, d, want)
	} else {
		logf("%s canary %d: Metrics match the recorded digest %s", w.name, c, want)
	}

	k := int(seed % uint64(len(s.traces)))
	reqs := s.traces[k]
	if w.refPrefix > 0 && w.refPrefix < len(reqs) {
		reqs = reqs[:w.refPrefix]
	}
	r.Attempted++
	ref, err := cloudsim.RunReference(w.config(s.db, st), reqs)
	if err != nil {
		r.Failed++
		r.fail("%s reference on trace %d: %v", w.name, k, err)
		return
	}
	res, err := cloudsim.Run(w.config(s.db, st), reqs)
	if err != nil || res.Metrics != ref.Metrics {
		r.Failed++
		r.fail("%s trace %d (%d requests): Run %+v differs from RunReference %+v (err %v)", w.name, k, len(reqs), res.Metrics, ref.Metrics, err)
	}
}

// reportQuality stores the paper's quality axes, averaged per trace.
func reportQuality(r *result, ms []cloudsim.Metrics) {
	var energy, makespan float64
	var viol, vms int
	for _, m := range ms {
		energy += float64(m.Energy)
		makespan += float64(m.Makespan)
		viol += m.Violations
		vms += m.TotalVMs
	}
	n := float64(len(ms))
	r.Values["cloudsim.energy_mj"] = energy / n / 1e6
	r.Values["cloudsim.makespan_s"] = makespan / n
	r.Values["cloudsim.sla_violation_pct"] = 100 * float64(viol) / float64(vms)
}

// tracedPass replays every trace once more with the simulator's and
// the strategy's telemetry on and the timing decorator around the
// strategy, checks the outputs are unchanged, and reports the layers.
func (w simWorkload) tracedPass(r *result, s *setupState, expected []cloudsim.Metrics, untracedPass float64) {
	// untracedPass is the median CPU seconds of an untraced pass.
	reg := obs.NewRegistry()
	inner, err := w.strategy(s.db, reg)
	if err != nil {
		r.fail("strategy: %v", err)
		return
	}
	ps := &placeStats{spans: s.spans}
	st, err := wrapStrategy(inner, ps)
	if err != nil {
		r.fail("%v", err)
		return
	}
	var run, cpu time.Duration
	for k, reqs := range s.traces {
		runtime.GC()
		cfg := w.config(s.db, st)
		cfg.Obs = reg
		ps.parent, ps.req = s.spans.newID(), int64(k+1)
		c0, t0 := cpuTime(), time.Now()
		res, err := cloudsim.Run(cfg, reqs)
		end := time.Now()
		cpu += cpuTime() - c0
		s.spans.add(ps.parent, 0, int64(k+1), "cloudsim.Run", t0, end)
		run += end.Sub(t0)
		r.Attempted++
		if err != nil || res.Metrics != expected[k] {
			r.Failed++
			r.fail("%s trace %d: traced Metrics differ from untraced (err %v)", w.name, k, err)
		}
	}
	snap := reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	g := func(name string) float64 { return float64(snap.Gauges[name]) }
	if w.name == simFF.name && c("sim_fleet_scans_total") != 0 {
		r.fail("sim_ff: %v fleet scans; the indexed placement path was not taken", c("sim_fleet_scans_total"))
	}
	runS := run.Seconds()
	r.Values["cloudsim.run_s"] = runS
	r.Values["cloudsim.events_popped"] = c("sim_events_popped")
	r.Values["cloudsim.ns_per_event"] = ratio(runS*1e9, c("sim_events_popped"))
	attempts := c("sim_place_attempts")
	r.Values["cloudsim.place_attempts"] = attempts
	r.Values["cloudsim.place_success_ratio"] = ratio(attempts-c("sim_place_rejected"), attempts)
	r.Values["cloudsim.fit_skips"] = c("sim_fit_skips_total")
	r.Values["cloudsim.fleet_scans"] = c("sim_fleet_scans_total")
	r.Values["cloudsim.queue_depth_hw"] = g("sim_queue_depth_highwater")
	hits, misses := c("sim_pricing_cache_hits"), c("sim_pricing_cache_misses")
	r.Values["cloudsim.pricing_hit_ratio"] = ratio(hits, hits+misses)
	r.Values["eventq.depth_hw"] = g("eventq_depth_highwater")
	r.Values["eventq.cancelled"] = c("eventq_cancelled")

	reportStrategy(r, ps, runS)
	reportCore(r, snap)
	if ps.explained > 0 && (int64(c("search_partitions_enumerated")) != ps.enumerated || int64(c("search_degraded_firstfit")) != ps.degraded) {
		logf("warning: search counters (%v enumerated) disagree with PlaceExplained stats (%d)", c("search_partitions_enumerated"), ps.enumerated)
	}
	r.Values["trace_overhead_frac"] = cpu.Seconds()/untracedPass - 1
	logf("%s: traced pass %.3f CPU-s against untraced median %.3f CPU-s", w.name, cpu.Seconds(), untracedPass)
}

func reportStrategy(r *result, ps *placeStats, runS float64) {
	r.Values["strategy.place_calls"] = float64(ps.calls)
	r.Values["strategy.place_s"] = ps.busy.Seconds()
	r.Values["strategy.place_p50_us"] = layerPercentile(ps.nanos, 0.50) / 1e3
	r.Values["strategy.place_p99_us"] = layerPercentile(ps.nanos, 0.99) / 1e3
	r.Values["strategy.place_ok_ratio"] = ratio(float64(ps.ok), float64(ps.calls))
	r.Values["strategy.share_of_run"] = ratio(ps.busy.Seconds(), runS)
}

// reportCore stores the search and estimate-cache layers from a
// registry the core allocator reported into.
func reportCore(r *result, snap obs.Snapshot) {
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	enum := c("search_partitions_enumerated")
	r.Values["core.partitions_enumerated"] = enum
	r.Values["core.partitions_deduped"] = c("search_partitions_deduped")
	r.Values["core.dedup_ratio"] = ratio(c("search_partitions_deduped"), enum)
	r.Values["core.candidates_feasible"] = c("search_candidates_feasible")
	r.Values["core.pareto_pruned"] = c("search_pareto_pruned")
	r.Values["core.degraded"] = c("search_degraded_firstfit")
	hits, misses := c("model_cache_hits"), c("model_cache_misses")
	r.Values["model.cache_hits"] = hits
	r.Values["model.cache_hit_ratio"] = ratio(hits, hits+misses)
	r.Values["model.cache_size"] = float64(snap.Gauges["model_cache_size"])
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recordGolden records the digest of every seed in seeds for w, and
// the canary digest of each seed below canaryCount.
func recordGolden(w simWorkload, seeds []uint64) (goldenDigests, error) {
	out := goldenDigests{Seeds: map[string]string{}, Canaries: map[string]string{}}
	for _, seed := range seeds {
		s, err := w.setup(seed, nil)
		if err != nil {
			return out, err
		}
		st, err := w.strategy(s.db, nil)
		if err != nil {
			return out, err
		}
		var ms []cloudsim.Metrics
		for _, reqs := range s.traces {
			res, err := cloudsim.Run(w.config(s.db, st), reqs)
			if err != nil {
				return out, err
			}
			ms = append(ms, res.Metrics)
		}
		key := strconv.FormatUint(seed, 10)
		out.Seeds[key] = digest(ms)
		if seed < canaryCount {
			out.Canaries[key] = digest(ms[:1])
		}
		logf("%s seed %d: %s", w.name, seed, out.Seeds[key])
	}
	return out, nil
}

// recordGoldenFile records both sim workloads' digests for seeds and
// merges them into the golden file at path.
func recordGoldenFile(path string, seeds []uint64) error {
	g := map[string]goldenDigests{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, w := range []simWorkload{simFF, simPA} {
		got, err := recordGolden(w, seeds)
		if err != nil {
			return err
		}
		rec := g[w.name]
		if rec.Seeds == nil {
			rec.Seeds = map[string]string{}
		}
		if rec.Canaries == nil {
			rec.Canaries = map[string]string{}
		}
		maps.Copy(rec.Seeds, got.Seeds)
		maps.Copy(rec.Canaries, got.Canaries)
		g[w.name] = rec
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
