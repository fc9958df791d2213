package main

// The serve_http workload: the placement service's real HTTP handler on
// a loopback listener, journal and periodic snapshots on, fsync off (an
// fsync would time the shared disk, not the program). Traffic is shaped
// by trace.Stream: each place request takes its class, VM count,
// nominal time and QoS bound from the stream.
//
// Phase 1 is an open loop at a fixed offered rate, well below
// saturation, for latency. Phase 2 is a closed loop with one connection
// per CPU, for saturation throughput.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pacevm/internal/obs"
	"pacevm/internal/serve"
	"pacevm/internal/trace"
)

const serveName = "serve_http"

const (
	serveServers = 64
	serveShards  = 2
	// clients is the connection count of both phases: one per CPU of
	// the 2-CPU host the benchmark is sized for.
	clients = 2
	// placeRate is phase 1's offered rate of place requests per second;
	// releases and replays come on top (about 2.2 requests per place).
	placeRate = 250
	// compress divides a job's nominal runtime (mean about 740 s) into
	// how long phase 1 holds its placement, so about 60 placements stand
	// at any time and capacity is never refused.
	compress = 3000
	minHold  = 50 * time.Millisecond
	maxHold  = 2 * time.Second
	// replayEvery re-sends every replayEvery-th place under its key.
	// The share is an assumed value, not a measured one: no retry rate
	// of real clients is known. One in five keeps the idempotency path
	// in every run at about 9% of phase-1 requests.
	replayEvery = 5
	// closedLive is how many placements each phase-2 client holds
	// before it releases its oldest: the two clients together hold
	// about the 60 placements that stand in phase 1, so both phases
	// search a fleet at the same occupancy.
	closedLive = 30
	// lateLimit is the generator's own limit: phase 1 is failed when
	// its median dispatch lateness exceeds it, that is when it fell
	// behind its schedule rather than woke late now and then (on a
	// shared host the p99 wake-up runs to 10 ms whenever the hypervisor
	// steals time).
	lateLimit = time.Millisecond
	// closedPerSecond sizes phase 2 by --seconds: a fixed amount of
	// work, so the state the service accumulates is the same on every
	// run.
	closedPerSecond = 3000
	// planSize is how many request shapes the set-up draws; phase 2
	// cycles through them under fresh keys.
	planSize = 40_000
)

// shape is one place request's content, drawn from the trace stream.
type shape struct {
	class   string
	vms     int
	nominal float64
	maxResp float64
}

func genPlan(seed uint64) ([]shape, error) {
	st, err := trace.NewStream(trace.DefaultStreamConfig(traceSeed(seed, 0)))
	if err != nil {
		return nil, err
	}
	plan := make([]shape, planSize)
	for i := range plan {
		q := st.Next()
		plan[i] = shape{q.Class.String(), q.VMs, float64(q.NominalTime), float64(q.MaxResponse)}
	}
	return plan, nil
}

// server is one running placement service behind a loopback listener.
type server struct {
	svc  *serve.Service
	reg  *obs.Registry
	http *http.Server
	url  string
	dir  string
	done chan error
	// Traced only: the handler timer, and the access log, kept in
	// memory and parsed after the run for exact per-stage times.
	hs     *handlerStats
	access *bytes.Buffer
}

// startServer starts a service with its state under dir. traced turns
// on the stage histograms and wraps the handler with a timer.
func startServer(s *setupState, dir string, traced bool) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := serve.Config{
		DB: s.db, Servers: serveServers, Shards: serveShards,
		// Snapshots every 500 ms, a quarter of the 2 s default. A
		// snapshot encodes every placement ever made (up to 8 MB of
		// JSON by the end of phase 2), and phase 2 lasts about 3 s:
		// at the default it held one snapshot or two, depending on
		// where the ticks fell, and short stretches of it ran 10-20%
		// apart. At 500 ms each phase holds enough snapshots that
		// their number hardly varies, and the same phase-2 work ran
		// within 1% between runs.
		SnapshotPath:  filepath.Join(dir, "snap"),
		SnapshotEvery: 500 * time.Millisecond,
		// Ladder watermarks well above any queue wait the offered load
		// causes, so a scheduling stall of the shared host does not
		// step the ladder down and change what the run measures.
		Watermarks: [3]time.Duration{time.Second, 2 * time.Second, 4 * time.Second},
	}
	srv := &server{dir: dir, done: make(chan error, 1)}
	if traced {
		srv.reg = obs.NewRegistry()
		srv.access = &bytes.Buffer{}
		cfg.Obs = srv.reg
		cfg.SlowRing = 16
		cfg.AccessLog = srv.access
	}
	svc, err := serve.NewService(cfg)
	if err != nil {
		return nil, err
	}
	srv.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Drain(time.Second) // nothing was served; the listen error is the one to report
		return nil, err
	}
	var h http.Handler = svc.Handler(false)
	if traced {
		srv.hs = &handlerStats{spans: s.spans}
		h = srv.hs.wrap(h)
	}
	srv.http = &http.Server{Handler: h}
	srv.url = "http://" + ln.Addr().String()
	go func() { srv.done <- srv.http.Serve(ln) }()
	resp, err := http.Get(srv.url + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		_, _ = srv.stop() // the health check's error is the one to report
		return nil, err
	}
	return srv, nil
}

// stop closes the listener, drains the service and removes its state;
// it returns the watchdog violations the drain found.
func (srv *server) stop() ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.http.Shutdown(ctx)
	if serr := <-srv.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	var violations []string
	for _, v := range srv.svc.Drain(10 * time.Second) {
		violations = append(violations, v.Check+": "+v.Detail)
	}
	if rerr := os.RemoveAll(srv.dir); err == nil {
		err = rerr
	}
	return violations, err
}

// handlerStats times the service handler from the server side of the
// connection; the gap to the client's round trip is the transport.
type handlerStats struct {
	mu    sync.Mutex
	durs  []float64 // ms
	spans *spanLog
}

func (hs *handlerStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		hs.spans.add(hs.spans.newID(), parent, parent, "serve.Handler"+r.URL.Path, start, end)
		hs.mu.Lock()
		hs.durs = append(hs.durs, float64(end.Sub(start).Nanoseconds())/1e6)
		hs.mu.Unlock()
	})
}

// ledger checks every response against what the service acknowledged
// before: VM ids are unique across all placements, a release frees a
// live placement, and a replay returns the original placement. It holds
// live placements only, so the benchmark's own heap stays flat.
type ledger struct {
	mu     sync.Mutex
	live   map[string]*serve.PlaceResponse
	vmSeen []bool // by VM id; the service assigns ids from 1 upward
	fresh  int64  // placements acknowledged
	full   int64  // ... of which answered by the full PA search
}

func newLedger() *ledger {
	return &ledger{live: map[string]*serve.PlaceResponse{}}
}

const (
	opPlace = iota
	opRelease
	opReplay
)

var opPaths = [...]string{opPlace: "/v1/place", opRelease: "/v1/release", opReplay: "/v1/place"}

// check validates one response; it returns a reason for an incorrect
// one.
func (l *ledger) check(kind int, key string, vms int, resp *serve.PlaceResponse) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	orig := l.live[key]
	switch kind {
	case opPlace:
		if orig != nil || resp.Replayed {
			return fmt.Errorf("place %s: answered as a replay", key)
		}
		if len(resp.VMIDs) != vms || len(resp.Servers) != vms {
			return fmt.Errorf("place %s: %d vm ids on %d servers for %d VMs", key, len(resp.VMIDs), len(resp.Servers), vms)
		}
		for _, id := range resp.VMIDs {
			if id < 1 {
				return fmt.Errorf("place %s: vm id %d", key, id)
			}
			for id >= len(l.vmSeen) {
				l.vmSeen = append(l.vmSeen, make([]bool, len(l.vmSeen)+1024)...)
			}
			if l.vmSeen[id] {
				return fmt.Errorf("place %s: vm id %d already acknowledged", key, id)
			}
			l.vmSeen[id] = true
		}
		l.live[key] = resp
		l.fresh++
		if resp.Level == "full-search" && !resp.Degraded {
			l.full++
		}
	case opReplay:
		if orig == nil || !resp.Replayed || !slices.Equal(resp.VMIDs, orig.VMIDs) || !slices.Equal(resp.Servers, orig.Servers) {
			return fmt.Errorf("replay %s: got %v on %v, acknowledged %+v", key, resp.VMIDs, resp.Servers, orig)
		}
	case opRelease:
		if orig == nil || resp.Replayed || !resp.Released || !slices.Equal(resp.VMIDs, orig.VMIDs) {
			return fmt.Errorf("release %s: did not free a live placement (acknowledged %+v, response %+v)", key, orig, resp)
		}
		delete(l.live, key)
	}
	return nil
}

// client sends requests over at most `clients` keep-alive connections.
type client struct {
	url   string
	http  *http.Client
	led   *ledger
	spans *spanLog
	rtt   []float64 // ms, traced runs only
	mu    sync.Mutex
}

func newClient(url string, led *ledger, spans *spanLog) *client {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &client{url: url, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, led: led, spans: spans}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and checks its response; it reports whether the
// request succeeded and was correct.
func (c *client) do(kind int, key string, sh shape) bool {
	// Marshalling plain structs of strings and numbers cannot fail.
	var body []byte
	if kind == opRelease {
		body, _ = json.Marshal(struct {
			Key string `json:"key"`
		}{key})
	} else {
		body, _ = json.Marshal(serve.PlaceRequest{Key: key, Class: sh.class, VMs: sh.vms, NominalS: sh.nominal, MaxResponseS: sh.maxResp})
	}
	req, err := http.NewRequest("POST", c.url+opPaths[kind], bytes.NewReader(body))
	if err != nil {
		logf("request %s: %v", key, err)
		return false
	}
	id := c.spans.newID()
	if c.spans != nil {
		req.Header.Set("X-Bench-Span", strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		logf("request %s: %v", key, err)
		return false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if c.spans != nil {
		c.spans.add(id, 0, id, "client"+opPaths[kind], start, end)
		c.mu.Lock()
		c.rtt = append(c.rtt, float64(end.Sub(start).Nanoseconds())/1e6)
		c.mu.Unlock()
	}
	if err != nil || resp.StatusCode != 200 {
		logf("request %s %s: status %d %s", opPaths[kind], key, resp.StatusCode, bytes.TrimSpace(data))
		return false
	}
	var pr serve.PlaceResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		logf("request %s: bad response: %v", key, err)
		return false
	}
	if err := c.led.check(kind, key, sh.vms, &pr); err != nil {
		logf("incorrect: %v", err)
		return false
	}
	return true
}

// op is one scheduled phase-1 request. Releases and replays depend on
// their place: they wait for its acknowledgement.
type op struct {
	kind  int
	key   string
	sh    shape
	due   time.Duration // offset from the phase start
	place *op           // dependency; nil for places
	acked chan struct{} // closed once a place is answered
	ok    bool          // place succeeded (read after acked closes)
	lat   float64       // ms from due time to answer; +Inf if failed
}

// schedule lays out phase 1: places at a fixed rate over span, each
// released after its nominal runtime divided by compress, every
// replayEvery-th re-sent halfway through its hold.
func schedule(plan []shape, span time.Duration, tag string) []*op {
	n := int(span.Seconds() * placeRate)
	ops := make([]*op, 0, n*2+n/replayEvery)
	for i := 0; i < n; i++ {
		sh := plan[i%len(plan)]
		due := time.Duration(float64(i) / placeRate * float64(time.Second))
		hold := time.Duration(sh.nominal / compress * float64(time.Second))
		hold = min(max(hold, minHold), maxHold)
		p := &op{kind: opPlace, key: fmt.Sprintf("%s-%d", tag, i), sh: sh, due: due, acked: make(chan struct{})}
		ops = append(ops, p, &op{kind: opRelease, key: p.key, sh: sh, due: due + hold, place: p})
		if i%replayEvery == 0 {
			ops = append(ops, &op{kind: opReplay, key: p.key, sh: sh, due: due + hold/2, place: p})
		}
	}
	slices.SortStableFunc(ops, func(a, b *op) int { return int(a.due - b.due) })
	return ops
}

// openLoop runs phase 1 and returns each request's latency from its due
// time in ms (+Inf for a failed one) and the dispatcher's lateness.
func openLoop(c *client, ops []*op) (lat, late []float64, failed int64) {
	work := make(chan *op, len(ops)) // sized to the number of sends: dispatch never blocks
	var nfailed atomic.Int64
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				ok := false
				if o.place != nil {
					<-o.place.acked
					ok = o.place.ok && c.do(o.kind, o.key, o.sh)
				} else {
					ok = c.do(o.kind, o.key, o.sh)
					o.ok = ok
					close(o.acked)
				}
				o.lat = float64(time.Since(start.Add(o.due)).Nanoseconds()) / 1e6
				if !ok {
					o.lat = math.Inf(1)
					nfailed.Add(1)
				}
			}
		}()
	}
	late = make([]float64, 0, len(ops))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, o := range ops {
		late = append(late, float64(waitUntil(start.Add(o.due)).Nanoseconds())/1e6)
		work <- o
	}
	close(work)
	wg.Wait()
	for _, o := range ops {
		lat = append(lat, o.lat)
	}
	return lat, late, nfailed.Load()
}

// waitUntil sleeps until t in the kernel and returns how late it woke.
// The runtime's own timers wake up to a millisecond late on an idle
// process, which would be charged to every request's latency; a
// nanosleep on the dispatcher's locked thread wakes within tens of
// microseconds. Early wake-ups (signals) sleep again.
func waitUntil(t time.Time) time.Duration {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
	return time.Since(t)
}

// held is one placement a phase-2 client holds: its key and the
// request it was placed with.
type held struct {
	key string
	sh  shape
}

// closedLoop runs phase 2: each client places, holds closedLive
// placements and then releases its oldest, and replays every
// replayEvery-th place, back to back until total requests completed. It
// returns the placements left live.
func closedLoop(c *client, plan []shape, total int64, tag string) (done, failed int64, live []string) {
	var next, ndone, nfailed atomic.Int64
	count := func(ok bool) {
		if ok {
			ndone.Add(1)
		} else {
			nfailed.Add(1)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var leftover []string
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var live []held
			for ndone.Load()+nfailed.Load() < total {
				i := next.Add(1) - 1
				p := held{fmt.Sprintf("%s-%d", tag, i), plan[int(i)%len(plan)]}
				ok := c.do(opPlace, p.key, p.sh)
				count(ok)
				if !ok {
					continue
				}
				live = append(live, p)
				if i%replayEvery == 0 {
					// A retry re-sends its original request body.
					q := live[len(live)/2]
					count(c.do(opReplay, q.key, q.sh))
				}
				if len(live) > closedLive {
					count(c.do(opRelease, live[0].key, live[0].sh))
					live = live[1:]
				}
			}
			mu.Lock()
			for _, p := range live {
				leftover = append(leftover, p.key)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ndone.Load(), nfailed.Load(), leftover
}

// releaseAll frees placements a closed loop left live. It is not timed.
func releaseAll(c *client, keys []string) (failed int64) {
	for _, key := range keys {
		if !c.do(opRelease, key, shape{}) {
			failed++
		}
	}
	return failed
}

// phases is one run of both phases against one service.
type phases struct {
	p50, p90, p99    float64 // phase-1 wall latency from due time, ms
	rate             float64 // phase-2 requests per CPU second
	openCPU          float64 // phase-1 CPU ms per request
	lateP50, lateP99 float64
	sent             int64
	requests         float64
	fullFrac         float64 // placements answered by the full PA search
	rt               rtDelta // runtime activity within the two phases
}

func runPhases(r *result, srv *server, plan []shape, seconds float64, spans *spanLog, tag string) (phases, *client) {
	led := newLedger()
	c := newClient(srv.url, led, spans)
	defer c.close()
	var ph phases
	// Phase 1's places span 45% of the run; their releases trail by at
	// most maxHold.
	ops := schedule(plan, time.Duration(0.45*seconds*float64(time.Second)), tag+"o")
	runtime.GC()
	r0, c0 := readRuntime(), cpuTime()
	lat, late, failed := openLoop(c, ops)
	ph.openCPU = (cpuTime() - c0).Seconds() * 1e3 / float64(len(ops))
	ph.rt.add(r0, readRuntime())
	r.Attempted += int64(len(ops))
	r.Failed += failed
	ph.sent = int64(len(ops))
	ph.p50, _ = percentile(lat, 0.50)
	ph.p90, _ = percentile(lat, 0.90)
	var beyond int
	ph.p99, beyond = percentile(lat, 0.99)
	ph.lateP50, _ = percentile(late, 0.50)
	ph.lateP99, _ = percentile(late, 0.99)
	logf("%s phase 1: %d requests at %d places/s; p50 %.3fms p90 %.3fms p99 %.3fms (%d beyond); generator late p50 %.3fms p99 %.3fms",
		tag, len(ops), placeRate, ph.p50, ph.p90, ph.p99, beyond, ph.lateP50, ph.lateP99)
	if !tailSupported(len(lat), 0.99) {
		r.fail("phase 1: %d samples cannot support a p99", len(lat))
	}
	if ph.lateP50 > float64(lateLimit.Nanoseconds())/1e6 {
		r.Failed += int64(len(ops)) - failed
		r.fail("phase 1: generator late p50 %.3fms over its %v limit", ph.lateP50, lateLimit)
	}
	if failed > 0 {
		r.fail("phase 1: %d of %d requests failed", failed, len(ops))
	}
	// Throughput is completions per second of process CPU time (client
	// and service together), which leaves out time the hypervisor
	// steals; see runSim.
	runtime.GC()
	r0, c0 = readRuntime(), cpuTime()
	done, failed, live := closedLoop(c, plan, int64(seconds*closedPerSecond), tag+"c")
	cpu := cpuTime() - c0
	ph.rt.add(r0, readRuntime())
	r.Attempted += done + failed + int64(len(live))
	failed += releaseAll(c, live)
	r.Failed += failed
	if failed > 0 {
		r.fail("phase 2: %d requests failed", failed)
	}
	ph.rate = float64(done) / cpu.Seconds()
	ph.requests = float64(len(ops)) + float64(done)
	logf("%s phase 2: %d requests over %d connections in %.2f CPU-s, %.1f/CPU-s", tag, done, clients, cpu.Seconds(), ph.rate)
	ph.fullFrac = ratio(float64(led.full), float64(led.fresh))
	return ph, c
}

func runServe(o opts) *result {
	r := newResult()
	var spans *spanLog
	if o.trace {
		spans = newSpanLog(200_000)
	}
	base := filepath.Join(outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(base)
	var plan []shape
	var srvs []*server // one per set-up; the last is the one measured
	s, setupS, err := timedSetup(func() (*setupState, error) {
		s, err := newSetup(spans)
		if err != nil {
			return nil, err
		}
		c0 := cpuTime()
		if plan, err = genPlan(o.seed); err != nil {
			return nil, err
		}
		s.traceGen = cpuTime() - c0
		srv, err := startServer(s, filepath.Join(base, fmt.Sprintf("svc%d", len(srvs))), false)
		if err == nil {
			srvs = append(srvs, srv)
		}
		return s, err
	})
	// The earlier set-ups' services are stopped only now, so setup_s
	// times no teardown; their drains are checked like the measured one.
	for i, srv := range srvs {
		if i < len(srvs)-1 || err != nil {
			stopChecked(r, srv)
		}
	}
	if err != nil {
		r.fail("setup: %v", err)
		return r
	}
	srv := srvs[len(srvs)-1]
	reportSetupLayers(r, s)
	r.Values["trace.requests"] = float64(len(plan))
	vms := 0
	for _, sh := range plan {
		vms += sh.vms
	}
	r.Values["trace.vms"] = float64(vms)

	cal, err := newCalibrator(calibRefBlockMs)
	if err != nil {
		r.fail("%v", err)
		stopChecked(r, srv)
		return r
	}
	defer cal.close()
	calibrateBlock(cal)
	ph, _ := runPhases(r, srv, plan, o.seconds, nil, "u")
	stopChecked(r, srv)
	// The service's heap is its state (fleet, placements by idempotency
	// key) plus transient buffers and garbage. The highest sampled heap
	// depends on where the collector's cycles fall, and a live heap read
	// while serving on whether a snapshot was being encoded (up to 8 MB):
	// on the same work the first moved between 30 and 55 MB, the second
	// between 11 and 20. Once the service has drained, with the service
	// still referenced, the live heap is the state it retains.
	runtime.GC()
	r.Values["peak_heap_mb"] = heapLiveMB()
	runtime.KeepAlive(srv)
	calibrateBlock(cal)
	f := cal.scale()
	logf("calibration kernel median %.3f CPU-ms over %d runs; times scaled by %.4f", cal.medianMs(), len(cal.samples), f)
	r.Values["setup_s"] = setupS * f
	r.Values["calib.kernel_ms"] = cal.medianMs()
	r.Values["full_search_frac"] = ph.fullFrac
	r.Values["throughput_per_cpu_s"] = ph.rate / f
	r.Values["op_cpu_ms"] = ph.openCPU * f

	if o.trace {
		ph.rt.report(r, ph.requests)
		r.Values["serve.latency_p50_ms"] = ph.p50
		r.Values["serve.latency_p90_ms"] = ph.p90
		r.Values["serve.latency_p99_ms"] = ph.p99
		r.Values["loadgen.late_p50_ms"] = ph.lateP50
		r.Values["loadgen.late_p99_ms"] = ph.lateP99
		r.Values["loadgen.sent"] = float64(ph.sent)
		tsrv, err := startServer(s, filepath.Join(base, "traced"), true)
		if err != nil {
			r.fail("traced service: %v", err)
			return r
		}
		tph, c := runPhases(r, tsrv, plan, o.seconds, spans, "t")
		reportServeLayers(r, tsrv, c)
		r.Values["trace_overhead_frac"] = ph.rate/tph.rate - 1
		logf("traced saturation %.1f/s against untraced %.1f/s", tph.rate, ph.rate)
		stopChecked(r, tsrv)
		if err := spans.write(spanPath(o, serveName)); err != nil {
			r.fail("writing spans: %v", err)
		}
		zeroLayers(r, "cloudsim.", "eventq.", "strategy.")
	}
	return r
}

// calibrateBlock runs the calibration kernel calibBlock times, each
// after a forced collection, as a sim replay's kernel runs. It runs
// before the phases, with the service idle, and after them, with the
// service stopped.
func calibrateBlock(cal *calibrator) {
	for i := 0; i < calibBlock; i++ {
		runtime.GC()
		cal.measure()
	}
}

// calibBlock is how many kernel runs calibrateBlock makes: the 32 of a
// run took about 0.5 s on a quiet host.
const calibBlock = 16

// stopChecked stops a service and fails the run on any watchdog
// violation its drain reports.
func stopChecked(r *result, srv *server) {
	violations, err := srv.stop()
	r.Attempted++
	if err != nil || len(violations) > 0 {
		r.Failed++
		r.fail("drain: %v, %d violations %v", err, len(violations), violations)
	}
}

// reportServeLayers stores the service's stage, counter and HTTP
// layers from a traced run.
func reportServeLayers(r *result, srv *server, c *client) {
	snap := srv.reg.Snapshot()
	stages, err := stageTimes(srv.access)
	if err != nil {
		r.fail("access log: %v", err)
	}
	for _, st := range serveStages {
		// Busy time is the stage histogram's exact sum; its buckets (the
		// first spans 0-0.5ms) are too coarse for percentiles, which
		// come from the access log's per-request stage times instead.
		h := snap.Histograms[obs.SeriesName("serve_stage_seconds", "stage", st)]
		r.Values["serve."+st+".busy_s"] = h.Sum
		r.Values["serve."+st+".p50_ms"] = layerPercentile(stages[st], 0.50)
		r.Values["serve."+st+".p99_ms"] = layerPercentile(stages[st], 0.99)
	}
	cnt := func(name string) float64 { return float64(snap.Counters[name]) }
	r.Values["serve.placements"] = cnt("serve_placements_total")
	r.Values["serve.replays"] = cnt("serve_replays_total")
	r.Values["serve.releases"] = cnt("serve_releases_total")
	r.Values["serve.shed"] = cnt("serve_shed_total")
	r.Values["serve.rejects"] = cnt("serve_rejects_total")
	r.Values["serve.ladder_steps"] = cnt("serve_ladder_steps_total")
	r.Values["serve.snapshots"] = cnt("serve_snapshots_total")
	reportCore(r, snap)
	srv.hs.mu.Lock()
	r.Values["http.handler_p50_ms"] = layerPercentile(srv.hs.durs, 0.50)
	r.Values["http.handler_p99_ms"] = layerPercentile(srv.hs.durs, 0.99)
	srv.hs.mu.Unlock()
	c.mu.Lock()
	r.Values["http.client_rtt_p50_ms"] = layerPercentile(c.rtt, 0.50)
	r.Values["http.client_rtt_p99_ms"] = layerPercentile(c.rtt, 0.99)
	c.mu.Unlock()
}

// stageTimes parses the access log into per-stage request times (ms),
// over the requests that ran each stage (a release never searches).
func stageTimes(log *bytes.Buffer) (map[string][]float64, error) {
	out := map[string][]float64{}
	dec := json.NewDecoder(log)
	for dec.More() {
		var rec struct {
			Stages map[string]float64 `json:"stages_ms"`
		}
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		for st, ms := range rec.Stages {
			if ms > 0 {
				out[st] = append(out[st], ms)
			}
		}
	}
	return out, nil
}
