package main

// Host-speed calibration. On the shared host the benchmark was built on,
// the same replays' CPU time moved by up to 60% between quiet and busy
// periods, and the service's by up to 2.8x, while within one run they
// stayed put: the host's speed drifts over minutes, not between
// replays. A fixed kernel of the benchmark's own measures that speed in
// the same run, and the run's CPU times are rescaled to the speed at
// which the kernel takes its reference time. The kernel runs no
// repository code, so no change to the program moves it.

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"pacevm/internal/stats"
)

const (
	// The reference times are the kernel's median CPU time, rounded,
	// in a quiet period of the 2-vCPU host the benchmark was built on:
	// rescaled times read as times on that host then. Run before every
	// sim replay, the kernel finds the pointer cycle evicted; run in a
	// block, as serve_http does around its phases, it finds much of the
	// cycle still cached and runs faster, so each way has its own.
	calibRefReplayMs = 21.0
	calibRefBlockMs  = 12.0

	calibChaseSlots = 1 << 22 // a 16 MB pointer cycle, beyond the caches
	calibHeapSlots  = 1 << 14 // a 128 KB binary heap, inside L2
	calibSteps      = 1 << 17 // pointer hops, and heap pushes
)

// calibrator owns the kernel's memory, mapped outside the Go heap so the
// kernel neither moves the heap metrics nor the collector's pacing.
type calibrator struct {
	mem     []byte
	chase   []uint32
	heap    []uint64
	refMs   float64
	samples []float64 // kernel CPU ms
	sink    uint64
}

func newCalibrator(refMs float64) (*calibrator, error) {
	size := calibChaseSlots*4 + calibHeapSlots*8
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("calibration memory: %w", err)
	}
	c := &calibrator{
		mem:   mem,
		refMs: refMs,
		chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibChaseSlots),
		heap:  unsafe.Slice((*uint64)(unsafe.Pointer(&mem[calibChaseSlots*4])), calibHeapSlots),
	}
	// Sattolo's shuffle makes the slots one cycle, so the chase never
	// settles into a short loop the caches could hold.
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(c.chase) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	c.kernel() // warm-up, not a sample: the shuffle left the slots cached
	return c, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// measure runs the kernel once, records its CPU time in ms and returns
// it. The time is
// the kernel's own thread's: the process's would also take in what the
// runtime's background workers (sweeper, scavenger) did meanwhile.
func (c *calibrator) measure() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	c.kernel()
	ms := float64((threadCPUTime() - c0).Nanoseconds()) / 1e6
	c.samples = append(c.samples, ms)
	return ms
}

// threadCPUTime is the CPU time the calling OS thread has used, from
// the thread's CPU clock: getrusage(RUSAGE_THREAD) counts in whole
// scheduler ticks (4 ms here), too coarse for the kernel.
func threadCPUTime() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID, which package syscall does not name
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// kernel hops calibSteps times through the pointer cycle (memory
// latency) and pushes calibSteps pseudo-random keys through a bounded
// binary min-heap (branchy work in cache), the two costs of a
// discrete-event replay.
func (c *calibrator) kernel() {
	p := uint32(0)
	for i := 0; i < calibSteps; i++ {
		p = c.chase[p]
	}
	h := c.heap[:0]
	x, s := uint64(2463534242), uint64(0)
	for i := 0; i < calibSteps; i++ {
		x = xorshift(x)
		h = append(h, x)
		for j := len(h) - 1; j > 0; {
			q := (j - 1) / 2
			if h[q] <= h[j] {
				break
			}
			h[q], h[j] = h[j], h[q]
			j = q
		}
		if len(h) < len(c.heap) {
			continue
		}
		s += h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for j := 0; ; {
			l := 2*j + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r] < h[l] {
				l = r
			}
			if h[j] <= h[l] {
				break
			}
			h[j], h[l] = h[l], h[j]
			j = l
		}
	}
	c.sink += uint64(p) + s
}

// medianMs is the kernel's median CPU time over the run. Not its
// fastest: a kernel that follows another without a replay between finds
// the pointer cycle still cached and runs a third faster.
func (c *calibrator) medianMs() float64 { return stats.Median(c.samples) }

// scale is the factor that rescales a CPU time measured in this run to
// the reference speed: below 1 when the host ran slower.
func (c *calibrator) scale() float64 { return c.refMs / c.medianMs() }

func (c *calibrator) close() {
	if err := syscall.Munmap(c.mem); err != nil {
		logf("calibration memory: %v", err)
	}
}
