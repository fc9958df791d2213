// Command pacebench is the repository benchmark: it replays seeded
// traces through the datacenter simulator (sim_ff, sim_pa) and drives
// the placement service over loopback HTTP (serve_http), checks every
// output, and prints one JSON result line. README.md describes the
// workloads and metrics; run.sh builds and runs it.
//
//	pacebench --workload sim_pa --seed 7 --seconds 25 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// opts are the per-run settings.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
}

// outDir holds spans and service state, relative to the repository root
// the benchmark runs from; run.sh keeps its build there too.
const outDir = ".bench_build"

var logStart = time.Now()

// logf writes a progress line to standard error; standard output holds
// only the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%7.3fs] %s\n", time.Since(logStart).Seconds(), fmt.Sprintf(format, args...))
}

var workloads = []string{simFF.name, simPA.name, serveName}

func runWorkload(name string, o opts) (*result, error) {
	switch name {
	case simFF.name:
		return runSim(simFF, o), nil
	case simPA.name:
		return runSim(simPA, o), nil
	case serveName:
		return runServe(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pacebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all (each in a fresh process)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 25, "measured time per run")
	traced := fs.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	recordTo := fs.String("record-golden", "", "record the sim workloads' Metrics digests for --seeds into this file")
	seedList := fs.String("seeds", "", "seed range lo-hi for --record-golden and --order-check")
	orderCheck := fs.Bool("order-check", false, "run every workload in two orders, each in a fresh process, over --seeds, and compare medians against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "pacebench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "pacebench: --seconds must be positive")
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *traced == 1}

	switch {
	case *recordTo != "":
		seeds, err := parseSeeds(*seedList)
		if err == nil {
			err = recordGoldenFile(*recordTo, seeds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pacebench:", err)
			return 1
		}
		return 0
	case *orderCheck:
		seeds, err := parseSeeds(*seedList)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pacebench:", err)
			return 2
		}
		o.trace = false
		return checkOrders(seeds, o)
	case *workload == "all":
		return runAll(o)
	}

	r, err := runWorkload(*workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		return 2
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line := r.line(defs)
	r.logValues()
	fmt.Println(line)
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

// parseSeeds reads "lo-hi" (inclusive) or a single seed.
func parseSeeds(s string) ([]uint64, error) {
	lo, hi, found := strings.Cut(s, "-")
	if !found {
		hi = lo
	}
	a, err1 := strconv.ParseUint(lo, 10, 64)
	b, err2 := strconv.ParseUint(hi, 10, 64)
	if err1 != nil || err2 != nil || b < a || b-a >= 1000 {
		return nil, fmt.Errorf("bad --seeds %q (want lo-hi, at most 1000 seeds)", s)
	}
	var out []uint64
	for v := a; v <= b; v++ {
		out = append(out, v)
	}
	return out, nil
}
