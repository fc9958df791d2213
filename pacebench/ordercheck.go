package main

// The ordering self-check: a workload's figures must not depend on
// which workloads ran before it. Every workload runs in a fresh process
// (the driver's own practice), in two orders per seed, and the medians
// of each order are compared against the metric's bound.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"

	"pacevm/internal/stats"
)

// childResult is the part of a result line the check reads.
type childResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runChild runs one workload in a fresh process and parses its result
// line, which it also returns verbatim.
func runChild(exe, workload string, seed uint64, o opts) (childResult, []byte, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var res childResult
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	if jerr := json.Unmarshal(last, &res); jerr != nil {
		return res, nil, fmt.Errorf("%s seed %d: no result line (run error %v)", workload, seed, err)
	}
	if err != nil || !res.Correct {
		return res, last, fmt.Errorf("%s seed %d: run failed (%v)", workload, seed, err)
	}
	return res, last, nil
}

// runAll runs every workload in a fresh process and prints each one's
// result line after its name; it fails if any run failed.
func runAll(o opts) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		_, line, err := runChild(exe, w, o.seed, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pacebench:", err)
			status = 1
		}
		fmt.Printf("%s %s\n", w, line)
	}
	return status
}

// checkOrders runs the workloads in forward and reverse order for every
// seed, alternating the orders, and reports for each workload and
// end-to-end metric the two orders' medians and spreads (quartile
// distance over median, across seeds). It fails when the medians differ
// by more than the metric's bound.
func checkOrders(seeds []uint64, o opts) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		return 1
	}
	orders := [][]string{workloads, slices.Clone(workloads)}
	slices.Reverse(orders[1])
	// vals[order][workload][metric] holds one value per seed.
	vals := [2]map[string]map[string][]float64{{}, {}}
	for _, seed := range seeds {
		for oi, order := range orders {
			for _, w := range order {
				res, _, err := runChild(exe, w, seed, o)
				if err != nil {
					fmt.Fprintln(os.Stderr, "pacebench:", err)
					return 1
				}
				if vals[oi][w] == nil {
					vals[oi][w] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					vals[oi][w][name] = append(vals[oi][w][name], m.Value)
				}
			}
		}
	}
	status := 0
	fmt.Printf("%-11s %-18s %12s %12s %8s %6s %8s %8s\n", "workload", "metric", "forward", "reverse", "diff", "bound", "spread-f", "spread-r")
	for _, w := range workloads {
		for _, d := range endToEnd {
			fv, rv := vals[0][w][d.name], vals[1][w][d.name]
			sf, sr := math.NaN(), math.NaN()
			if len(seeds) > 1 {
				sf, sr = spread(fv), spread(rv)
			}
			a, b := stats.Median(fv), stats.Median(rv)
			diff := math.Abs(a-b) / math.Abs(a)
			if a == b {
				diff = 0
			}
			mark := ""
			if diff > d.bound {
				mark, status = " OVER", 1
			}
			fmt.Printf("%-11s %-18s %12.5g %12.5g %7.1f%% %5.0f%% %7.1f%% %7.1f%%%s\n", w, d.name, a, b, 100*diff, 100*d.bound, 100*sf, 100*sr, mark)
		}
	}
	return status
}
