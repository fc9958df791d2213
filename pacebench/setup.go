package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"pacevm/internal/campaign"
	"pacevm/internal/model"
	"pacevm/internal/stats"
	"pacevm/internal/trace"
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, and the last set-up is the one the run uses.
const setupRepeats = 11

// setupState is what a workload's set-up produced.
type setupState struct {
	db     *model.DB
	sum    campaign.Summary
	traces [][]trace.Request

	campaignT, traceGen time.Duration // CPU time
	spans               *spanLog
	root                int64 // the set-up span
}

// newSetup runs the model-database campaign (base tests plus the full
// pricing grid the simulator and the service need).
func newSetup(spans *spanLog) (*setupState, error) {
	s := &setupState{spans: spans, root: spans.newID()}
	cfg := campaign.DefaultConfig()
	cfg.FullGridTotal = 16
	cfg.Workers = 2
	c0, t0 := cpuTime(), time.Now()
	db, sum, err := campaign.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	s.campaignT = cpuTime() - c0
	spans.add(spans.newID(), s.root, 0, "campaign.Run", t0, time.Now())
	s.db, s.sum = db, sum
	return s, nil
}

// timedSetup performs a set-up setupRepeats times and returns the last
// state, with its layer timings replaced by the medians, and the median
// set-up time in seconds. Set-up times are process CPU time (see
// endToEnd).
func timedSetup(f func() (*setupState, error)) (*setupState, float64, error) {
	var total, camp, gen []float64
	var s *setupState
	for i := 0; i < setupRepeats; i++ {
		c0, t0 := cpuTime(), time.Now()
		var err error
		if s, err = f(); err != nil {
			return nil, 0, err
		}
		total = append(total, (cpuTime() - c0).Seconds())
		camp = append(camp, s.campaignT.Seconds())
		gen = append(gen, s.traceGen.Seconds())
		s.spans.add(s.root, 0, 0, "setup", t0, time.Now())
	}
	s.campaignT = time.Duration(stats.Median(camp) * 1e9)
	s.traceGen = time.Duration(stats.Median(gen) * 1e9)
	logf("setup: %d repeats, median %.4fs (campaign %.4fs, trace %.4fs)", setupRepeats, stats.Median(total), s.campaignT.Seconds(), s.traceGen.Seconds())
	return s, stats.Median(total), nil
}

// reportSetupLayers stores the campaign and trace layers.
func reportSetupLayers(r *result, s *setupState) {
	var reqs, vms int
	for _, t := range s.traces {
		reqs += len(t)
		for _, q := range t {
			vms += q.VMs
		}
	}
	r.Values["campaign.run_s"] = s.campaignT.Seconds()
	r.Values["trace.gen_s"] = s.traceGen.Seconds()
	r.Values["trace.requests"] = float64(reqs)
	r.Values["trace.vms"] = float64(vms)
}

// zeroLayers reports zero work for the per-layer metrics of layers a
// workload does not run, named by prefix.
func zeroLayers(r *result, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.Values[d.name] = 0
			}
		}
	}
}

func spanPath(o opts, workload string) string {
	return filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, o.seed))
}
