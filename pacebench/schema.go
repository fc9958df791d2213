package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
)

// Spec is BENCHMARK.json: the command that runs the benchmark, its
// workloads, and the metrics a run reports.
type Spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDoc `json:"workloads"`
	EndToEnd   []MetricDoc   `json:"end_to_end"`
	PerLayer   []MetricDoc   `json:"per_layer"`
}

// WorkloadDoc names a workload and says why the benchmark runs it.
type WorkloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDoc declares one reported metric. Bound, set only on end-to-end
// metrics, is the share of the baseline median by which the metric may
// worsen before a change counts as a regression.
type MetricDoc struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

// parseSpec decodes BENCHMARK.json strictly (unknown keys are errors)
// and validates it.
func parseSpec(data []byte) (*Spec, error) {
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("spec: %d bytes exceeds 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("spec: command has %d entries, want 1..32", n)
	}
	for _, c := range s.Command {
		if len(c) == 0 || len(c) > 200 {
			return fmt.Errorf("spec: command entry %q length out of 1..200", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("spec: %d paths, want 1..16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' || bytes.Contains([]byte(p), []byte("..")) {
			return fmt.Errorf("spec: bad path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("spec: run_seconds %d out of 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("spec: %d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("spec: %d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("spec: %d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("spec: bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("spec: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\r\n") {
			return fmt.Errorf("spec: workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := checkMetric(m, use); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("spec: end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("spec: end-to-end metrics need setup_s in s, better lower")
	}
	for _, m := range s.PerLayer {
		if err := checkMetric(m, use); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("spec: per-layer metric %s has a bound", m.Name)
		}
	}
	return nil
}

func checkMetric(m MetricDoc, use func(string) error) error {
	if err := use(m.Name); err != nil {
		return err
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("spec: metric %s: bad unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("spec: metric %s: better must be lower or higher, not %q", m.Name, m.Better)
	}
	return nil
}
