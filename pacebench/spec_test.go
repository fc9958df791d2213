package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) (*Spec, []byte) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return s, data
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// runs and reports, with the same units, directions and bounds.
func TestSpecMatchesProgram(t *testing.T) {
	s, _ := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("spec workloads %v, program runs %v", names, workloads)
	}
	check := func(kind string, docs []MetricDoc, defs []metricDef, bounded bool) {
		if len(docs) != len(defs) {
			t.Errorf("%s: spec has %d metrics, program %d", kind, len(docs), len(defs))
			return
		}
		for i, d := range defs {
			m := docs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: spec %s %s %s, program %s %s %s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.bound) {
				t.Errorf("%s %s: spec bound %v, program %v", kind, d.name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)
}

// Decoding and re-encoding BENCHMARK.json loses nothing: the file has
// no key the schema does not know.
func TestSpecRoundTrip(t *testing.T) {
	s, data := loadSpec(t)
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	again, err := parseSpec(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Errorf("round trip changed the spec")
	}
	var generic, regeneric any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &regeneric); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(generic, regeneric) {
		t.Errorf("re-encoded spec differs from BENCHMARK.json")
	}
}

func TestSpecRejects(t *testing.T) {
	_, data := loadSpec(t)
	var base map[string]any
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(m map[string]any)) []byte {
		var m map[string]any
		json.Unmarshal(data, &m)
		f(m)
		out, _ := json.Marshal(m)
		return out
	}
	metric := func(m map[string]any, list string, i int) map[string]any {
		return m[list].([]any)[i].(map[string]any)
	}
	cases := map[string][]byte{
		"unknown key":     mutate(func(m map[string]any) { m["extra"] = 1 }),
		"space in name":   mutate(func(m map[string]any) { metric(m, "per_layer", 0)["name"] = "a b" }),
		"slash in name":   mutate(func(m map[string]any) { metric(m, "per_layer", 0)["name"] = "a/b" }),
		"leading dot":     mutate(func(m map[string]any) { metric(m, "per_layer", 0)["name"] = ".a" }),
		"duplicate name":  mutate(func(m map[string]any) { metric(m, "per_layer", 1)["name"] = metric(m, "per_layer", 0)["name"] }),
		"bound too wide":  mutate(func(m map[string]any) { metric(m, "end_to_end", 1)["bound"] = 0.3 }),
		"no bound":        mutate(func(m map[string]any) { delete(metric(m, "end_to_end", 1), "bound") }),
		"per-layer bound": mutate(func(m map[string]any) { metric(m, "per_layer", 0)["bound"] = 0.1 }),
		"bad better":      mutate(func(m map[string]any) { metric(m, "end_to_end", 1)["better"] = "more" }),
		"bad unit":        mutate(func(m map[string]any) { metric(m, "end_to_end", 1)["unit"] = "req per s" }),
		"no setup_s":      mutate(func(m map[string]any) { metric(m, "end_to_end", 0)["name"] = "boot_s" }),
		"absolute path":   mutate(func(m map[string]any) { m["paths"] = []string{"/pacebench"} }),
		"escaping path":   mutate(func(m map[string]any) { m["paths"] = []string{"../x"} }),
		"one workload":    mutate(func(m map[string]any) { m["workloads"] = m["workloads"].([]any)[:1] }),
		"run_seconds 61":  mutate(func(m map[string]any) { m["run_seconds"] = 61 }),
		"two-line why":    mutate(func(m map[string]any) { m["workloads"].([]any)[0].(map[string]any)["why"] = "a\nb" }),
	}
	for name, data := range cases {
		if _, err := parseSpec(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every metric name the program can emit is in the spec charset.
func TestMetricNameCharset(t *testing.T) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q outside the charset", d.name, d.unit)
		}
		if strings.Trim(d.name, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-") != "" {
			t.Errorf("metric %q has a character outside [A-Za-z0-9_.-]", d.name)
		}
	}
}

// The result line holds exactly the requested metrics, and a metric the
// run failed to measure fails the run instead of printing a number.
func TestResultLine(t *testing.T) {
	r := newResult()
	for _, d := range endToEnd {
		r.Values[d.name] = 1.5
	}
	r.Values["cloudsim.run_s"] = 2 // measured but not requested
	var out struct {
		Correct bool                       `json:"correct"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(r.line(endToEnd)), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || len(out.Metrics) != len(endToEnd) {
		t.Errorf("line: correct %v with %d metrics, want true with %d", out.Correct, len(out.Metrics), len(endToEnd))
	}
	delete(r.Values, "setup_s")
	r.line(endToEnd)
	if r.Correct {
		t.Errorf("a missing metric left the run correct")
	}
}

// Every seed's run checks a canary against a recorded digest, so
// golden.json must hold every canary of both sim workloads.
func TestGoldenHoldsEveryCanary(t *testing.T) {
	g, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []simWorkload{simFF, simPA} {
		for c := 0; c < canaryCount; c++ {
			if g[w.name].Canaries[strconv.Itoa(c)] == "" {
				t.Errorf("%s: no digest for canary %d", w.name, c)
			}
		}
	}
}
