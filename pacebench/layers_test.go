package main

import (
	"testing"

	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
)

// The decorator must keep every optional interface cloudsim.Run
// type-asserts, or wrapping would silently switch the code path.
func TestWrapStrategyKeepsInterfaces(t *testing.T) {
	s, err := newSetup(nil)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := strategy.NewFirstFit(3)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := strategy.NewProactiveConfig(core.Config{DB: s.db}, core.GoalBalanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []strategy.Strategy{ff, pa} {
		w, err := wrapStrategy(inner, &placeStats{})
		if err != nil {
			t.Fatal(err)
		}
		_, ipIn := inner.(strategy.IndexedPlacer)
		_, ipOut := w.(strategy.IndexedPlacer)
		_, chIn := inner.(strategy.CapacityHinter)
		_, chOut := w.(strategy.CapacityHinter)
		_, exIn := inner.(strategy.Explainer)
		_, exOut := w.(strategy.Explainer)
		if ipIn != ipOut || chIn != chOut || exIn != exOut {
			t.Errorf("%s: wrapped (indexed %v, hinter %v, explainer %v), inner (%v, %v, %v)",
				inner.Name(), ipOut, chOut, exOut, ipIn, chIn, exIn)
		}
		if w.Name() != inner.Name() {
			t.Errorf("wrapped name %q, inner %q", w.Name(), inner.Name())
		}
	}
	if _, ok := any(ff).(strategy.IndexedPlacer); !ok {
		t.Fatal("FirstFit no longer implements IndexedPlacer; the test lost its subject")
	}
	if _, ok := any(pa).(strategy.Explainer); !ok {
		t.Fatal("Proactive no longer implements Explainer; the test lost its subject")
	}
}

// indexedOnly places through the index but gives no capacity hint — a
// combination the decorator cannot keep faithfully.
type indexedOnly struct{ strategy.FirstFit }

func (i *indexedOnly) CanFit() {} // shadows FirstFit.CanFit with another signature

func TestWrapStrategyRefusesUnknownCombination(t *testing.T) {
	s := &indexedOnly{strategy.FirstFit{Multiplex: 1}}
	if _, ok := any(s).(strategy.CapacityHinter); ok {
		t.Fatal("fixture still implements CapacityHinter")
	}
	if _, err := wrapStrategy(s, &placeStats{}); err == nil {
		t.Error("wrapping an IndexedPlacer without CapacityHinter succeeded")
	}
}

// A wrapped strategy places exactly as the bare one, and the decorator
// sees every placement call.
func TestWrappedRunMatchesBare(t *testing.T) {
	s, err := newSetup(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultStreamConfig(5)
	cfg.MeanInterarrival = 30
	st, err := trace.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := st.Take(400)
	for _, w := range []simWorkload{simFF, simPA} {
		bare, err := w.strategy(s.db, nil)
		if err != nil {
			t.Fatal(err)
		}
		ps := &placeStats{}
		wrapped, err := wrapStrategy(bare, ps)
		if err != nil {
			t.Fatal(err)
		}
		servers := 8
		a, err := cloudsim.Run(cloudsim.Config{DB: s.db, Servers: servers, Strategy: bare, IdleServerPower: w.idle}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cloudsim.Run(cloudsim.Config{DB: s.db, Servers: servers, Strategy: wrapped, IdleServerPower: w.idle}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if a.Metrics != b.Metrics {
			t.Errorf("%s: wrapped Metrics %+v, bare %+v", w.name, b.Metrics, a.Metrics)
		}
		if ps.calls < int64(len(reqs)) || ps.ok != int64(len(reqs)) {
			t.Errorf("%s: decorator saw %d calls, %d placed, want >= %d and %d", w.name, ps.calls, ps.ok, len(reqs), len(reqs))
		}
		if w.name == simPA.name && ps.explained != ps.calls {
			t.Errorf("sim_pa: %d of %d calls explained", ps.explained, ps.calls)
		}
	}
}
