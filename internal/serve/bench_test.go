package serve

// BenchmarkServe measures the full admission round trip — validate,
// route, queue, shard-worker PA placement, reply — plus the matching
// release, with a sliding window of live placements so the fleet stays
// at a steady mid-load occupancy instead of saturating. Recorded in
// BENCH_sim.json by `make bench-json`.

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"pacevm/internal/workload"
)

func benchConfig(b *testing.B) Config {
	return Config{
		DB:              sharedDB(b),
		Servers:         64,
		Shards:          4,
		MaxVMsPerServer: 4,
		RequestTimeout:  10 * time.Second,
		Watermarks:      [3]time.Duration{time.Second, 2 * time.Second, 4 * time.Second},
		WatchdogEvery:   -1,
	}
}

func BenchmarkServe(b *testing.B) {
	benchServe(b, benchConfig(b))
}

// BenchmarkServeObs is BenchmarkServe with the full observability
// stack on — span tracing, slow ring, per-stage histograms, SLO
// tracking, and the access log (to io.Discard). The delta against
// BenchmarkServe is the per-request observability overhead.
func BenchmarkServeObs(b *testing.B) {
	cfg := benchConfig(b)
	cfg.SlowRing = 32
	cfg.SLOTarget = 500 * time.Millisecond
	cfg.AccessLog = io.Discard
	benchServe(b, cfg)
}

func benchServe(b *testing.B, cfg Config) {
	s, err := NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const window = 128 // live placements held; 256 VM slots total
	classes := [...]string{"cpu", "mem", "io"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("b-%d", i)
		out := s.Place("bench", PlaceRequest{Key: key, Class: classes[i%3], VMs: 1})
		if out.Status != 200 {
			b.Fatalf("place %s: status %d reason %q", key, out.Status, out.Reason)
		}
		if i >= window {
			if out := s.Release(fmt.Sprintf("b-%d", i-window)); out.Status != 200 {
				b.Fatalf("release: status %d reason %q", out.Status, out.Reason)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if v := s.Drain(30 * time.Second); len(v) != 0 {
		b.Fatalf("drain left %d violations; first: %+v", len(v), v[0])
	}
}

// BenchmarkSnapshot times one periodic snapshot, fsync included, of a
// service holding n placements (1-4 VMs each, a tenth released):
// "stream" is writeSnapshot; "json" is the encoding/json writer it
// replaced (copy and sort every placement, marshal, marshal again
// inside the wrapper), kept as the test oracle.
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{1000, 10000, 40000} {
		cfg := benchConfig(b)
		cfg.SnapshotPath = filepath.Join(b.TempDir(), "state.snap")
		s, err := newService(cfg)
		if err != nil {
			b.Fatal(err)
		}
		classes := [...]workload.Class{workload.ClassCPU, workload.ClassMEM, workload.ClassIO}
		for i := 0; i < n; i++ {
			vms := 1 + i%4
			pl := &placement{
				Key: fmt.Sprintf("u-%d", i), Job: i, Class: classes[i%3], NominalS: 600,
				Shard: i % cfg.Shards, Released: i%10 == 0, Level: i % 3, WaitMS: float64(i%97) * 0.137,
			}
			for v := 0; v < vms; v++ {
				pl.Servers = append(pl.Servers, (i+v)%cfg.Servers)
				pl.VMIDs = append(pl.VMIDs, s.nextVMID)
				s.nextVMID++
			}
			s.byKey[pl.Key] = pl
		}
		oracle := filepath.Join(b.TempDir(), "oracle.snap")
		b.Run(fmt.Sprintf("stream/%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.writeSnapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("json/%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := writeSnapshotFileJSON(oracle, capturePayload(s)); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := s.j.close(); err != nil {
			b.Fatal(err)
		}
	}
}
