package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pacevm/internal/obs"
	"pacevm/internal/workload"
)

// TestRestoreParentFormatSnapshot restores testdata/parent-v1.snap, a
// snapshot written by the encoding/json writer that preceded the
// streamed one (wrapper fields version, crc32, payload; placements
// sorted by key): p-1 live on server 1 after server 0 crashed, p-2
// released, p-3 live on server 4. The service then drains, writing a
// streamed snapshot, and that one must restore to the same answers.
func TestRestoreParentFormatSnapshot(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent-v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"version":1,"crc32":`)) {
		t.Fatalf("fixture is not in the older wrapper order: %.40s", data)
	}
	cfg := testConfig(t, 8, 2)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.snap")
	if err := os.WriteFile(cfg.SnapshotPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Restore = true
	want := map[string]*PlaceResponse{
		"p-1": {Key: "p-1", Servers: []int{1, 1}, VMIDs: []int{1, 2}, Level: "full-search"},
		"p-2": {Key: "p-2", Servers: []int{4}, VMIDs: []int{3}, Level: "full-search", Released: true},
		"p-3": {Key: "p-3", Servers: []int{4, 4, 4}, VMIDs: []int{4, 5, 6}, Level: "full-search"},
	}
	for round := 0; round < 2; round++ {
		s, err := NewService(cfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for key, resp := range want {
			sameReplay(t, key, s.Place("test", PlaceRequest{Key: key, Class: "cpu", VMs: len(resp.VMIDs)}), resp)
		}
		sh := s.shardOf(0)
		sh.smu.Lock()
		down := sh.idx.Down(0)
		sh.smu.Unlock()
		if !down {
			t.Fatalf("round %d: server 0 restored as up", round)
		}
		if round == 0 {
			fresh := mustPlace(t, s, "fresh", 1)
			if fresh.VMIDs[0] != 7 {
				t.Fatalf("fresh placement got vm uid %d, want 7", fresh.VMIDs[0])
			}
			want["fresh"] = fresh
		}
		drainClean(t, s)
		if data, err = os.ReadFile(cfg.SnapshotPath); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(`{"version":1,"payload":{`)) {
			t.Fatalf("round %d: drain wrote %.40s, want the streamed wrapper", round, data)
		}
	}
}

// TestDurabilityFailuresCounted removes the state directory under a
// running service: every snapshot from then on fails and is counted,
// while placements go on (the journal's open descriptor still takes
// appends). A crash whose journal append fails is counted too.
func TestDurabilityFailuresCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 4, 1)
	cfg.SnapshotPath = filepath.Join(dir, "state.snap")
	cfg.SnapshotEvery = 5 * time.Millisecond
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustPlace(t, s, "before", 1)
	waitFor(t, "a snapshot", func() bool { return s.mSnapshots.Value() > 0 })
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a failed snapshot counted", func() bool { return s.mSnapErrs.Value() > 0 })
	mustPlace(t, s, "after", 1)

	s.j.mu.Lock()
	s.j.f.Close() // every later append fails
	s.j.mu.Unlock()
	if err := s.CrashServer(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a failed append counted", func() bool { return s.mAppendErrs.Value() > 0 })

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, s.reg.Snapshot(), servePromHelp); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{`serve_journal_errors_total{op="snapshot"}`, `serve_journal_errors_total{op="append"}`} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
	if _, err := obs.ValidateExposition(&buf); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	drainClean(t, s)
}

// FuzzSnapshotMatchesEncodingJSON holds the streamed encoders to
// encoding/json. A service state built from the input — two
// placements, down servers, queued and parked requests — is written by
// writeSnapshot and by the oracle (capturePayload +
// writeSnapshotFileJSON); both files must decode through
// readSnapshotFile to the same payload, placements sorted by key. A
// journal record of the same values must decode through readJournal to
// the same jrec either way. A value JSON cannot carry must fail both.
func FuzzSnapshotMatchesEncodingJSON(f *testing.F) {
	f.Add("job-1", "job-2", 7, 600.0, 0.0, 1.25, uint8(0), uint16(0))
	f.Add("k\"\\\x01<&> ", "\xff\xfe", -3, 1e-7, 1e21, 0.0, uint8(2), uint16(0xffff))
	f.Add("a", "a", 0, math.Copysign(0, -1), 123456.789, 5e-324, uint8(1), uint16(0x5a5a))
	f.Add("", "x\ty", 1<<40, math.MaxFloat64, 1e20, 999999999999999999999.0, uint8(3), uint16(0x0f0f))
	f.Add("nan", "inf", 1, math.NaN(), math.Inf(1), 1.0, uint8(0), uint16(0x3000))
	dir := f.TempDir()
	cfg := testConfig(f, 8, 2)
	cfg.SnapshotPath = filepath.Join(dir, "stream.snap")
	s, err := newService(cfg) // no workers: the fuzz body owns the state
	if err != nil {
		f.Fatal(err)
	}
	oracle := filepath.Join(dir, "oracle.snap")
	f.Fuzz(func(t *testing.T, key1, key2 string, job int, nominal, maxS, wait float64, level uint8, bits uint16) {
		class := workload.Classes[int(level)%len(workload.Classes)]
		bit := func(i uint) bool { return bits>>i&1 == 1 }
		finite := true
		for _, v := range []float64{nominal, maxS, wait} {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}

		s.byKey = map[string]*placement{}
		pl1 := &placement{
			Key: key1, Job: job, Class: class, NominalS: nominal, MaxS: maxS, Shard: 0,
			Servers: []int{1, 2}, VMIDs: []int{1, 2},
			Released: bit(0), Degraded: bit(1), Relaxed: bit(2), Level: int(level), WaitMS: wait,
		}
		if bit(3) {
			pl1.Servers[1] = -1 // evicted, awaiting requeue
		}
		s.byKey[key1] = pl1
		s.byKey[key2] = &placement{
			Key: key2, Job: -job, Class: workload.ClassIO, NominalS: wait, MaxS: nominal, Shard: 1,
			Servers: []int{5}, VMIDs: []int{3},
		}
		s.lastSeq, s.nextVMID = int(bits), 4
		for _, sh := range s.shards {
			for i := 0; i < sh.n; i++ {
				if sh.idx.Down(i) != bit(uint(4+sh.base+i)) {
					if sh.idx.Down(i) {
						sh.idx.SetUp(i)
					} else {
						sh.idx.SetDown(i)
					}
				}
			}
			sh.pend, sh.parked = nil, nil
		}
		if bit(12) {
			s.shards[0].pend = []*pending{{key: key2, job: job, class: class, vms: 2, nominalS: maxS, maxS: wait}}
			s.shards[1].pend = []*pending{{key: key1, class: workload.ClassMEM, vms: 1, nominalS: 600}}
		}
		if bit(13) {
			s.shards[1].parked = []*pending{{
				key: key1, job: job, class: class, vms: 1, nominalS: nominal, maxS: maxS,
				requeue: true, slot: 1, vmID: 2,
			}}
		}

		errStream := s.writeSnapshot()
		errOracle := writeSnapshotFileJSON(oracle, capturePayload(s))
		if !finite {
			if errStream == nil || errOracle == nil {
				t.Fatalf("non-finite value: stream error %v, oracle error %v", errStream, errOracle)
			}
		} else {
			if errStream != nil || errOracle != nil {
				t.Fatalf("stream error %v, oracle error %v", errStream, errOracle)
			}
			got, err := readSnapshotFile(cfg.SnapshotPath)
			if err != nil {
				t.Fatalf("streamed snapshot: %v", err)
			}
			want, err := readSnapshotFile(oracle)
			if err != nil {
				t.Fatalf("oracle snapshot: %v", err)
			}
			// Two invalid UTF-8 keys can decode to the same string: the
			// shard breaks the tie.
			for _, p := range []*snapPayload{got, want} {
				sort.Slice(p.Placements, func(i, j int) bool {
					a, b := p.Placements[i], p.Placements[j]
					return a.Key < b.Key || a.Key == b.Key && a.Shard < b.Shard
				})
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot payloads differ:\n got %+v\nwant %+v", got, want)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp-") {
				t.Fatalf("temp file %s left behind", e.Name())
			}
		}

		r := jrec{
			Kind: jPlace, Key: key1, Job: job, Class: class.String(), NominalS: nominal, MaxS: maxS,
			Servers: pl1.Servers, VMIDs: pl1.VMIDs, Degraded: bit(1), Relaxed: bit(2),
			Level: int(level), WaitMS: wait, Server: job, Slot: int(level), VMID: -job,
		}
		if bit(14) {
			r.Evict = []evictRec{{Key: key2, Slot: 1, VMID: 3}, {Key: key1, VMID: job}}
		}
		jpath := filepath.Join(dir, "stream.journal")
		j, err := openJournal(jpath, false, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, errStream = j.append(&r)
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		line, errOracle := json.Marshal(r)
		if !finite {
			if errStream == nil || errOracle == nil {
				t.Fatalf("non-finite journal record: stream error %v, oracle error %v", errStream, errOracle)
			}
			return
		}
		if errStream != nil || errOracle != nil {
			t.Fatalf("journal: stream error %v, oracle error %v", errStream, errOracle)
		}
		opath := filepath.Join(dir, "oracle.journal")
		if err := os.WriteFile(opath, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := readJournal(jpath)
		if err != nil {
			t.Fatalf("streamed journal: %v", err)
		}
		want, _, err := readJournal(opath)
		if err != nil {
			t.Fatalf("oracle journal: %v", err)
		}
		if !reflect.DeepEqual(got, want) || len(got) != 1 {
			t.Fatalf("journal records differ:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestSnapshotsUnderConcurrentLoad writes a snapshot every millisecond
// while several clients place, replay and release at once: the writer
// reads placements under the shard locks alone, next to admission's
// reads under Service.mu. Every acknowledged answer must survive a
// restore from what the drain wrote.
func TestSnapshotsUnderConcurrentLoad(t *testing.T) {
	cfg := testConfig(t, 8, 2)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.snap")
	cfg.SnapshotEvery = time.Millisecond
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 40
	acked := make([]map[string]*PlaceResponse, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		acked[c] = map[string]*PlaceResponse{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				key := fmt.Sprintf("c%d-%d", c, i)
				out := s.Place("test", PlaceRequest{Key: key, Class: "cpu", VMs: 1})
				if out.Status != 200 {
					t.Errorf("place %s: %+v", key, out)
					return
				}
				s.Place("test", PlaceRequest{Key: key, Class: "cpu", VMs: 1})
				if i%10 != 0 { // 16 stay live, in 32 VM slots
					if out = s.Release(key); out.Status != 200 {
						t.Errorf("release %s: %+v", key, out)
						return
					}
				}
				acked[c][key] = out.Resp
				s.Stats()
			}
		}(c)
	}
	wg.Wait()
	if s.mSnapshots.Value() == 0 {
		t.Fatal("no snapshot was written under load")
	}
	drainClean(t, s)
	cfg.Restore = true
	r, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := range acked {
		for key, resp := range acked[c] {
			sameReplay(t, key, r.Place("test", PlaceRequest{Key: key, Class: "cpu", VMs: len(resp.VMIDs)}), resp)
		}
	}
	drainClean(t, r)
}
