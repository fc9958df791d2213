package serve

// The encoding/json snapshot writer the streamed one replaced, kept as
// the test oracle and fixture writer: capturePayload copies live state
// into the tagged snapshot structs, and writeSnapshotFileJSON marshals
// them with the wrapper's fields in the order older builds wrote them
// (crc32 before payload).

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// capturePayload copies the service state into a snapPayload, with
// placements sorted by key. Callers own the service (no worker runs).
func capturePayload(s *Service) *snapPayload {
	p := &snapPayload{
		Seq: s.lastSeq, NextVMID: s.nextVMID,
		Servers: s.cfg.Servers, Shards: s.cfg.Shards, MaxVMs: s.cfg.MaxVMsPerServer,
	}
	for _, sh := range s.shards {
		for i := 0; i < sh.n; i++ {
			if sh.idx.Down(i) {
				p.Down = append(p.Down, sh.base+i)
			}
		}
	}
	keys := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pl := s.byKey[k]
		p.Placements = append(p.Placements, snapPlacement{
			Key: pl.Key, Job: pl.Job, Class: pl.Class.String(),
			NominalS: pl.NominalS, MaxS: pl.MaxS, Shard: pl.Shard,
			Servers: append([]int(nil), pl.Servers...), VMIDs: append([]int(nil), pl.VMIDs...),
			Released: pl.Released, Degraded: pl.Degraded, Relaxed: pl.Relaxed,
			Level: pl.Level, WaitMS: pl.WaitMS,
		})
	}
	for _, sh := range s.shards {
		for _, q := range sh.pend {
			p.Queue = append(p.Queue, snapPending{
				Key: q.key, Job: q.job, Class: q.class.String(), VMs: q.vms,
				NominalS: q.nominalS, MaxS: q.maxS, Shard: sh.id,
			})
		}
		for _, q := range sh.parked {
			p.Queue = append(p.Queue, snapPending{
				Key: q.key, Job: q.job, Class: q.class.String(), VMs: q.vms,
				NominalS: q.nominalS, MaxS: q.maxS,
				Requeue: true, Shard: sh.id, Slot: q.slot, VMID: q.vmID,
			})
		}
	}
	return p
}

// writeSnapshotFileJSON writes p the way older builds did: marshal,
// checksum, marshal the wrapper around the raw payload, then tmp,
// fsync and rename.
func writeSnapshotFileJSON(path string, p *snapPayload) error {
	raw, err := json.Marshal(p)
	if err != nil {
		return err
	}
	doc, err := json.Marshal(snapFile{Version: snapshotVersion, CRC: crc32.ChecksumIEEE(raw), Payload: raw})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(doc, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
