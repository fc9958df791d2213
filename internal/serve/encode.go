package serve

// The durability formats' JSON encoder: journal records and snapshot
// payloads are appended field by field with strconv, straight from live
// state, instead of being copied into tagged structs and reflected over
// by encoding/json. The bytes decode through the same tagged structs
// (jrec, snapPayload) that readJournal and readSnapshotFile always used;
// FuzzSnapshotMatchesEncodingJSON holds the two encodings equal.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// objEnc appends JSON fields to b. Each field name comes joined to its
// separator and quotes — `{"seq":` opens an object, `,"job":` goes on
// with it — so a name costs one append. The first value JSON cannot
// carry (NaN or an infinity) sets err, and the bytes are then garbage.
type objEnc struct {
	b   []byte
	err error
}

// elem starts element i of an array field whose name f ends in '[': f
// before the first element, a comma before the rest. The caller closes
// the array with ']' once it has written any element.
func (o *objEnc) elem(f string, i int) {
	if i == 0 {
		o.b = append(o.b, f...)
	} else {
		o.b = append(o.b, ',')
	}
}

func (o *objEnc) int(f string, v int) {
	o.b = strconv.AppendInt(append(o.b, f...), int64(v), 10)
}

func (o *objEnc) str(f, v string) {
	o.b = appendJSONString(append(o.b, f...), v)
}

func (o *objEnc) float(f string, v float64) {
	var err error
	if o.b, err = appendJSONFloat(append(o.b, f...), v); err != nil && o.err == nil {
		o.err = fmt.Errorf("%s %w", strings.Trim(f, `{,":`), err)
	}
}

func (o *objEnc) yes(f string) {
	o.b = append(append(o.b, f...), "true"...)
}

func (o *objEnc) ints(f string, v []int) {
	o.b = append(append(o.b, f...), '[')
	for i, x := range v {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.b = strconv.AppendInt(o.b, int64(x), 10)
	}
	o.b = append(o.b, ']')
}

// appendJSONString appends s as a JSON string. ASCII with no control
// character, quote or backslash is copied as is; anything else goes
// through encoding/json, so invalid UTF-8 becomes U+FFFD exactly as it
// always has.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest digits that round-trip, in exponent form below 1e-6 or from
// 1e21 up. NaN and infinities have no JSON form and are an error.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("unsupported value %v", f)
	}
	abs := math.Abs(f)
	if f == math.Trunc(f) && abs != 0 && abs < 1e15 {
		// Whole seconds, the common case: the same digits, without the
		// shortest-digits search.
		return strconv.AppendInt(b, int64(f), 10), nil
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// 1e-07 -> 1e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJrec appends r as one journal line, newline included, with
// jrec's field names and omitempty rules.
func appendJrec(b []byte, r *jrec) ([]byte, error) {
	o := objEnc{b: b}
	o.int(`{"seq":`, r.Seq)
	o.str(`,"kind":`, r.Kind)
	if r.Key != "" {
		o.str(`,"key":`, r.Key)
	}
	if r.Job != 0 {
		o.int(`,"job":`, r.Job)
	}
	if r.Class != "" {
		o.str(`,"class":`, r.Class)
	}
	if r.NominalS != 0 {
		o.float(`,"nominal_s":`, r.NominalS)
	}
	if r.MaxS != 0 {
		o.float(`,"max_s":`, r.MaxS)
	}
	if len(r.Servers) > 0 {
		o.ints(`,"servers":`, r.Servers)
	}
	if len(r.VMIDs) > 0 {
		o.ints(`,"vm_ids":`, r.VMIDs)
	}
	if r.Degraded {
		o.yes(`,"degraded":`)
	}
	if r.Relaxed {
		o.yes(`,"relaxed":`)
	}
	if r.Level != 0 {
		o.int(`,"level":`, r.Level)
	}
	if r.WaitMS != 0 {
		o.float(`,"wait_ms":`, r.WaitMS)
	}
	if r.Server != 0 {
		o.int(`,"server":`, r.Server)
	}
	if r.Slot != 0 {
		o.int(`,"slot":`, r.Slot)
	}
	if r.VMID != 0 {
		o.int(`,"vm_id":`, r.VMID)
	}
	for i, e := range r.Evict {
		o.elem(`,"evict":[`, i)
		o.str(`{"key":`, e.Key)
		o.int(`,"slot":`, e.Slot)
		o.int(`,"vm_id":`, e.VMID)
		o.b = append(o.b, '}')
	}
	if len(r.Evict) > 0 {
		o.b = append(o.b, ']')
	}
	return append(o.b, '}', '\n'), o.err
}

// appendSnapPlacement appends pl as one element of the snapshot's
// placements array, with snapPlacement's field names and omitempty
// rules.
func appendSnapPlacement(b []byte, pl *placement) ([]byte, error) {
	o := objEnc{b: b}
	o.str(`{"key":`, pl.Key)
	if pl.Job != 0 {
		o.int(`,"job":`, pl.Job)
	}
	o.str(`,"class":`, pl.Class.String())
	if pl.NominalS != 0 {
		o.float(`,"nominal_s":`, pl.NominalS)
	}
	if pl.MaxS != 0 {
		o.float(`,"max_s":`, pl.MaxS)
	}
	o.int(`,"shard":`, pl.Shard)
	o.ints(`,"servers":`, pl.Servers)
	o.ints(`,"vm_ids":`, pl.VMIDs)
	if pl.Released {
		o.yes(`,"released":`)
	}
	if pl.Degraded {
		o.yes(`,"degraded":`)
	}
	if pl.Relaxed {
		o.yes(`,"relaxed":`)
	}
	if pl.Level != 0 {
		o.int(`,"level":`, pl.Level)
	}
	if pl.WaitMS != 0 {
		o.float(`,"wait_ms":`, pl.WaitMS)
	}
	return append(o.b, '}'), o.err
}

// appendSnapPending appends q, queued on shard, as one element of the
// snapshot's queue array, with snapPending's field names and omitempty
// rules.
func appendSnapPending(b []byte, q *pending, shard int) ([]byte, error) {
	o := objEnc{b: b}
	o.str(`{"key":`, q.key)
	if q.job != 0 {
		o.int(`,"job":`, q.job)
	}
	o.str(`,"class":`, q.class.String())
	o.int(`,"vms":`, q.vms)
	if q.nominalS != 0 {
		o.float(`,"nominal_s":`, q.nominalS)
	}
	if q.maxS != 0 {
		o.float(`,"max_s":`, q.maxS)
	}
	if q.requeue {
		o.yes(`,"requeue":`)
	}
	if shard != 0 {
		o.int(`,"shard":`, shard)
	}
	if q.requeue && q.slot != 0 {
		o.int(`,"slot":`, q.slot)
	}
	if q.requeue && q.vmID != 0 {
		o.int(`,"vm_id":`, q.vmID)
	}
	return append(o.b, '}'), o.err
}
