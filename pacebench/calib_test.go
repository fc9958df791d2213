package main

import (
	"runtime"
	"testing"
)

func TestCalibratorKeepsOffTheGoHeap(t *testing.T) {
	runtime.GC()
	before := heapBytes()
	c, err := newCalibrator(calibRefReplayMs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	runtime.GC()
	// The 16 MB cycle and the heap live in their own mapping, so the
	// heap metrics and the collector's pacing do not see them.
	if grew := int64(heapBytes()) - int64(before); grew > 1<<20 {
		t.Fatalf("Go heap grew by %d bytes", grew)
	}
	for i := 0; i < 3; i++ {
		c.measure()
	}
	if len(c.samples) != 3 {
		t.Fatalf("%d samples, want 3", len(c.samples))
	}
	for _, ms := range c.samples {
		if ms <= 0 {
			t.Fatalf("kernel took %v ms", ms)
		}
	}
	if got, want := c.scale(), calibRefReplayMs/c.medianMs(); got != want {
		t.Fatalf("scale %v, want %v", got, want)
	}
}

func TestCalibrationCycleVisitsEverySlot(t *testing.T) {
	c, err := newCalibrator(calibRefBlockMs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	// Sattolo's shuffle yields one cycle through all slots: the chase
	// returns to its start only after visiting every slot.
	p, n := c.chase[0], 1
	for ; p != 0; n++ {
		p = c.chase[p]
	}
	if n != calibChaseSlots {
		t.Fatalf("cycle of %d slots, want %d", n, calibChaseSlots)
	}
}
