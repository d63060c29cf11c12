package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus the union of its direct
// children's intervals, clipped to the span; grandchildren count only
// against their own parent.
func TestSelfTimesOnSyntheticTree(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
		{ID: 6, Start: 200, End: 260}, // a root with no children
	}
	want := map[int64]time.Duration{1: 50, 2: 15, 3: 30, 4: 30, 5: 5, 6: 60}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, got[id], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	now := time.Now()
	if id := tr.add(0, 1, "x", now, now); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	if err := tr.flush("unused"); err != nil {
		t.Errorf("nil tracer flush: %v", err)
	}
}
