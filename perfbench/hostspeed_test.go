package main

import (
	"math"
	"testing"
	"time"
)

func TestHostSpeedScale(t *testing.T) {
	// One sample every 10 ms from t0: 100 µs for the first second (a host
	// twice as fast as the reference), then 400 µs (twice as slow).
	t0 := time.Unix(1000, 0)
	var smp []speedSample
	for i := 0; i < 200; i++ {
		cpu := 100e3
		if i >= 100 {
			cpu = 400e3
		}
		smp = append(smp, speedSample{at: t0.Add(time.Duration(i) * 10 * time.Millisecond).UnixNano(), cpu: cpu})
	}
	h := newHostSpeed(smp)
	for _, c := range []struct {
		a, b time.Duration
		want float64
	}{
		{0, 500 * time.Millisecond, 2},                                 // fast half: 200/100
		{1200 * time.Millisecond, 1800 * time.Millisecond, 0.5},        // slow half: 200/400
		{950 * time.Millisecond, 1040 * time.Millisecond, 200 / 250.0}, // widened to 10 samples, 5 of each
		{5 * time.Second, 6 * time.Second, 0.5},                        // past the end: the last 10 samples
	} {
		if got := h.scale(t0.Add(c.a), t0.Add(c.b)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("scale(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
