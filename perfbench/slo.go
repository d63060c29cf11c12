package main

import (
	"math"
	"time"
)

// limits are the latency limits a rate step must meet.
type limits struct {
	ReadP99Ms  float64 `json:"read_p99_ms"`
	WriteP99Ms float64 `json:"write_p99_ms"`
}

var sloLimits = limits{ReadP99Ms: 10, WriteP99Ms: 50}

// stepStats summarizes one rate step (a phase or a ladder probe).
//
// The medians are in reference milliseconds (see hostspeed.go): each
// request's latency is scaled by the host speed sampled within
// scaleWindow of its due time, so a host that slows down for a while does
// not read as a slower program. The Raw medians and the p99s are as
// measured.
type stepStats struct {
	Rate          float64 `json:"rate"`
	Reads         int     `json:"reads"`
	Writes        int     `json:"writes"`
	Failed        int     `json:"failed"`
	ReadP50Ms     float64 `json:"read_p50_ms"`
	ReadP50RawMs  float64 `json:"read_p50_raw_ms"`
	ReadP99Ms     float64 `json:"read_p99_ms"`
	WriteP50Ms    float64 `json:"write_p50_ms"`
	WriteP50RawMs float64 `json:"write_p50_raw_ms"`
	WriteP99Ms    float64 `json:"write_p99_ms"`
	// LagP99Ms is the p99 of generator overshoot (see outcome).
	LagP99Ms float64 `json:"lag_p99_ms"`
	// BacklogMs is the median send lag over the step's last tenth:
	// above the read limit, the backlog was growing.
	BacklogMs float64 `json:"backlog_ms"`
}

// scaleWindow is the interval around a request's due time whose host
// speed samples scale its latency.
const scaleWindow = 500 * time.Millisecond

// summarize computes a step's figures from its outcomes in send order.
func summarize(rate float64, out []outcome) stepStats {
	s := stepStats{Rate: rate}
	var reads, writes, readsRef, writesRef, overshoot, backlog latencies
	for i, o := range out {
		if o.Err != nil {
			s.Failed++
		}
		ref := time.Duration(float64(o.Latency) * o.Scale)
		switch {
		case o.Kind.isRead():
			reads, readsRef = append(reads, o.Latency), append(readsRef, ref)
		case o.Kind.isWrite():
			writes, writesRef = append(writes, o.Latency), append(writesRef, ref)
		}
		overshoot = append(overshoot, o.Overshoot)
		if i >= len(out)-len(out)/10 {
			backlog = append(backlog, o.Lag)
		}
	}
	s.Reads, s.Writes = len(reads), len(writes)
	s.ReadP50Ms, s.ReadP50RawMs, s.ReadP99Ms = readsRef.pct(50), reads.pct(50), reads.pct(99)
	s.WriteP50Ms, s.WriteP50RawMs, s.WriteP99Ms = writesRef.pct(50), writes.pct(50), writes.pct(99)
	s.LagP99Ms = overshoot.pct(99)
	s.BacklogMs = backlog.pct(50)
	return s
}

// meets reports whether a step met the limits: no failed request, read
// and write p99 within their limits, and no growing backlog.
func (l limits) meets(s stepStats) bool {
	return s.Failed == 0 &&
		s.ReadP99Ms <= l.ReadP99Ms &&
		(s.Writes == 0 || s.WriteP99Ms <= l.WriteP99Ms) &&
		s.BacklogMs <= l.ReadP99Ms
}

// ladder returns n offered rates from lo upward, each a fixed ratio
// above the previous one.
func ladder(lo, ratio float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i))
	}
	return out
}

// searchSLO finds the highest rung of rates whose probe meets l, by
// bisection between known is a passing rung (−1 for none) and the top
// of the ladder, assuming a rate above a failing one fails too. It
// returns the index of that rung (−1 if none) and every probe in order.
func searchSLO(rates []float64, known int, l limits, probe func(rate float64) stepStats) (int, []stepStats) {
	lo, hi := known, len(rates)
	var probes []stepStats
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		s := probe(rates[mid])
		probes = append(probes, s)
		if l.meets(s) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// probeLength is the duration of one ladder probe; a probe whose sends
// fall probeAbortLag behind has failed and stops early.
const (
	probeLength   = time.Second
	probeAbortLag = 100 * time.Millisecond
)
