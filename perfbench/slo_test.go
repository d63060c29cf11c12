package main

import (
	"slices"
	"testing"
	"time"
)

// traceAt is a fixed latency trace: read p99 grows linearly with the
// offered rate, 1 ms per 100 req/s.
func traceAt(rate float64) stepStats {
	return stepStats{Rate: rate, Reads: 1000, ReadP99Ms: rate / 100}
}

func TestSearchSLOEndsOnSameStep(t *testing.T) {
	rates := ladder(100, 2, 8) // 100 … 12800
	lim := limits{ReadP99Ms: 10, WriteP99Ms: 50}
	for _, c := range []struct {
		known     int
		wantBest  int
		wantRates []float64
	}{
		{-1, 3, []float64{800, 3200, 1600}},
		{1, 3, []float64{1600, 400, 800}},
	} {
		for rep := 0; rep < 2; rep++ {
			best, probes := searchSLO(rates, c.known, lim, traceAt)
			var got []float64
			for _, p := range probes {
				got = append(got, p.Rate)
			}
			if best != c.wantBest || !slices.Equal(got, c.wantRates) {
				t.Errorf("known %d: best %d probes %v, want %d %v", c.known, best, got, c.wantBest, c.wantRates)
			}
		}
	}
}

func TestLimitsRejectFailuresWritesAndBacklog(t *testing.T) {
	lim := limits{ReadP99Ms: 10, WriteP99Ms: 50}
	ok := stepStats{Reads: 10, ReadP99Ms: 9, Writes: 5, WriteP99Ms: 40, BacklogMs: 1}
	if !lim.meets(ok) {
		t.Fatal("a step within every limit must pass")
	}
	for name, s := range map[string]stepStats{
		"failure": {Reads: 10, ReadP99Ms: 1, Failed: 1},
		"write":   {Reads: 10, ReadP99Ms: 1, Writes: 5, WriteP99Ms: 51},
		"read":    {Reads: 10, ReadP99Ms: 11},
		"backlog": {Reads: 10, ReadP99Ms: 1, BacklogMs: 11},
	} {
		if lim.meets(s) {
			t.Errorf("%s step passed", name)
		}
	}
}

func TestRungAtOrBelow(t *testing.T) {
	rungs := ladder(250, ladderRatio, ladderRungs)
	if i := rungAtOrBelow(rungs, 1600); rungs[i] > 1600 || rungs[i+1] <= 1600 || i != 10 {
		t.Errorf("rungAtOrBelow(1600) = %d (%v)", i, rungs[i])
	}
}

func TestSummarizeScalesMedians(t *testing.T) {
	var out []outcome
	for i := 1; i <= 5; i++ {
		out = append(out, outcome{Kind: opNeighbors, Latency: time.Duration(i) * time.Millisecond, Scale: 0.5})
	}
	out = append(out, outcome{Kind: opRating, Latency: 8 * time.Millisecond, Scale: 2})
	s := summarize(100, out)
	if s.ReadP50Ms != 1.5 || s.ReadP50RawMs != 3 || s.ReadP99Ms != 5 {
		t.Errorf("reads: p50 %v raw %v p99 %v, want 1.5, 3, 5", s.ReadP50Ms, s.ReadP50RawMs, s.ReadP99Ms)
	}
	if s.WriteP50Ms != 16 || s.WriteP50RawMs != 8 {
		t.Errorf("writes: p50 %v raw %v, want 16, 8", s.WriteP50Ms, s.WriteP50RawMs)
	}
}
