package rcs

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRankKeyMatchesCompareRanked pins the packed-key sort to the
// canonical comparator: ascending rankKey order must equal CompareRanked
// order for every (count, id) pair, and the count/id must round-trip.
func TestRankKeyMatchesCompareRanked(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	type cand struct {
		count int32
		id    uint32
	}
	cands := make([]cand, 300)
	for i := range cands {
		cands[i] = cand{count: int32(1 + r.Intn(1<<20)), id: uint32(r.Intn(1 << 24))}
	}
	// A few extremes: count 1, huge counts, adjacent ids with equal counts.
	cands = append(cands,
		cand{1, 0}, cand{1, 1}, cand{1 << 30, 0}, cand{1 << 30, 7},
		cand{5, 100}, cand{5, 101}, cand{5, 99})

	byCompare := slices.Clone(cands)
	slices.SortFunc(byCompare, func(a, b cand) int {
		return CompareRanked(a.count, b.count, a.id, b.id)
	})
	byKey := slices.Clone(cands)
	slices.SortFunc(byKey, func(a, b cand) int {
		ka, kb := rankKey(a.count, a.id), rankKey(b.count, b.id)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	for i := range byCompare {
		if byCompare[i] != byKey[i] {
			t.Fatalf("order diverges at %d: CompareRanked gives %+v, rankKey gives %+v",
				i, byCompare[i], byKey[i])
		}
	}
	for _, c := range cands {
		k := rankKey(c.count, c.id)
		if rankKeyUser(k) != c.id || rankKeyCount(k) != c.count {
			t.Fatalf("rankKey(%d, %d) does not round-trip: user %d count %d",
				c.count, c.id, rankKeyUser(k), rankKeyCount(k))
		}
	}
}

// TestCounterMatchesMapCount pins the epoch-stamped Counter to a plain
// map count over many reused epochs, a growing population and an epoch
// wrap-around: Touched must hold each counted user once, and Ranked must
// be the CompareRanked order, cut at the limit.
func TestCounterMatchesMapCount(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	var c Counter
	for round := 0; round < 200; round++ {
		if round == 100 {
			c.cur = ^uint32(0) // the next Begin wraps and hard-resets
		}
		n := 1 + round*3
		c.Begin(n)
		want := make(map[uint32]int32)
		for i := r.Intn(4 * n); i > 0; i-- {
			v := uint32(r.Intn(n))
			c.Add(v)
			want[v]++
		}
		if len(c.Touched()) != len(want) {
			t.Fatalf("round %d: %d touched, want %d", round, len(c.Touched()), len(want))
		}
		ref := make([]uint32, 0, len(want))
		for v := range want {
			ref = append(ref, v)
		}
		slices.SortFunc(ref, func(a, b uint32) int { return CompareRanked(want[a], want[b], a, b) })
		limit := r.Intn(len(ref)+2) - 1 // -1 (all) .. len(ref)
		if limit >= 0 && limit < len(ref) {
			ref = ref[:limit]
		}
		if got := c.Ranked(nil, limit); !slices.Equal(got, ref) {
			t.Fatalf("round %d, limit %d: Ranked = %v, want %v", round, limit, got, ref)
		}
	}
}
