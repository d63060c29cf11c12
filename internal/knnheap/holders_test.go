package knnheap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// requireHolders asserts the holder index equals the brute-force in-edge
// multiset: holders[v] lists exactly the users whose heaps hold v, each
// once.
func requireHolders(t *testing.T, s *Set, step int, op string) {
	t.Helper()
	if len(s.holders) != s.Len() {
		t.Fatalf("step %d (%s): index covers %d users, set has %d", step, op, len(s.holders), s.Len())
	}
	want := make([][]uint32, s.Len())
	for u := range s.heaps {
		for _, e := range s.heaps[u].entries {
			want[e.ID] = append(want[e.ID], uint32(u))
		}
	}
	for v := range want {
		got := slices.Sorted(slices.Values(s.holders[v]))
		if !slices.Equal(got, want[v]) {
			t.Fatalf("step %d (%s): holders[%d] = %v, want %v", step, op, v, got, want[v])
		}
	}
}

// randomRow draws a valid Seed row for u: up to k unique IDs other than
// u, best first.
func randomRow(r *rand.Rand, s *Set, u uint32) []Entry {
	n := s.Len()
	var row []Entry
	for _, id := range r.Perm(n)[:min(n, r.Intn(s.K()+2))] {
		if uint32(id) != u && len(row) < s.K() {
			row = append(row, Entry{ID: uint32(id), Sim: float64(r.Intn(5)) / 4, New: true})
		}
	}
	slices.SortFunc(row, func(a, b Entry) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	return row
}

// requireSameHeaps asserts that two sets hold the same heaps, entry for
// entry in the same layout.
func requireSameHeaps(t *testing.T, got, want *Set, step int, op string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d (%s): %d heaps, want %d", step, op, got.Len(), want.Len())
	}
	for u := range got.heaps {
		if !slices.Equal(got.heaps[u].entries, want.heaps[u].entries) {
			t.Fatalf("step %d (%s): heap %d = %v, want %v", step, op, u, got.heaps[u].entries, want.heaps[u].entries)
		}
	}
}

// scanEvict is the reference for Evict: a scan over every heap, removing
// the targets each holds in that heap's order.
func scanEvict(s *Set, targets []uint32) {
	for u := range s.heaps {
		for _, id := range s.IDs(nil, uint32(u)) {
			if slices.Contains(targets, id) {
				s.Remove(uint32(u), id)
			}
		}
	}
}

// TestHolderIndexProperty runs seeded random mutation streams with
// tracking on and checks the holder index against the brute-force
// in-edge multiset after every operation. An untracked twin receives the
// same operations, Evict replaced by a scan of every heap, and must hold
// the same heaps in the same layout throughout. Small ID ranges and
// coarse similarities force duplicates, ties and root replacements.
func TestHolderIndexProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, k := 2+r.Intn(12), 1+r.Intn(8)
		s, ref := NewSet(n, k), NewSet(n, k)
		// Some state before tracking starts, so the counted build pass
		// is exercised on non-empty heaps.
		for i := 0; i < r.Intn(30); i++ {
			u, v := uint32(r.Intn(s.Len())), uint32(r.Intn(s.Len()))
			if u != v {
				sim := float64(r.Intn(5)) / 4
				s.Update(u, v, sim)
				ref.Update(u, v, sim)
			}
		}
		if s.holders != nil {
			t.Fatalf("seed %d: index built before TrackDirty", seed)
		}
		s.TrackDirty()
		requireHolders(t, s, 0, "TrackDirty")
		for step := 1; step <= 300; step++ {
			u := uint32(r.Intn(s.Len()))
			var op string
			switch p := r.Intn(100); {
			case p < 50:
				op = "Update"
				if v := uint32(r.Intn(s.Len())); v != u {
					sim := float64(r.Intn(5)) / 4
					s.Update(u, v, sim)
					ref.Update(u, v, sim)
				}
			case p < 65:
				op = "Remove"
				id := uint32(r.Intn(s.Len()))
				if ids := s.IDs(nil, u); len(ids) > 0 && r.Intn(4) > 0 {
					id = ids[r.Intn(len(ids))]
				}
				s.Remove(u, id)
				ref.Remove(u, id)
			case p < 72:
				op = "Clear"
				s.Clear(u)
				ref.Clear(u)
			case p < 79:
				op = "Seed"
				row := randomRow(r, s, u)
				s.Seed(u, row)
				ref.Seed(u, row)
			case p < 90:
				op = "Evict"
				var targets []uint32
				for i := 0; i < 1+r.Intn(3); i++ {
					targets = append(targets, uint32(r.Intn(s.Len())))
				}
				slices.Sort(targets)
				targets = slices.Compact(targets)
				s.Evict(targets)
				scanEvict(ref, targets)
			case p < 95:
				op = "Grow"
				extra := r.Intn(3)
				s.Grow(extra)
				ref.Grow(extra)
			default:
				op = "DrainDirty"
				s.DrainDirty(nil)
			}
			requireHolders(t, s, step, op)
			requireSameHeaps(t, s, ref, step, op)
		}
	}
}

// TestEvictHub evicts a hub held by every other heap of a star: every
// reference goes, the hub's index row empties, the other rows stay
// exact, and each holder is marked dirty.
func TestEvictHub(t *testing.T) {
	const n, k = 2000, 3
	s := NewSet(n, k)
	for u := uint32(1); u < n; u++ {
		s.Update(u, 0, 0.5)
		s.Update(u, 1+u%(n-1), float64(u%7)/8) // a second, non-hub neighbor
	}
	s.TrackDirty()
	s.Evict([]uint32{0})
	for u := uint32(1); u < n; u++ {
		if s.Contains(u, 0) {
			t.Fatalf("heap %d still holds the hub", u)
		}
		if s.Size(u) != 1 {
			t.Fatalf("heap %d has %d neighbors, want 1", u, s.Size(u))
		}
	}
	requireHolders(t, s, 0, "Evict")
	if dirty := s.DrainDirty(nil); len(dirty) != n-1 {
		t.Fatalf("%d heaps marked dirty, want %d", len(dirty), n-1)
	}
}

// TestHolderIndexAbsentWithoutTracking: the cold-build path never turns
// tracking on and must not pay for the index.
func TestHolderIndexAbsentWithoutTracking(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewSet(10, 3)
	for i := 0; i < 200; i++ {
		u, v := uint32(r.Intn(10)), uint32(r.Intn(10))
		if u != v {
			s.Update(u, v, r.Float64())
		}
		if i%17 == 0 {
			s.Remove(u, v)
			s.Clear(v)
			s.Seed(u, randomRow(r, s, u))
			s.Grow(1)
		}
	}
	if s.holders != nil {
		t.Fatal("untracked set holds a holder index")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Evict without TrackDirty did not panic")
		}
	}()
	s.Evict([]uint32{0})
}

// TestSeedMatchesUpdates: seeding a sorted row leaves the heap holding
// the same neighbors, with the same worst entry, as offering the row
// entry by entry — and a valid heap that later Updates keep correct.
func TestSeedMatchesUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		seeded, offered := NewSet(12, 4), NewSet(12, 4)
		u := uint32(r.Intn(12))
		row := randomRow(r, seeded, u)
		seeded.Seed(u, row)
		for _, e := range row {
			offered.Update(u, e.ID, e.Sim)
		}
		for i := 0; i < 10; i++ {
			v, sim := uint32(r.Intn(12)), float64(r.Intn(5))/4
			if v != u {
				seeded.Update(u, v, sim)
				offered.Update(u, v, sim)
			}
		}
		a, b := sortedNeighbors(seeded, u), sortedNeighbors(offered, u)
		if !slices.Equal(a, b) {
			t.Fatalf("trial %d: seeded %v, offered %v", trial, a, b)
		}
	}
}

// BenchmarkEvictHub times evicting a hub held by every heap of a star.
// Eviction is linear in the hub's in-degree, so ns per holder stays flat
// as the star grows.
func BenchmarkEvictHub(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("holders=%d", n), func(b *testing.B) {
			s := NewSet(n+1, 4)
			s.TrackDirty()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for u := uint32(1); u <= uint32(n); u++ {
					s.Update(u, 0, 0.5)
				}
				b.StartTimer()
				s.Evict([]uint32{0})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/holder")
		})
	}
}
