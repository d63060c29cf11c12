package rcs

import (
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/sparse"
)

// TestCandidatesForMatchesBatchBuild pins the incremental primitive to
// the batch counting phase: for any user, CandidatesFor must equal the
// unpivoted batch-built list (same members, same rank order).
func TestCandidatesForMatchesBatchBuild(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 41)
	if err != nil {
		t.Fatal(err)
	}
	batch := Build(d, BuildOptions{NoPivot: true})
	// One counter reused across users, as the Maintainer reuses its own.
	var c Counter
	for u := 0; u < d.NumUsers(); u += 7 { // sample users, keep the test fast
		got := CandidatesFor(d, uint32(u), BuildOptions{}, &c)
		want := batch.List(uint32(u))
		if len(got) != len(want) {
			t.Fatalf("user %d: %d candidates, batch has %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("user %d: candidate %d is %d, batch has %d", u, i, got[i], want[i])
			}
		}
	}
}

func TestCandidatesForHonorsMinRating(t *testing.T) {
	d, err := dataset.Gowalla.Generate(0.002, 42) // weighted
	if err != nil {
		t.Fatal(err)
	}
	batch := Build(d, BuildOptions{NoPivot: true, MinRating: 3})
	for u := 0; u < d.NumUsers(); u += 11 {
		got := CandidatesFor(d, uint32(u), BuildOptions{MinRating: 3}, nil)
		want := batch.List(uint32(u))
		if len(got) != len(want) {
			t.Fatalf("user %d: %d candidates, batch has %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("user %d: candidate %d differs", u, i)
			}
		}
	}
}

func TestPatchUserAppendsAndReplaces(t *testing.T) {
	d, _, _ := dataset.Toy()
	d.EnsureItemProfiles()
	n := d.NumUsers()
	s := NewSets(n)
	if s.NumUsers() != n {
		t.Fatalf("NewSets size = %d, want %d", s.NumUsers(), n)
	}

	// Patch an existing user: list installed, cursor rewound, stats kept.
	s.PatchUser(d, 0, BuildOptions{}, nil)
	if s.Len(0) == 0 {
		t.Fatal("patched user has no candidates (Alice shares coffee with Bob)")
	}
	if got := s.TopPop(0, -1); len(got) == 0 || got[0] != 1 {
		t.Fatalf("TopPop after patch = %v, want Bob first", got)
	}
	if s.Remaining(0) != 0 {
		t.Error("TopPop(-1) must exhaust the patched list")
	}
	// Re-patching rewinds the cursor and keeps totals consistent.
	before := s.BuildStats.TotalCandidates
	s.PatchUser(d, 0, BuildOptions{}, nil)
	if s.BuildStats.TotalCandidates != before {
		t.Errorf("re-patch changed TotalCandidates: %d vs %d", s.BuildStats.TotalCandidates, before)
	}
	if s.Remaining(0) != s.Len(0) {
		t.Error("re-patch must rewind the cursor")
	}

	// Appending a new user: add to the dataset, then patch the new slot.
	id, err := d.AddUser(sparse.Vector{IDs: []uint32{1}}) // coffee
	if err != nil {
		t.Fatal(err)
	}
	s.PatchUser(d, id, BuildOptions{}, nil)
	if s.NumUsers() != n+1 {
		t.Fatalf("NumUsers after append-patch = %d, want %d", s.NumUsers(), n+1)
	}
	got := s.List(id)
	if len(got) != 2 { // Alice and Bob both have coffee
		t.Fatalf("new user's candidates = %v, want Alice and Bob", got)
	}

	// Patching beyond the next slot is a programming error.
	defer func() {
		if recover() == nil {
			t.Error("PatchUser beyond NumUsers must panic")
		}
	}()
	s.PatchUser(d, id+2, BuildOptions{}, nil)
}

// TestPatchUserStatsStayConsistent recomputes the aggregate stats from
// scratch after a series of patches and compares.
func TestPatchUserStatsStayConsistent(t *testing.T) {
	d, err := dataset.Arxiv.Generate(0.005, 43)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSets(d.NumUsers())
	for u := 0; u < d.NumUsers(); u++ {
		s.PatchUser(d, uint32(u), BuildOptions{}, nil)
	}
	total := 0
	maxLen := 0
	for u := 0; u < d.NumUsers(); u++ {
		total += s.Len(uint32(u))
		if l := s.Len(uint32(u)); l > maxLen {
			maxLen = l
		}
	}
	if s.BuildStats.TotalCandidates != total {
		t.Errorf("TotalCandidates = %d, recomputed %d", s.BuildStats.TotalCandidates, total)
	}
	if s.BuildStats.MaxLen != maxLen {
		t.Errorf("MaxLen = %d, recomputed %d", s.BuildStats.MaxLen, maxLen)
	}
	if want := float64(total) / float64(d.NumUsers()); s.BuildStats.AvgLen != want {
		t.Errorf("AvgLen = %v, recomputed %v", s.BuildStats.AvgLen, want)
	}
}
