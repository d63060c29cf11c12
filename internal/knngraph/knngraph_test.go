package knngraph

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"kiff/internal/knnheap"
)

func TestFromSetSortedAndComplete(t *testing.T) {
	s := knnheap.NewSet(4, 3)
	s.Update(0, 1, 0.5)
	s.Update(0, 2, 0.9)
	s.Update(0, 3, 0.7)
	s.Update(1, 0, 0.4)
	g := FromSet(s)
	if g.K() != 3 || g.NumUsers() != 4 {
		t.Fatalf("graph shape: k=%d users=%d", g.K(), g.NumUsers())
	}
	l0 := g.Neighbors(0)
	if l0[0].ID != 2 || l0[1].ID != 3 || l0[2].ID != 1 {
		t.Errorf("neighbors(0) = %v, want [2 3 1] by sim desc", l0)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	// Three-user graphs, so IDs 1 and 2 are in range and each case trips
	// only the invariant it names.
	rows := func(first ...Neighbor) [][]Neighbor { return [][]Neighbor{first, nil, nil} }
	bad := []*Graph{
		New(1, rows(Neighbor{ID: 0, Sim: 1})),                              // self loop
		New(2, rows(Neighbor{ID: 1, Sim: 1}, Neighbor{ID: 1, Sim: 1})),     // dup
		New(1, rows(Neighbor{ID: 1, Sim: 1}, Neighbor{ID: 2, Sim: 0})),     // > k
		New(2, rows(Neighbor{ID: 1, Sim: 0.1}, Neighbor{ID: 2, Sim: 0.9})), // unsorted
		New(2, rows(Neighbor{ID: 2, Sim: 0.5}, Neighbor{ID: 1, Sim: 0.5})), // tie order
		New(2, rows(Neighbor{ID: 3, Sim: 0.5})),                            // out of range
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid graph", i)
		}
	}
}

func TestWrite(t *testing.T) {
	g := New(1, [][]Neighbor{{{ID: 1, Sim: 0.25}}, {{ID: 0, Sim: 0.25}}})
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "0 1 0.25") || !strings.Contains(out, "1 0 0.25") {
		t.Errorf("Write output missing edges:\n%s", out)
	}
}

func nb(id uint32, sim float64) Neighbor { return Neighbor{ID: id, Sim: sim} }

func TestBuildExactThresholds(t *testing.T) {
	e := BuildExact(2, nil, [][]Neighbor{
		{nb(1, 0.9), nb(2, 0.5), nb(3, 0.5)},
		{nb(2, 0.4)}, // fewer than k candidates
	})
	if e.Thresholds[0] != 0.5 || e.AboveCounts[0] != 1 {
		t.Errorf("user 0: theta=%v above=%d, want 0.5/1", e.Thresholds[0], e.AboveCounts[0])
	}
	if e.Thresholds[1] != -1 || e.AboveCounts[1] != 0 {
		t.Errorf("user 1: theta=%v above=%d, want -1/0", e.Thresholds[1], e.AboveCounts[1])
	}
}

func TestRecallUserTieAware(t *testing.T) {
	// Exact candidates: A=0.9, B=0.5, C=0.5 with k=2 → theta=0.5, above=1.
	e := BuildExact(2, nil, [][]Neighbor{{nb(10, 0.9), nb(11, 0.5), nb(12, 0.5)}})

	cases := []struct {
		name   string
		approx []Neighbor
		want   float64
	}{
		{"perfect", []Neighbor{nb(10, 0.9), nb(11, 0.5)}, 1},
		{"tie-swapped", []Neighbor{nb(10, 0.9), nb(12, 0.5)}, 1},
		{"missing-top", []Neighbor{nb(11, 0.5), nb(12, 0.5)}, 0.5}, // only 1 tie slot
		{"one-hit", []Neighbor{nb(10, 0.9), nb(99, 0.1)}, 0.5},
		{"all-miss", []Neighbor{nb(98, 0.1), nb(99, 0.0)}, 0},
		{"empty", nil, 0},
	}
	for _, c := range cases {
		if got := e.RecallUser(0, c.approx); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: recall = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecallUserNoTies(t *testing.T) {
	e := BuildExact(2, nil, [][]Neighbor{{nb(1, 0.9), nb(2, 0.8), nb(3, 0.1)}})
	if got := e.RecallUser(0, []Neighbor{nb(1, 0.9), nb(2, 0.8)}); got != 1 {
		t.Errorf("recall = %v, want 1", got)
	}
	if got := e.RecallUser(0, []Neighbor{nb(1, 0.9), nb(3, 0.1)}); got != 0.5 {
		t.Errorf("recall = %v, want 0.5", got)
	}
}

func TestRecallUserSmallCandidatePool(t *testing.T) {
	// threshold −1: every approximate neighbor counts, denominator stays k.
	e := BuildExact(3, nil, [][]Neighbor{{nb(1, 0.0)}})
	got := e.RecallUser(0, []Neighbor{nb(1, 0.0)})
	if math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("recall = %v, want 1/3", got)
	}
}

func TestRecallGraphAveragesUsers(t *testing.T) {
	e := BuildExact(1, nil, [][]Neighbor{
		{nb(1, 0.9)},
		{nb(0, 0.9)},
	})
	g := New(1, [][]Neighbor{
		{nb(1, 0.9)}, // hit
		{nb(9, 0.1)}, // miss
	})
	if got := e.Recall(g); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Recall = %v, want 0.5", got)
	}
}

func TestRecallSampledUsers(t *testing.T) {
	// Ground truth only for users 1 and 3.
	e := BuildExact(1, []uint32{1, 3}, [][]Neighbor{
		{nb(0, 0.9)},
		{nb(2, 0.8)},
	})
	g := New(1, [][]Neighbor{
		{nb(9, 0.0)}, // ignored: not sampled
		{nb(0, 0.9)}, // hit
		{nb(9, 0.0)}, // ignored
		{nb(5, 0.2)}, // miss
	})
	if got := e.Recall(g); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sampled Recall = %v, want 0.5", got)
	}
	if e.UserAt(0) != 1 || e.UserAt(1) != 3 {
		t.Error("UserAt must map sample positions to user IDs")
	}
}

func TestRecallEmptyExact(t *testing.T) {
	e := BuildExact(1, nil, nil)
	g := New(1, nil)
	if got := e.Recall(g); got != 0 {
		t.Errorf("Recall on empty ground truth = %v, want 0", got)
	}
}

func TestFromSetConcurrentSafe(t *testing.T) {
	// FromSet must be callable while updates continue (trace snapshots).
	// Users 0..99 take neighbors 100..196, all in range, none a self-loop.
	s := knnheap.NewSet(200, 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			s.Update(uint32(i%100), uint32(i%97+100), float64(i%13))
		}
	}()
	for i := 0; i < 20; i++ {
		g := FromSet(s)
		if err := g.Validate(); err != nil {
			t.Fatalf("snapshot %d invalid: %v", i, err)
		}
	}
	<-done
}

func TestReadRoundTrip(t *testing.T) {
	s := knnheap.NewSet(3, 2)
	s.Update(0, 1, 0.5)
	s.Update(0, 2, 0.75)
	s.Update(1, 0, 0.5)
	s.Update(2, 0, 0.75)
	orig := FromSet(s)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if back.NumUsers() != orig.NumUsers() {
		t.Fatalf("user count changed: %d vs %d", back.NumUsers(), orig.NumUsers())
	}
	for u := 0; u < orig.NumUsers(); u++ {
		a, b := orig.Neighbors(uint32(u)), back.Neighbors(uint32(u))
		if len(a) != len(b) {
			t.Fatalf("user %d: list sizes differ", u)
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Abs(a[i].Sim-b[i].Sim) > 1e-9 {
				t.Fatalf("user %d: %v vs %v", u, a, b)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"0 1\n",              // missing similarity
		"x 1 0.5\n",          // bad user
		"0 y 0.5\n",          // bad neighbor
		"0 1 zero\n",         // bad similarity
		"0 0 0.5\n",          // self loop (caught by Validate)
		"0 1 0.5\n0 1 0.5\n", // duplicate edge
	}
	for i, in := range bad {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: Read accepted %q", i, in)
		}
	}
}

func TestReadSkipsCommentsAndSizesUsers(t *testing.T) {
	in := "# header\n\n0 5 0.25\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// User space must cover the referenced neighbor 5.
	if g.NumUsers() != 6 {
		t.Errorf("NumUsers = %d, want 6", g.NumUsers())
	}
	if g.K() != 1 {
		t.Errorf("K inferred = %d, want 1", g.K())
	}
}
