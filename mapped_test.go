package kiff

import (
	"math"
	"path/filepath"
	"testing"

	"kiff/internal/knngraph"
)

// saveFixture builds a small graph+dataset pair and saves both, returning
// the paths and the in-memory originals.
func saveFixture(t *testing.T, k int) (gpath, dpath string, d *Dataset, g *Graph) {
	t.Helper()
	d, err := GeneratePreset("wikipedia", 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(d, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gpath = filepath.Join(dir, "graph.kfg")
	dpath = filepath.Join(dir, "data.kfd")
	if err := SaveGraph(gpath, res.Graph); err != nil {
		t.Fatal(err)
	}
	if err := SaveDataset(dpath, d); err != nil {
		t.Fatal(err)
	}
	return gpath, dpath, d, res.Graph
}

// requireSameGraph asserts two graphs agree edge-for-edge with
// bit-identical similarities.
func requireSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.K() != got.K() || want.NumUsers() != got.NumUsers() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("graph shape differs: k=%d/%d users=%d/%d edges=%d/%d",
			want.K(), got.K(), want.NumUsers(), got.NumUsers(), want.NumEdges(), got.NumEdges())
	}
	for u := 0; u < want.NumUsers(); u++ {
		a, b := want.Neighbors(uint32(u)), got.Neighbors(uint32(u))
		if len(a) != len(b) {
			t.Fatalf("user %d: %d vs %d neighbors", u, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Float64bits(a[i].Sim) != math.Float64bits(b[i].Sim) {
				t.Fatalf("user %d neighbor %d: %v vs %v", u, i, a[i], b[i])
			}
		}
	}
}

// TestMappedLoadBitIdentical is the facade-level guarantee of the mmap
// path: a mapped graph/dataset pair answers exactly like the heap-loaded
// pair — same neighbor lists, same recall, same query results.
func TestMappedLoadBitIdentical(t *testing.T) {
	gpath, dpath, d, g := saveFixture(t, 8)

	mg, err := LoadGraphMapped(gpath)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	md, err := LoadDatasetMapped(dpath)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()

	hg, err := LoadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := LoadDataset(dpath)
	if err != nil {
		t.Fatal(err)
	}

	requireSameGraph(t, g, mg.Graph())
	requireSameGraph(t, hg, mg.Graph())

	opts := Options{K: 8}
	want, err := Recall(d, g, opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Recall(md.Dataset(), mg.Graph(), opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("mapped recall = %v, in-memory = %v (must be exactly equal)", got, want)
	}

	// Queries through a static snapshot over the mapped pair must match
	// the heap-loaded pair bit for bit.
	ms, err := NewSnapshot(mg.Graph(), md.Dataset(), opts)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewSnapshot(hg, hd, opts)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		profile := hd.Users[u]
		a, err := ms.Query(profile, 5, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hs.Query(profile, 5, 40)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", u, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Float64bits(a[i].Sim) != math.Float64bits(b[i].Sim) {
				t.Fatalf("query %d result %d: %v vs %v", u, i, a[i], b[i])
			}
		}
	}
}

// TestNewMaintainerFromGraph: wrapping a loaded checkpoint must reproduce
// the saved graph exactly and leave the maintainer fully operational.
func TestNewMaintainerFromGraph(t *testing.T) {
	gpath, dpath, _, g := saveFixture(t, 8)

	mg, err := LoadGraphMapped(gpath)
	if err != nil {
		t.Fatal(err)
	}
	md, err := LoadDatasetMapped(dpath)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()

	m, err := NewMaintainerFromGraph(md.Dataset(), mg.Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seeding only reads the graph; after construction the mapping can go.
	if err := mg.Close(); err != nil {
		t.Fatal(err)
	}

	s := m.Snapshot()
	if s.Version() != 1 || s.K() != 8 {
		t.Fatalf("first snapshot version=%d k=%d", s.Version(), s.K())
	}
	requireSameGraph(t, g, s.Graph())

	// The maintainer accepts mutations: insert a user, record a rating,
	// rebuild — each publishing consistent snapshots.
	id, err := m.Insert(md.Dataset().Users[3].Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddRating(id, 42, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	s2 := m.Snapshot()
	if s2.NumUsers() != g.NumUsers()+1 {
		t.Fatalf("snapshot has %d users, want %d", s2.NumUsers(), g.NumUsers()+1)
	}
	if err := s2.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s2.Neighbors(id)) == 0 {
		t.Fatal("inserted user has no neighbors")
	}

	// Shape mismatches are rejected up front.
	if _, err := NewMaintainerFromGraph(md.Dataset(), g, Options{K: 5}); err == nil {
		t.Fatal("k mismatch accepted")
	}
	small, err := GeneratePreset("wikipedia", 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaintainerFromGraph(small, g, Options{}); err == nil {
		t.Fatal("user-count mismatch accepted")
	}
}

// TestWarmStartBulkSeed pins the bulk warm start: over a mapped graph
// with short and empty rows, the first snapshot equals the input edge
// for edge and stays readable after the mapping is closed, the seeded
// heaps hold exactly the input rows, and the maintainer keeps working.
func TestWarmStartBulkSeed(t *testing.T) {
	const k = 6
	d := synthWALDataset(t, 21, 50, 120)
	// Users on items nobody else rates have no neighbors at all.
	for i := 0; i < 3; i++ {
		if _, err := d.AddUser(ProfileFromMap(map[uint32]float64{uint32(200 + i): 1}, false)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Build(d, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	short, empty := 0, 0
	for u := 0; u < g.NumUsers(); u++ {
		switch n := len(g.Neighbors(uint32(u))); {
		case n == 0:
			empty++
		case n < k:
			short++
		}
	}
	if short == 0 || empty == 0 {
		t.Fatalf("fixture has %d short and %d empty rows; want both", short, empty)
	}
	dir := t.TempDir()
	gpath, dpath := filepath.Join(dir, "graph.kfg"), filepath.Join(dir, "data.kfd")
	if err := SaveGraph(gpath, g); err != nil {
		t.Fatal(err)
	}
	if err := SaveDataset(dpath, d); err != nil {
		t.Fatal(err)
	}
	mg, err := LoadGraphMapped(gpath)
	if err != nil {
		t.Fatal(err)
	}
	md, err := LoadDatasetMapped(dpath)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()
	if _, err := NewMaintainerFromGraph(md.Dataset(), mg.Graph(), Options{K: k + 1}); err == nil {
		t.Fatal("k mismatch accepted")
	}
	m, err := NewMaintainerFromGraph(md.Dataset(), mg.Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.Close(); err != nil {
		t.Fatal(err)
	}
	first := m.Snapshot()
	requireSameGraph(t, g, first.Graph())
	requireSameGraph(t, g, m.Graph()) // the seeded heaps themselves

	// Mutations patch from the heap copy; the pinned first snapshot
	// stays intact, and the new one agrees with the heaps.
	if err := m.AddRating(0, 7, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, g, first.Graph())
	requireSameGraph(t, m.Graph(), m.Snapshot().Graph())
}

// TestWarmStartRejectsInvalidRows: NewMaintainerFromGraph refuses a graph
// whose rows break the invariants the bulk seed relies on, instead of
// repairing them.
func TestWarmStartRejectsInvalidRows(t *testing.T) {
	d := synthWALDataset(t, 4, 3, 10)
	nb := func(id uint32, sim float64) Neighbor { return Neighbor{ID: id, Sim: sim} }
	cases := map[string][]Neighbor{
		"out of range": {nb(3, 0.5)},
		"self-loop":    {nb(0, 0.5)},
		"duplicate":    {nb(1, 0.5), nb(1, 0.4)},
		"unsorted":     {nb(1, 0.4), nb(2, 0.5)},
		"tie order":    {nb(2, 0.5), nb(1, 0.5)},
		"over k":       {nb(1, 0.5), nb(2, 0.4)},
	}
	for name, row := range cases {
		k := 2
		if name == "over k" {
			k = 1
		}
		g := knngraph.New(k, [][]Neighbor{row, {nb(0, 0.5)}, nil})
		if _, err := NewMaintainerFromGraph(d, g, Options{}); err == nil {
			t.Errorf("%s: row %v accepted", name, row)
		}
	}
}

// TestNewSnapshotRejectsMismatch: static snapshots refuse a graph saved
// from a different dataset rather than mis-serving it.
func TestNewSnapshotRejectsMismatch(t *testing.T) {
	_, _, d, g := saveFixture(t, 8)
	small, err := GeneratePreset("wikipedia", 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSnapshot(g, small, Options{}); err == nil {
		t.Fatal("mismatched snapshot accepted")
	}
	if _, err := NewSnapshot(g, d, Options{Metric: "no-such-metric"}); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
