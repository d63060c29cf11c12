package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/rcs"
	"kiff/internal/runstats"
	"kiff/internal/shard"
	"kiff/internal/similarity"
	"kiff/internal/sparse"
)

// refQuery is the query path before it moved onto the build path's
// kernels — map counting, a comparator sort of every candidate, one
// pairwise merge per candidate through refEval and a full sort of the
// scored list — kept as the reference the kernel path must match bit for
// bit.
func refQuery(ix *Index, profile sparse.Vector, k, budget int) []knngraph.Neighbor {
	counts := make(map[uint32]int32)
	for _, it := range profile.IDs {
		if int(it) >= ix.d.NumItems() {
			continue
		}
		for _, v := range ix.d.Item(it) {
			counts[v]++
		}
	}
	cands := make([]uint32, 0, len(counts))
	for v := range counts {
		cands = append(cands, v)
	}
	slices.SortFunc(cands, func(a, b uint32) int {
		return rcs.CompareRanked(counts[a], counts[b], a, b)
	})
	if budget >= 0 && len(cands) > budget {
		cands = cands[:budget]
	}
	sims := make([]knngraph.Neighbor, 0, len(cands))
	for _, v := range cands {
		sims = append(sims, knngraph.Neighbor{ID: v, Sim: refEval(ix, profile, v)})
	}
	slices.SortFunc(sims, knngraph.CompareNeighbors)
	if len(sims) > k {
		sims = sims[:k]
	}
	return sims
}

// refEval merges an external profile against indexed user v under the
// index's metric, one pairwise formula per metric.
func refEval(ix *Index, profile sparse.Vector, v uint32) float64 {
	other := ix.d.User(v)
	switch ix.metric.(type) {
	case similarity.Cosine:
		nu, nv := sparse.Norm(profile), sparse.Norm(other)
		if nu == 0 || nv == 0 {
			return 0
		}
		return sparse.Dot(profile, other) / (nu * nv)
	case similarity.Jaccard:
		inter := sparse.CommonCount(profile, other)
		if inter == 0 {
			return 0
		}
		return float64(inter) / float64(profile.Len()+other.Len()-inter)
	case similarity.Dice:
		inter := sparse.CommonCount(profile, other)
		if inter == 0 {
			return 0
		}
		return 2 * float64(inter) / float64(profile.Len()+other.Len())
	case similarity.Overlap:
		return float64(sparse.CommonCount(profile, other))
	}
	// Adamic–Adar, weighted by the indexed dataset's item popularity.
	var s float64
	i, j := 0, 0
	for i < len(profile.IDs) && j < len(other.IDs) {
		a, b := profile.IDs[i], other.IDs[j]
		switch {
		case a == b:
			if int(a) < ix.d.NumItems() && len(ix.d.Item(a)) >= 2 {
				s += 1 / math.Log(float64(len(ix.d.Item(a))))
			}
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return s
}

// sameNeighbors reports whether got equals want entry for entry, with
// identical IDs and identical similarity bits.
func sameNeighbors(got, want []knngraph.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
			return false
		}
	}
	return true
}

// withRandomWeights returns a copy of d whose profiles carry ratings in
// 1..5 — few distinct values, so weighted scores still tie often.
func withRandomWeights(t testing.TB, d *dataset.Dataset, seed int64) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	users := make([]sparse.Vector, d.NumUsers())
	for u, p := range d.Users {
		w := make([]float64, p.Len())
		for i := range w {
			w[i] = float64(1 + r.Intn(5))
		}
		users[u] = sparse.Vector{IDs: slices.Clone(p.IDs), Weights: w}
	}
	wd, err := dataset.New(d.Name+"-weighted", users, d.NumItems())
	if err != nil {
		t.Fatal(err)
	}
	wd.EnsureItemProfiles()
	return wd
}

// queryProfiles draws query profiles over d's item space: indexed users'
// own profiles, random binary and weighted ones, ones holding IDs at or
// beyond NumItems (up to math.MaxUint32), and the empty profile.
func queryProfiles(r *rand.Rand, d *dataset.Dataset, n int) []sparse.Vector {
	out := []sparse.Vector{{}, {IDs: []uint32{math.MaxUint32}}}
	for i := 0; i < n; i++ {
		var p sparse.Vector
		switch i % 4 {
		case 0:
			p = d.Users[r.Intn(d.NumUsers())].Clone()
		default:
			m := make(map[uint32]float64)
			for j := 1 + r.Intn(12); j > 0; j-- {
				m[uint32(r.Intn(d.NumItems()))] = float64(1 + r.Intn(5))
			}
			p = sparse.FromMap(m, i%4 == 1)
		}
		if i%3 == 0 { // out-of-domain tail
			p.IDs = append(p.IDs, uint32(d.NumItems()), uint32(d.NumItems())+7, math.MaxUint32)
			if p.Weights != nil {
				p.Weights = append(p.Weights, 2, 3, 4)
			}
		}
		out = append(out, p)
	}
	return out
}

// candidateCount is the number of indexed users sharing an item with p.
func candidateCount(ix *Index, p sparse.Vector) int {
	return len(refQuery(ix, p, math.MaxInt, -1))
}

// TestQueryMatchesReference pins Query to refQuery: identical IDs and
// identical similarity bits for every metric, exact and budgeted (0, 1,
// below and above the candidate count), over a live dataset and a frozen
// view, binary and weighted, for k from 1 to 1<<30.
func TestQueryMatchesReference(t *testing.T) {
	wiki, err := dataset.Wikipedia.Generate(0.02, 61)
	if err != nil {
		t.Fatal(err)
	}
	wiki.EnsureItemProfiles()
	r := rand.New(rand.NewSource(62))
	for _, d := range []*dataset.Dataset{wiki, withRandomWeights(t, wiki, 63)} {
		profiles := queryProfiles(r, d, 24)
		for _, name := range similarity.Names() {
			metric, err := similarity.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, ix := range []*Index{NewIndex(d, metric), NewViewIndex(d.View(), metric)} {
				for pi, p := range profiles {
					n := candidateCount(ix, p)
					for _, budget := range []int{-1, 0, 1, n / 2, n + 5} {
						for _, k := range []int{1, 20, 1 << 30} {
							got, err := ix.Query(p, k, budget)
							if err != nil {
								t.Fatal(err)
							}
							if want := refQuery(ix, p, k, budget); !sameNeighbors(got, want) {
								t.Fatalf("%s %s, profile %d (%v), budget %d, k %d:\n got %v\nwant %v",
									d.Name, name, pi, p.IDs, budget, k, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestQueryBudgetZeroReturnsEmpty: budget 0 evaluates nothing and
// answers an empty, non-nil list (it encodes as [] on the wire).
func TestQueryBudgetZeroReturnsEmpty(t *testing.T) {
	d, _, _ := dataset.Toy()
	got, err := NewIndex(d, nil).Query(sparse.Vector{IDs: []uint32{1}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("budget 0 returned %#v, want an empty non-nil list", got)
	}
}

// TestQueryScratchBoundedByDomains pins the request's memory to
// O(NumUsers + NumItems + candidates): neither an item ID far beyond
// NumItems nor k = 1<<30 may size an allocation. It queries with a fresh
// scratch, so the pool cannot hide a one-time oversized allocation.
func TestQueryScratchBoundedByDomains(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.02, 64)
	if err != nil {
		t.Fatal(err)
	}
	d.EnsureItemProfiles()
	// Every domain-sized array the path may hold, at 16 bytes an entry
	// (8-byte counter cells, 4-byte stamps plus 8-byte weights) and twice
	// over for geometric growth, plus the candidate lists.
	bound := uint64(2*16*(d.NumUsers()+d.NumItems()) + 64*d.NumUsers() + 64<<10)
	far := uint32(d.NumItems()) + 1<<20 // would cost ≥ 12 MB if scattered
	for _, name := range similarity.Names() {
		metric, err := similarity.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(d, metric)
		for _, p := range []sparse.Vector{
			{IDs: []uint32{1, 2, far}},
			{IDs: []uint32{1, 2, far}, Weights: []float64{2, 3, 4}},
			{IDs: []uint32{0, 3, math.MaxUint32}},
		} {
			for _, k := range []int{20, 1 << 30} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got, err := ix.query(new(queryScratch), p, k, -1)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if want := refQuery(ix, p, k, -1); !sameNeighbors(got, want) {
					t.Fatalf("%s %v k %d: got %v, want %v", name, p.IDs, k, got, want)
				}
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
					t.Fatalf("%s %v k %d: allocated %d bytes, bound %d", name, p.IDs, k, alloc, bound)
				}
			}
		}
	}
}

// TestQueryConcurrentGrowingSnapshots runs readers against pinned views
// while a writer appends users and items and publishes each successor
// view with a fresh index, the way the Maintainer publishes snapshots.
// Pooled scratch is shared across every view, so it must grow for the
// newer ones and stay correct for the older; every answer must equal
// refQuery on its own view. Run under -race.
func TestQueryConcurrentGrowingSnapshots(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.02, 65)
	if err != nil {
		t.Fatal(err)
	}
	d.EnsureItemProfiles()
	metric := similarity.Cosine{}
	var cur atomic.Pointer[Index]
	cur.Store(NewViewIndex(d.View(), metric))
	first := cur.Load()
	const publications = 60
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(66))
		for i := 0; i < publications; i++ {
			// New users rate old items and items past the current
			// domain, so NumUsers and NumItems both grow.
			top := uint32(d.NumItems())
			p := sparse.Vector{IDs: []uint32{uint32(r.Intn(int(top))), top + uint32(r.Intn(40))}}
			if _, err := d.AddUser(p); err != nil {
				panic(err)
			}
			cur.Store(NewViewIndex(d.View(), metric))
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(67 + w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 50 {
						return
					}
				default:
				}
				ix := cur.Load()
				if i%3 == 0 {
					ix = first // an older, smaller view on the same pool
				}
				n := ix.d.NumItems() + 40
				p := sparse.Vector{IDs: []uint32{uint32(r.Intn(n)), uint32(n + r.Intn(5))}}
				budget := -1
				if i%2 == 1 {
					budget = 3
				}
				got, err := ix.Query(p, 5, budget)
				if err != nil {
					errs <- err
					return
				}
				if want := refQuery(ix, p, 5, budget); !sameNeighbors(got, want) {
					errs <- errors.New("concurrent answer differs from refQuery on its own view")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := cur.Load().d.NumUsers(); n != first.d.NumUsers()+publications {
		t.Fatalf("last view has %d users, want %d", n, first.d.NumUsers()+publications)
	}
}

// refShard is one shard of a read-only pool for TestShardedQueryMatchesReference:
// a dataset partition queried through a real Index over its view.
type refShard struct {
	d  *dataset.Dataset
	ix *Index
}

var errReadOnlyShard = errors.New("read-only test shard")

func (s *refShard) Version() uint64                      { return 1 }
func (s *refShard) NumUsers() int                        { return s.d.NumUsers() }
func (s *refShard) K() int                               { return 5 }
func (s *refShard) Neighbors(uint32) []knngraph.Neighbor { return nil }
func (s *refShard) Query(p sparse.Vector, k, budget int) ([]knngraph.Neighbor, error) {
	return s.ix.Query(p, k, budget)
}
func (s *refShard) Profile(u uint32) (sparse.Vector, bool) {
	if int(u) >= s.d.NumUsers() {
		return sparse.Vector{}, false
	}
	return s.d.Users[u], true
}
func (s *refShard) InsertBatch([]sparse.Vector) ([]uint32, error) { return nil, errReadOnlyShard }
func (s *refShard) AddRating(uint32, uint32, float64) error       { return errReadOnlyShard }
func (s *refShard) Rebuild([]uint32) error                        { return errReadOnlyShard }
func (s *refShard) Reader() shard.Reader                          { return s }
func (s *refShard) Graph() *knngraph.Graph                        { return nil }
func (s *refShard) Dataset() *dataset.Dataset                     { return s.d }
func (s *refShard) Counters() runstats.Counters                   { return runstats.Counters{} }

// TestShardedQueryMatchesReference pins a 4-shard scatter-gather Query
// to the splice of per-shard refQuery answers: relabel each shard's list
// to global IDs, concatenate, sort, keep k. Adamic–Adar is included: it
// is shard-approximate (each shard weighs items by its own popularity),
// and that approximation must not change either.
func TestShardedQueryMatchesReference(t *testing.T) {
	const shards = 4
	d, err := dataset.Wikipedia.Generate(0.02, 68)
	if err != nil {
		t.Fatal(err)
	}
	d = withRandomWeights(t, d, 69)
	parts := make([][]sparse.Vector, shards)
	global := make([][]uint32, shards)
	for g, p := range d.Users {
		s := shard.Owner(uint32(g), shards)
		parts[s] = append(parts[s], p)
		global[s] = append(global[s], uint32(g))
	}
	r := rand.New(rand.NewSource(70))
	profiles := queryProfiles(r, d, 24)
	for _, name := range similarity.Names() {
		metric, err := similarity.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]shard.Maintainer, shards)
		refs := make([]*Index, shards)
		for s := range ms {
			sd, err := dataset.New("part", parts[s], d.NumItems())
			if err != nil {
				t.Fatal(err)
			}
			refs[s] = NewViewIndex(sd.View(), metric)
			ms[s] = &refShard{d: sd, ix: refs[s]}
		}
		pool, err := shard.NewPool(ms, d.NumUsers())
		if err != nil {
			t.Fatal(err)
		}
		view := pool.View()
		for pi, p := range profiles {
			for _, budget := range []int{-1, 0, 1, 4} {
				for _, k := range []int{1, 20, 1 << 30} {
					got, err := view.Query(p, k, budget)
					if err != nil {
						t.Fatal(err)
					}
					var want []knngraph.Neighbor
					for s, ix := range refs {
						for _, nb := range refQuery(ix, p, k, budget) {
							want = append(want, knngraph.Neighbor{ID: global[s][nb.ID], Sim: nb.Sim})
						}
					}
					slices.SortFunc(want, knngraph.CompareNeighbors)
					if len(want) > k {
						want = want[:k]
					}
					if !sameNeighbors(got, want) {
						t.Fatalf("%s profile %d, budget %d, k %d:\n got %v\nwant %v", name, pi, budget, k, got, want)
					}
				}
			}
		}
	}
}

func TestQueryToyExample(t *testing.T) {
	d, _, _ := dataset.Toy()
	ix := NewIndex(d, nil)
	// A query that likes coffee and cheese is most similar to Bob (who has
	// exactly that profile), then Alice (shares coffee).
	got, err := ix.Query(sparse.Vector{IDs: []uint32{1, 2}}, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 0 {
		t.Fatalf("Query = %v, want [Bob Alice]", got)
	}
	if math.Abs(got[0].Sim-1) > 1e-12 {
		t.Errorf("Bob similarity = %v, want 1", got[0].Sim)
	}
}

func TestQueryRejectsBadInputs(t *testing.T) {
	d, _, _ := dataset.Toy()
	ix := NewIndex(d, nil)
	if _, err := ix.Query(sparse.Vector{IDs: []uint32{0}}, 0, -1); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, err := ix.Query(sparse.Vector{IDs: []uint32{2, 1}}, 1, -1); err == nil {
		t.Error("unsorted profile must be rejected")
	}
}

func TestQueryIgnoresOutOfRangeItems(t *testing.T) {
	d, _, _ := dataset.Toy()
	ix := NewIndex(d, nil)
	got, err := ix.Query(sparse.Vector{IDs: []uint32{1, 999}}, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Query = %v, want one coffee lover", got)
	}
}

func TestQueryDisjointProfileFindsNothing(t *testing.T) {
	d, _, _ := dataset.Toy()
	ix := NewIndex(d, nil)
	got, err := ix.Query(sparse.Vector{IDs: []uint32{999}}, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("disjoint query returned %v", got)
	}
}

// TestQueryUnlimitedBudgetIsExact: querying with an existing user's own
// profile must reproduce that user's exact KNN (plus the user itself at
// similarity 1 in front).
func TestQueryUnlimitedBudgetIsExact(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.015, 51)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range similarity.Names() {
		metric, err := similarity.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(d, metric)
		sim := metric.Prepare(d)
		for _, u := range []uint32{0, 7, 42} {
			got, err := ix.Query(d.Users[u], 5, -1)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: rank all other users by (sim desc, id asc); the
			// query profile equals user u's, so u itself appears with
			// self-similarity — drop it from the reference comparison by
			// including u and comparing sets.
			type cand struct {
				id  uint32
				sim float64
			}
			var all []cand
			for v := 0; v < d.NumUsers(); v++ {
				s := sim(u, uint32(v))
				if v == int(u) {
					// Self-similarity: cosine/jaccard/dice = 1 for
					// non-empty profiles; overlap/adamic vary. Compute via
					// the index path for consistency.
					s = refEval(ix, d.Users[u], u)
				}
				if s > 0 {
					all = append(all, cand{uint32(v), s})
				}
			}
			sort.Slice(all, func(a, b int) bool {
				if all[a].sim != all[b].sim {
					return all[a].sim > all[b].sim
				}
				return all[a].id < all[b].id
			})
			if len(all) > 5 {
				all = all[:5]
			}
			if len(got) != len(all) {
				t.Fatalf("%s user %d: got %d results, want %d", name, u, len(got), len(all))
			}
			for i := range all {
				if got[i].ID != all[i].id || math.Abs(got[i].Sim-all[i].sim) > 1e-12 {
					t.Fatalf("%s user %d: result %d = %v, want (%d, %v)",
						name, u, i, got[i], all[i].id, all[i].sim)
				}
			}
		}
	}
}

// TestQueryBudgetMonotone: larger budgets never return worse top-1
// results, and budget 0 returns nothing.
func TestQueryBudgetMonotone(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 52)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(d, nil)
	profile := d.Users[3]
	zero, err := ix.Query(profile, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero) != 0 {
		t.Errorf("budget 0 returned %v", zero)
	}
	prevBest := -1.0
	for _, budget := range []int{1, 4, 16, 64, -1} {
		got, err := ix.Query(profile, 5, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			continue
		}
		if got[0].Sim < prevBest-1e-12 {
			t.Fatalf("budget %d: top-1 sim %v worse than smaller budget's %v",
				budget, got[0].Sim, prevBest)
		}
		prevBest = got[0].Sim
	}
}

// TestQueryMatchesGraphNeighbors: for an indexed user's own profile, the
// query result (minus the user itself) must match the exhaustive KIFF
// graph's neighborhood.
func TestQueryMatchesGraphNeighbors(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 53)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	res, err := Build(d, Config{K: k, Gamma: -1, Beta: -1})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(d, nil)
	for _, u := range []uint32{1, 5, 9} {
		got, err := ix.Query(d.Users[u], k+1, -1) // +1 absorbs u itself
		if err != nil {
			t.Fatal(err)
		}
		var filtered []knngraph.Neighbor
		for _, nb := range got {
			if nb.ID != u {
				filtered = append(filtered, nb)
			}
		}
		if len(filtered) > k {
			filtered = filtered[:k]
		}
		want := res.Graph.Neighbors(u)
		if len(want) > len(filtered) {
			t.Fatalf("user %d: query found %d neighbors, graph has %d", u, len(filtered), len(want))
		}
		for i := range want {
			if filtered[i].ID != want[i].ID {
				t.Fatalf("user %d: neighbor %d = %d, graph has %d",
					u, i, filtered[i].ID, want[i].ID)
			}
		}
	}
}
