package kiff

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/shard"
)

// refRebuild is the full-scan reference for Maintainer.Rebuild: the same
// refresh, but eviction walks every heap in ascending user order instead
// of the holder index. The differential tests below pin the two to
// identical published graphs.
func refRebuild(m *Maintainer, dirty []uint32) error {
	if dirty == nil {
		dirty = m.Dirty()
	}
	n := m.d.NumUsers()
	targets := make(map[uint32]struct{}, len(dirty))
	for _, u := range dirty {
		if int(u) >= n {
			return fmt.Errorf("reference rebuild: user %d out of range", u)
		}
		targets[u] = struct{}{}
	}
	if len(targets) == 0 {
		return nil
	}
	order := make([]uint32, 0, len(targets))
	for u := range targets {
		order = append(order, u)
	}
	slices.Sort(order)
	for _, u := range order {
		m.sets.PatchUser(m.d, u, m.rcsOpts(), &m.counter)
		m.heaps.Clear(u)
	}
	for v := 0; v < n; v++ {
		if _, rebuilt := targets[uint32(v)]; rebuilt {
			continue
		}
		for _, id := range m.heaps.IDs(nil, uint32(v)) {
			if _, rebuilt := targets[id]; rebuilt {
				m.heaps.Remove(uint32(v), id)
			}
		}
	}
	for _, u := range order {
		m.refineUser(u)
		delete(m.dirty, u)
	}
	m.publish()
	return nil
}

// refShard is a pool shard whose Rebuild is the full-scan reference.
type refShard struct{ maintainerShard }

func (s refShard) Rebuild(dirty []uint32) error { return refRebuild(s.Maintainer, dirty) }

// newRefPool partitions d exactly like NewShardedMaintainer, with
// reference shards.
func newRefPool(t *testing.T, d *Dataset, shards int, opts Options) *ShardedMaintainer {
	t.Helper()
	profiles := make([][]Profile, shards)
	for g, p := range d.Users {
		s := shard.Owner(uint32(g), shards)
		profiles[s] = append(profiles[s], p)
	}
	ms := make([]shard.Maintainer, shards)
	for s := range ms {
		sd, err := dataset.New(shardName(d.Name, s, shards), profiles[s], d.NumItems())
		if err != nil {
			t.Fatal(err)
		}
		sd.EnsureItemProfiles()
		m, err := NewMaintainer(sd, opts)
		if err != nil {
			t.Fatal(err)
		}
		ms[s] = refShard{maintainerShard{m}}
	}
	p, err := shard.NewPool(ms, d.NumUsers())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// diffOp is one step of a differential stream.
type diffOp struct {
	kind   int // 0 rating, 1 rebuild listed users, 2 rebuild(nil), 3 insert batch
	user   uint32
	item   uint32
	rating float64
	dirty  []uint32
	batch  []Profile
}

// genDiffOps draws a stream whose targets are always live users: mostly
// ratings, with single- and multi-user rebuilds (some naming users that
// are not dirty), full dirty-set rebuilds and insert batches.
func genDiffOps(seed int64, n, users, items int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]diffOp, 0, n)
	for i := 0; i < n; i++ {
		switch w := rng.Intn(20); {
		case w < 11:
			ops = append(ops, diffOp{kind: 0, user: uint32(rng.Intn(users)),
				item: uint32(rng.Intn(items)), rating: float64(1 + rng.Intn(5))})
		case w < 15:
			dirty := []uint32{uint32(rng.Intn(users))}
			for rng.Intn(2) == 0 {
				dirty = append(dirty, uint32(rng.Intn(users)))
			}
			ops = append(ops, diffOp{kind: 1, dirty: dirty})
		case w < 18:
			ops = append(ops, diffOp{kind: 2})
		default:
			batch := make([]Profile, 1+rng.Intn(3))
			for j := range batch {
				m := map[uint32]float64{}
				for len(m) < 2+rng.Intn(4) {
					m[uint32(rng.Intn(items))] = float64(1 + rng.Intn(5))
				}
				batch[j] = ProfileFromMap(m, false)
			}
			ops = append(ops, diffOp{kind: 3, batch: batch})
			users += len(batch)
		}
	}
	return ops
}

// diffSide is the mutation surface shared by Maintainer and the pool.
type diffSide interface {
	AddRating(u, item uint32, rating float64) error
	InsertBatch(ps []Profile) ([]uint32, error)
}

// applyDiffOp applies op to one side; rebuild is that side's Rebuild.
func applyDiffOp(t *testing.T, s diffSide, rebuild func([]uint32) error, op diffOp) {
	t.Helper()
	var err error
	switch op.kind {
	case 0:
		err = s.AddRating(op.user, op.item, op.rating)
	case 1:
		err = rebuild(op.dirty)
	case 2:
		err = rebuild(nil)
	case 3:
		_, err = s.InsertBatch(op.batch)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// diffConfigs covers every metric in both refinement modes.
func diffConfigs() []Options {
	var out []Options
	for _, metric := range Metrics() {
		for _, beta := range []float64{0, -1} {
			out = append(out, Options{K: 4, Metric: metric, Beta: beta})
		}
	}
	return out
}

// TestRebuildMatchesFullScan: the holder-driven Maintainer publishes,
// after every step of seeded mutation streams, exactly the graph the
// full-scan reference publishes — same IDs, same similarity bits — and
// spends the same similarity evaluations.
func TestRebuildMatchesFullScan(t *testing.T) {
	for _, opts := range diffConfigs() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/beta=%g/seed=%d", opts.Metric, opts.Beta, seed), func(t *testing.T) {
				const users, items = 60, 40
				got, err := NewMaintainer(synthWALDataset(t, seed, users, items), opts)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewMaintainer(synthWALDataset(t, seed, users, items), opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range genDiffOps(seed, 120, users, items) {
					applyDiffOp(t, got, got.Rebuild, op)
					applyDiffOp(t, ref, func(d []uint32) error { return refRebuild(ref, d) }, op)
					requireSameGraph(t, ref.Snapshot().Graph(), got.Snapshot().Graph())
					if a, b := got.Counters().SimEvals, ref.Counters().SimEvals; a != b {
						t.Fatalf("step %d: %d SimEvals, reference spent %d", i, a, b)
					}
				}
			})
		}
	}
}

// TestPoolRebuildMatchesFullScan is the 4-shard pool counterpart: every
// shard runs the holder-driven Rebuild on one side and the reference on
// the other, and every served neighbor list must agree bit for bit.
func TestPoolRebuildMatchesFullScan(t *testing.T) {
	for _, opts := range diffConfigs() {
		t.Run(fmt.Sprintf("%s/beta=%g", opts.Metric, opts.Beta), func(t *testing.T) {
			const users, items, seed = 80, 40, 5
			got, err := NewShardedMaintainer(synthWALDataset(t, seed, users, items), 4, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefPool(t, synthWALDataset(t, seed, users, items), 4, opts)
			for i, op := range genDiffOps(seed, 120, users, items) {
				applyDiffOp(t, got, got.Rebuild, op)
				applyDiffOp(t, ref, ref.Rebuild, op)
				gv, rv := got.View(), ref.View()
				if gv.NumUsers() != rv.NumUsers() {
					t.Fatalf("step %d: %d users, reference has %d", i, gv.NumUsers(), rv.NumUsers())
				}
				for u := 0; u < rv.NumUsers(); u++ {
					a, errA := gv.Neighbors(uint32(u))
					b, errB := rv.Neighbors(uint32(u))
					if errA != nil || errB != nil {
						t.Fatalf("step %d: neighbors(%d): %v / %v", i, u, errA, errB)
					}
					if !reflect.DeepEqual(bitsOf(a), bitsOf(b)) {
						t.Fatalf("step %d: neighbors(%d) = %v, reference %v", i, u, a, b)
					}
				}
			}
		})
	}
}

// bitsOf renders a neighbor list as (ID, similarity bits) pairs, so list
// equality is bit-identity rather than float equality.
func bitsOf(list []Neighbor) [][2]uint64 {
	out := make([][2]uint64, len(list))
	for i, nb := range list {
		out[i] = [2]uint64{uint64(nb.ID), math.Float64bits(nb.Sim)}
	}
	return out
}
