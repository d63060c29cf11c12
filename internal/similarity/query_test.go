package similarity

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/sparse"
)

// TestQueryPivotEqualsPairwise pins the query form to the pairwise Func:
// scattering user u's own profile as an external query and scoring every
// user v must give Prepare(d)(u, v) bit for bit — the same formulas and
// the same ascending accumulation order as the batch kernels. One pivot
// is reused across metrics and datasets of different widths, so its
// scratch is both grown and reused.
func TestQueryPivotEqualsPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(311))
	var p QueryPivot
	for trial := 0; trial < 24; trial++ {
		items := []int{8, 60, 4096}[trial%3]
		d := randBatchDataset(r, 20, items, trial%2 == 0)
		if trial%4 == 1 {
			// Mixed population: binary queries against weighted users
			// and weighted queries against binary ones.
			users := slices.Clone(d.Users)
			for u := 0; u < len(users); u += 3 {
				users[u].Weights = nil
			}
			var err error
			if d, err = dataset.New("query-mixed", users, d.NumItems()); err != nil {
				t.Fatal(err)
			}
		}
		d.EnsureItemProfiles()
		for _, name := range Names() {
			m, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			qm, ok := m.(QueryMetric)
			if !ok {
				t.Fatalf("metric %q does not implement QueryMetric", name)
			}
			pair := m.Prepare(d)
			for u := 0; u < d.NumUsers(); u++ {
				p.Begin(qm, d, d.Users[u])
				for v := 0; v < d.NumUsers(); v++ {
					common := sparse.CommonCount(d.Users[u], d.Users[v])
					got, want := p.Score(uint32(v), common), pair(uint32(u), uint32(v))
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d %s (%d,%d): query %v, pairwise %v", trial, name, u, v, got, want)
					}
				}
			}
		}
	}
}

// TestQueryPivotIgnoresOutOfDomainIDs: IDs at or beyond NumItems are not
// scattered (the scratch stays within the item domain) but still count
// in the query's size and norm.
func TestQueryPivotIgnoresOutOfDomainIDs(t *testing.T) {
	d := randBatchDataset(rand.New(rand.NewSource(312)), 10, 30, true)
	d.EnsureItemProfiles()
	// 1<<20 is far enough out to show a scatter past the domain, near
	// enough that one costs megabytes, not gigabytes.
	q := sparse.Vector{IDs: []uint32{1, 2, 30, 1 << 20}}
	var p QueryPivot
	p.Begin(Jaccard{}, d, q)
	if p.qlen != 4 {
		t.Fatalf("|q| = %d, want 4 (out-of-domain IDs count)", p.qlen)
	}
	for _, m := range []QueryMetric{Cosine{}, AdamicAdar{}} {
		p.Begin(m, d, q)
		if dom := p.scratch.Domain(); dom > d.NumItems() {
			t.Fatalf("%s: scratch domain %d exceeds NumItems %d", m.Name(), dom, d.NumItems())
		}
	}
	if p.norm != 2 {
		t.Fatalf("‖q‖ = %v, want 2", p.norm)
	}
}
