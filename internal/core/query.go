package core

import (
	"fmt"
	"slices"
	"sync"

	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/rcs"
	"kiff/internal/similarity"
	"kiff/internal/sparse"
)

// Index answers single-profile KNN queries against a dataset using KIFF's
// counting-phase pruning: a query only ever compares against users that
// share at least one item with it, examined in decreasing shared-item
// order.
//
// The paper frames KIFF as a graph constructor and explicitly
// distinguishes it from NN *search* (§VI); the index exists because a
// library user who has built a graph over U almost always also needs to
// place new, unseen profiles into it (the recommendation and
// classification workloads of §I). The same Eq. (5)/(6) argument applies:
// with an unlimited budget the result is the exact KNN of the query.
//
// An Index never mutates its dataset after construction. Each Query
// borrows its scratch (candidate counter, scatter accumulator, top-k
// heap) from a process-wide pool shared by every Index, so any number of
// goroutines may call Query concurrently — as snapshot readers do —
// provided the dataset itself is not mutated underneath it (hand the
// Index a frozen dataset.View when the writer keeps going).
type Index struct {
	d      profileSource
	metric similarity.Metric
}

// profileSource is the read surface Query needs: user profiles, the
// item-profile inverted index and both domains. Both *dataset.Dataset
// and *dataset.View satisfy it, so an Index is O(1) to construct over a
// freshly published view — nothing is copied or prepared per publication.
type profileSource interface {
	similarity.QuerySource
	NumUsers() int
}

// NewIndex builds a query index over the live dataset. metric nil selects
// cosine. The dataset's item profiles are built if missing; construction
// is O(|E|) the first time and O(1) after.
func NewIndex(d *dataset.Dataset, metric similarity.Metric) *Index {
	d.EnsureItemProfiles()
	return &Index{d: d, metric: defaultMetric(metric)}
}

// NewViewIndex builds a query index over a frozen dataset view — the
// snapshot-publication path. Views always carry item profiles, so
// construction is O(1): the per-publication cost of refreshing the query
// index is a single struct allocation.
func NewViewIndex(v *dataset.View, metric similarity.Metric) *Index {
	return &Index{d: v, metric: defaultMetric(metric)}
}

func defaultMetric(m similarity.Metric) similarity.Metric {
	if m == nil {
		return similarity.Cosine{}
	}
	return m
}

// queryScratch is one request's working memory. Its counter is sized by
// the user domain and its pivot by the item domain, each growing when a
// newer snapshot is larger; nothing in it is sized by k.
type queryScratch struct {
	counter rcs.Counter
	ranked  []uint32
	pivot   similarity.QueryPivot
	top     topK
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// Query returns the k nearest users to the given profile. budget bounds
// the number of similarity evaluations (counted from the most-overlapping
// candidate down); budget < 0 evaluates every overlapping candidate,
// which yields the exact KNN for metrics satisfying Eq. (5)/(6).
//
// The profile uses the same item ID space as the indexed dataset; IDs at
// or beyond NumItems overlap with nobody and are never scattered, so the
// request's scratch stays O(NumUsers + NumItems) whatever IDs it names.
// They still count in the profile's size and norm.
func (ix *Index) Query(profile sparse.Vector, k, budget int) ([]knngraph.Neighbor, error) {
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	return ix.query(sc, profile, k, budget)
}

func (ix *Index) query(sc *queryScratch, profile sparse.Vector, k, budget int) ([]knngraph.Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("kiff: query k must be ≥ 1, got %d", k)
	}
	if err := profile.Validate(); err != nil {
		return nil, fmt.Errorf("kiff: query profile: %w", err)
	}
	metric, ok := ix.metric.(similarity.QueryMetric)
	if !ok {
		return nil, fmt.Errorf("kiff: metric %s cannot score query profiles", ix.metric.Name())
	}
	// Counting phase for one pivot: bin the query into the item profiles.
	c := &sc.counter
	c.Begin(ix.d.NumUsers())
	numItems := ix.d.NumItems()
	for _, it := range profile.IDs {
		if int(it) >= numItems {
			break // ascending IDs: the rest are out of range too
		}
		for _, v := range ix.d.Item(it) {
			c.Add(v)
		}
	}
	// An exact query scores every candidate and the heap's total order
	// fixes the answer, so only a budget needs the ranking.
	cands := c.Touched()
	if budget >= 0 {
		sc.ranked = c.Ranked(sc.ranked[:0], budget)
		cands = sc.ranked
	}

	// Refinement: prepare the query once, score each candidate from its
	// shared count (and a gather where the metric weighs shared items),
	// keep the best k.
	top := sc.top[:0]
	if len(cands) > 0 {
		sc.pivot.Begin(metric, ix.d, profile)
		for _, v := range cands {
			top = top.offer(k, knngraph.Neighbor{ID: v, Sim: sc.pivot.Score(v, c.Count(v))})
		}
	}
	sc.top = top
	out := make([]knngraph.Neighbor, len(top))
	copy(out, top)
	slices.SortFunc(out, knngraph.CompareNeighbors)
	return out, nil
}

// topK is a bounded min-heap of neighbors under knngraph.CompareNeighbors
// whose root is the worst one retained.
type topK []knngraph.Neighbor

// offer adds nb if fewer than k neighbors are held or nb beats the worst.
func (h topK) offer(k int, nb knngraph.Neighbor) topK {
	if len(h) < k {
		h = append(h, nb)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if knngraph.CompareNeighbors(h[i], h[p]) <= 0 {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		return h
	}
	if knngraph.CompareNeighbors(nb, h[0]) >= 0 {
		return h
	}
	h[0] = nb
	for i := 0; ; {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && knngraph.CompareNeighbors(h[l], h[worst]) > 0 {
			worst = l
		}
		if r < len(h) && knngraph.CompareNeighbors(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return h
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
