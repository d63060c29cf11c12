// Package knnheap implements the bounded per-user neighborhood heaps used
// by all KNN construction algorithms: "the current approximation k̂nnu of
// each user u's neighborhood is stored as a heap of maximum size k, with
// the similarity between u and its neighbors used as priority" (paper
// §III-C).
//
// Entries are ordered by the total order (similarity desc, ID asc). Using
// a total order — rather than similarity alone — makes the retained top-k
// set independent of insertion order even under similarity ties, so
// parallel runs produce identical graphs.
//
// Beyond the batch-construction operations, the set supports the
// append-only population growth (Grow), targeted entry removal (Remove,
// Clear), bulk seeding from a sorted graph row (Seed) and the eviction of
// every reference to a set of users (Evict) that incremental graph
// maintenance needs.
package knnheap

import (
	"fmt"
	"slices"
	"sync"
)

// Entry is one neighbor candidate held in a heap. New is the NN-Descent
// incremental-join flag (true until the entry has participated in a local
// join); KIFF and HyRec ignore it.
type Entry struct {
	ID  uint32
	Sim float64
	New bool
}

// worse reports whether a is a strictly worse neighbor than b under the
// total order (lower similarity, then higher ID).
func worse(a, b Entry) bool {
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.ID > b.ID
}

// Heap is a single bounded neighborhood: a min-heap whose root is the
// worst retained neighbor. The zero value is unusable; heaps are created
// through NewSet, which backs every heap's bounded entry storage with one
// shared arena — two allocations for the whole population instead of two
// per user, and neighboring users' entries adjacent in memory.
type Heap struct {
	mu      sync.Mutex
	entries []Entry
}

// Set is the collection of one heap per user, all bounded by the same k.
//
// A Set optionally tracks which users' heaps changed (TrackDirty): the
// copy-on-write snapshot publication path drains that dirty set at export
// time to clone only the graph pages containing changed users. Tracking
// also maintains the holder index: for every user v, the users whose
// heaps currently hold v — what lets Evict drop the stale references to
// a rebuilt user in O(in-degree · k) instead of scanning every heap.
// Keeping it current costs every mutation that drops an entry (a root
// replacement in Update, Remove, Clear, Seed) a scan of the dropped
// neighbor's holder row, O(its in-degree). Tracking is opt-in because the
// parallel cold build mutates heaps
// from many goroutines; the maintenance layer enables it once
// construction is done and it holds the single-writer contract from then
// on.
type Set struct {
	k     int
	heaps []Heap

	// holders[v] lists, in no particular order, the users whose heaps
	// hold v; nil until TrackDirty. Writer-side only, like the dirty set,
	// and so is visit, Evict's reused list of heaps to visit.
	holders [][]uint32
	visit   []uint32

	// Dirty tracking (TrackDirty/DrainDirty). stamp[u] == epoch means u
	// is already recorded in dirty for the current drain interval, so a
	// user mutated many times between two publications is listed once.
	// Only the single writer touches these; concurrent readers (Export,
	// Neighbors) never do.
	track bool
	epoch uint32
	stamp []uint32
	dirty []uint32
}

// TrackDirty starts recording which users' heaps change. Call it right
// after the state being tracked against was exported in full (the first
// snapshot publication): from then on, every Update/Remove/Clear/Seed
// that changes a heap — and every user added by Grow — lands in the
// dirty set until DrainDirty collects it. Tracking requires the
// single-writer contract: no concurrent mutations after TrackDirty.
//
// TrackDirty also builds the holder index in one counted pass over every
// heap (O(|U|·k)), which every later mutation keeps current. Every held
// ID must be a user of the set (< Len).
func (s *Set) TrackDirty() {
	s.track = true
	s.epoch = 1
	s.stamp = make([]uint32, len(s.heaps))
	s.dirty = s.dirty[:0]
	s.buildHolders()
}

// buildHolders lays the holder index out as a counted CSR fill: one
// backing array sized to the edge count, each row a capacity-clamped
// slice of it, so a row that later outgrows its in-degree reallocates on
// its own instead of overrunning its neighbor.
func (s *Set) buildHolders() {
	n := len(s.heaps)
	off := make([]int, n+1)
	for u := range s.heaps {
		for _, e := range s.heaps[u].entries {
			off[e.ID+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	backing := make([]uint32, off[n])
	next := slices.Clone(off[:n])
	for u := range s.heaps {
		for _, e := range s.heaps[u].entries {
			backing[next[e.ID]] = uint32(u)
			next[e.ID]++
		}
	}
	s.holders = make([][]uint32, n)
	for v := range s.holders {
		s.holders[v] = backing[off[v]:off[v+1]:off[v+1]]
	}
}

// hold records that u's heap now holds v. Writer-side only.
func (s *Set) hold(u, v uint32) {
	if s.track {
		s.holders[v] = append(s.holders[v], u)
	}
}

// release records that u's heap no longer holds v: a scan of v's row,
// O(in-degree of v), then a swap-remove, since row order carries no
// meaning. Callers check s.track first, keeping the untracked cold-build
// path free of the call. Writer-side only.
func (s *Set) release(u, v uint32) {
	row := s.holders[v]
	for i, h := range row {
		if h == u {
			last := len(row) - 1
			row[i] = row[last]
			s.holders[v] = row[:last]
			return
		}
	}
	panic(fmt.Sprintf("knnheap: holder index lost edge %d -> %d", u, v))
}

// DrainDirty appends the users whose heaps changed since the previous
// drain (or since TrackDirty) to dst and resets the dirty set — the
// publication-time harvest. Order is first-touch order; IDs are unique.
func (s *Set) DrainDirty(dst []uint32) []uint32 {
	dst = append(dst, s.dirty...)
	s.dirty = s.dirty[:0]
	s.epoch++
	if s.epoch == 0 {
		// The epoch counter wrapped: old stamps would alias the new
		// interval, so reset them all and restart at 1.
		clear(s.stamp)
		s.epoch = 1
	}
	return dst
}

// markDirty records a change to u's heap. Writer-side only (guarded by
// the TrackDirty contract), so the Set-level dirty list needs no lock
// even though callers hold only the per-heap lock.
func (s *Set) markDirty(u uint32) {
	if !s.track || s.stamp[u] == s.epoch {
		return
	}
	s.stamp[u] = s.epoch
	s.dirty = append(s.dirty, u)
}

// NewSet creates n empty heaps of capacity k.
func NewSet(n, k int) *Set {
	if n < 0 || k < 1 {
		panic("knnheap: NewSet requires n ≥ 0 and k ≥ 1")
	}
	s := &Set{k: k, heaps: make([]Heap, n)}
	backing := make([]Entry, n*k)
	for i := range s.heaps {
		lo := i * k
		s.heaps[i].entries = backing[lo : lo : lo+k]
	}
	return s
}

// Grow appends extra empty heaps for users appended to the population.
// It must not run concurrently with other Set operations (incremental
// maintenance is single-writer); existing heaps are unaffected. Each Grow
// batch gets its own entry arena.
func (s *Set) Grow(extra int) {
	if extra < 0 {
		panic("knnheap: Grow requires extra ≥ 0")
	}
	backing := make([]Entry, extra*s.k)
	base := len(s.heaps)
	for i := 0; i < extra; i++ {
		lo := i * s.k
		s.heaps = append(s.heaps, Heap{entries: backing[lo : lo : lo+s.k]})
	}
	if s.track {
		s.stamp = append(s.stamp, make([]uint32, extra)...)
		s.holders = append(s.holders, make([][]uint32, extra)...)
		for i := 0; i < extra; i++ {
			// A new user has no previously published page; its page must
			// be (re)built at the next publication.
			s.markDirty(uint32(base + i))
		}
	}
}

// K returns the neighborhood bound.
func (s *Set) K() int { return s.k }

// Len returns the number of heaps.
func (s *Set) Len() int { return len(s.heaps) }

// Size returns the current number of neighbors of user u.
func (s *Set) Size(u uint32) int {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}

// Update implements UPDATENN of Algorithm 1 (lines 14–16): offer (id, sim)
// to user u's heap and report 1 if the neighborhood changed, 0 otherwise.
// A candidate already present leaves the heap unchanged; a candidate worse
// than the current root of a full heap is rejected.
func (s *Set) Update(u uint32, id uint32, sim float64) int {
	return s.update(u, Entry{ID: id, Sim: sim, New: true})
}

func (s *Set) update(u uint32, e Entry) int {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.indexOf(e.ID) >= 0 {
		return 0
	}
	if len(h.entries) < s.k {
		h.entries = append(h.entries, e)
		h.siftUp(len(h.entries) - 1)
		s.hold(u, e.ID)
		s.markDirty(u)
		return 1
	}
	if !worse(e, h.entries[0]) {
		if s.track {
			s.release(u, h.entries[0].ID)
		}
		h.entries[0] = e
		h.siftDown(0)
		s.hold(u, e.ID)
		s.markDirty(u)
		return 1
	}
	return 0
}

// Seed replaces u's heap with row, a neighbor list in canonical graph
// order (best first: similarity desc, ID asc) — the bulk warm start from
// a loaded graph. Reversed, such a row is already a valid min-heap, so
// Seed copies it in without per-entry duplicate scans or sifts. The
// caller guarantees the row is strictly sorted with unique IDs; Seed
// panics if it is longer than k.
func (s *Set) Seed(u uint32, row []Entry) {
	if len(row) > s.k {
		panic(fmt.Sprintf("knnheap: Seed: %d entries exceed k = %d", len(row), s.k))
	}
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) > 0 || len(row) > 0 {
		s.markDirty(u)
	}
	if s.track {
		for _, e := range h.entries {
			s.release(u, e.ID)
		}
	}
	h.entries = h.entries[:len(row)]
	for i, e := range row {
		h.entries[len(row)-1-i] = e
		s.hold(u, e.ID)
	}
}

// Remove deletes id from u's heap, reporting whether it was present.
// Incremental maintenance uses it to evict entries whose similarity went
// stale after a profile change, before re-offering the fresh value.
func (s *Set) Remove(u uint32, id uint32) bool {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	i := h.indexOf(id)
	if i < 0 {
		return false
	}
	if s.track {
		s.release(u, id)
	}
	h.removeAt(i)
	s.markDirty(u)
	return true
}

// Evict removes every reference to the users in targets (sorted
// ascending, unique) from every heap, visiting only the heaps the holder
// index lists for them: O(Σ in-degree of the targets · k), however large
// the set. The heaps are visited in ascending user order and each drops
// the targets in its own heap order — exactly the removals, and the heap
// layouts, of a scan over every heap. Each target loses all its holders,
// so its index row is emptied in one step rather than edge by edge.
// Requires TrackDirty; writer-side only.
func (s *Set) Evict(targets []uint32) {
	if s.holders == nil {
		panic("knnheap: Evict requires TrackDirty")
	}
	s.visit = s.visit[:0]
	for _, t := range targets {
		s.visit = append(s.visit, s.holders[t]...)
	}
	slices.Sort(s.visit)
	var buf [8]uint32
	for _, v := range slices.Compact(s.visit) {
		h := &s.heaps[v]
		h.mu.Lock()
		stale := buf[:0]
		for _, e := range h.entries {
			if _, hit := slices.BinarySearch(targets, e.ID); hit {
				stale = append(stale, e.ID)
			}
		}
		for _, id := range stale {
			h.removeAt(h.indexOf(id))
		}
		h.mu.Unlock()
		s.markDirty(v)
	}
	for _, t := range targets {
		s.holders[t] = s.holders[t][:0]
	}
}

// Clear empties u's heap (used when a user's neighborhood is rebuilt from
// scratch after its profile changed).
func (s *Set) Clear(u uint32) {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) > 0 {
		s.markDirty(u)
	}
	if s.track {
		for _, e := range h.entries {
			s.release(u, e.ID)
		}
	}
	h.entries = h.entries[:0]
}

// Worst returns the root (worst retained neighbor) of u's heap and whether
// the heap is non-empty.
func (s *Set) Worst(u uint32) (Entry, bool) {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) == 0 {
		return Entry{}, false
	}
	return h.entries[0], true
}

// Contains reports whether id is currently a neighbor of u.
func (s *Set) Contains(u uint32, id uint32) bool {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.indexOf(id) >= 0
}

// Neighbors appends u's current neighbors to dst in arbitrary (heap)
// order and returns the extended slice.
func (s *Set) Neighbors(dst []Entry, u uint32) []Entry {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	return append(dst, h.entries...)
}

// Export appends every heap's entries to entries (per heap, in arbitrary
// heap order) and the CSR row offsets to offsets, so a snapshot of the
// whole set lands in two contiguous arrays instead of one slice per user.
// Each heap is read under its own lock; like Neighbors, Export may run
// while another goroutine still updates the set, and each row is then
// internally consistent even if the set as a whole keeps moving.
func (s *Set) Export(offsets []int64, entries []Entry) ([]int64, []Entry) {
	return s.ExportRange(offsets, entries, 0, len(s.heaps))
}

// ExportRange is Export restricted to the users in [lo, hi): the page
// export primitive of copy-on-write snapshot publication, which rebuilds
// only the pages containing dirty users. The appended offsets are
// relative to the entries slice passed in, exactly as in Export.
func (s *Set) ExportRange(offsets []int64, entries []Entry, lo, hi int) ([]int64, []Entry) {
	offsets = append(offsets, int64(len(entries)))
	for i := lo; i < hi; i++ {
		h := &s.heaps[i]
		h.mu.Lock()
		entries = append(entries, h.entries...)
		h.mu.Unlock()
		offsets = append(offsets, int64(len(entries)))
	}
	return offsets, entries
}

// IDs appends the IDs of u's current neighbors to dst.
func (s *Set) IDs(dst []uint32, u uint32) []uint32 {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		dst = append(dst, h.entries[i].ID)
	}
	return dst
}

// CollectFlagged appends the IDs of u's neighbors to newIDs or oldIDs
// according to their New flag, clearing the flags of the entries reported
// as new. This is the per-iteration flag harvest of NN-Descent's
// incremental local join.
func (s *Set) CollectFlagged(newIDs, oldIDs []uint32, u uint32) ([]uint32, []uint32) {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		if h.entries[i].New {
			newIDs = append(newIDs, h.entries[i].ID)
			h.entries[i].New = false
		} else {
			oldIDs = append(oldIDs, h.entries[i].ID)
		}
	}
	return newIDs, oldIDs
}

// indexOf returns the position of id in the heap, or -1.
func (h *Heap) indexOf(id uint32) int {
	for i := range h.entries {
		if h.entries[i].ID == id {
			return i
		}
	}
	return -1
}

// removeAt deletes the entry at position i, restoring the heap order.
func (h *Heap) removeAt(i int) {
	last := len(h.entries) - 1
	h.entries[i] = h.entries[last]
	h.entries = h.entries[:last]
	if i < last {
		// The displaced element may need to move either way.
		h.siftDown(i)
		h.siftUp(i)
	}
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h.entries[i], h.entries[parent]) {
			break
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && worse(h.entries[l], h.entries[smallest]) {
			smallest = l
		}
		if r < n && worse(h.entries[r], h.entries[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
}
