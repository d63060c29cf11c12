package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"kiff"
	"kiff/internal/dataset"
	"kiff/internal/rcs"
	"kiff/internal/similarity"
	"kiff/internal/wal"
)

// The traced run replays the run's own inputs in-process against the
// public functions of each layer, timing the outer and the inner call on
// the same input; spans for both go to the tracer, and a layer's self
// time is its span minus the part its child covers (selfTimes).

// replayReads and replayWrites bound how many of the run's reads and
// writes the per-layer replay uses.
const (
	replayReads  = 3000
	replayWrites = 300
)

// timed runs f and records it as a span; it returns the span's ID and
// the duration.
func (r *run) timed(parent int64, name string, f func() error) (int64, time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	return r.tr.add(parent, 0, name, start, end), end.Sub(start), err
}

// measureLayers runs every per-layer measurement and sets the metrics.
func (r *run) measureLayers() error {
	r.layer = newMetrics()
	if err := r.constructionLayers(); err != nil {
		return err
	}
	if err := r.readLayers(); err != nil {
		return err
	}
	if err := r.writeLayers(); err != nil {
		return err
	}
	r.trafficLayers()
	return nil
}

// constructionLayers times one build's layers on the fixture edge list.
func (r *run) constructionLayers() error {
	var d *kiff.Dataset
	root, load, err := r.timed(0, "dataset.load", func() (err error) {
		d, err = kiff.LoadFile(r.edges, kiff.LoadOptions{Name: "arxiv"})
		return err
	})
	if err != nil {
		return err
	}
	_, index, _ := r.timed(root, "dataset.item_index", func() error {
		dataset.BuildItemProfiles(d.Users, d.NumItems())
		return nil
	})
	r.layer.set("dataset.load_s", "s", load.Seconds())
	r.layer.set("dataset.item_index_s", "s", index.Seconds())

	var sets *rcs.Sets
	_, rcsTime, _ := r.timed(0, "rcs.build", func() error {
		sets = rcs.Build(d, rcs.BuildOptions{Workers: r.cfg.Workers})
		return nil
	})
	total := 0
	for _, l := range sets.Lens() {
		total += l
	}
	r.layer.set("rcs.build_s", "s", rcsTime.Seconds())
	r.layer.set("rcs.candidates_per_user", "count", float64(total)/float64(d.NumUsers()))

	var res *kiff.Result
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := r.timed(0, "kiff.build", func() (err error) {
		res, err = kiff.Build(d, buildOptions(r.cfg.Workers))
		return err
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	run := res.Run
	r.layer.set("engine.preprocess_s", "s", run.PhaseTimes[0].Seconds())
	r.layer.set("engine.candidates_s", "s", run.PhaseTimes[1].Seconds())
	r.layer.set("engine.similarity_s", "s", run.PhaseTimes[2].Seconds())
	r.layer.set("engine.iterations", "count", float64(run.Iterations))
	r.layer.set("engine.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	r.layer.set("similarity.sim_evals", "count", float64(run.SimEvals))
	var updates int64
	for _, u := range run.UpdatesPerIter {
		updates += u
	}
	r.layer.set("knnheap.updates_per_eval", "ratio", float64(updates)/float64(run.SimEvals))

	// The batch kernel over the final graph's neighbour lists.
	b := similarity.Cosine{}.PrepareBatch(d)()
	evals := 0
	var dst []float64
	ids := make([]uint32, 0, queryK)
	_, kernel, _ := r.timed(0, "similarity.score_into", func() error {
		for u := 0; u < d.NumUsers(); u++ {
			ids = ids[:0]
			for _, nb := range res.Graph.Neighbors(uint32(u)) {
				ids = append(ids, nb.ID)
			}
			dst = slices.Grow(dst[:0], len(ids))[:len(ids)]
			b.ScoreInto(dst, uint32(u), ids)
			evals += len(ids)
		}
		return nil
	})
	r.layer.set("similarity.ns_per_eval", "ns", float64(kernel.Nanoseconds())/float64(max(evals, 1)))
	return nil
}

// readLayers replays the base phase's reads through a loopback HTTP
// client, the in-process server handler (outer) and the snapshot call
// it makes (inner).
func (r *run) readLayers() error {
	snap, srv, err := staticServer(r.ckpt0)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := newHTTPTarget(ts.URL, 1)
	defer client.close()

	var handler [numOpKinds]latencies
	var snapNb, query, transport latencies
	var spans []span
	candidates, queries := 0, 0
	for _, o := range r.selectOps(replayReads, baseReads) {
		t := time.Now()
		if _, err := client.fetch(0, o); err != nil {
			return err
		}
		viaHTTP := time.Since(t)
		start := time.Now()
		serveInProcess(h, o)
		outer := time.Since(start)
		transport = append(transport, max(viaHTTP-outer, 0))
		t = time.Now()
		switch o.Kind {
		case opNeighbors:
			snap.Neighbors(o.User)
		default:
			if _, err := snap.Query(o.Profile, queryK, -1); err != nil {
				return err
			}
		}
		inner := time.Since(t)
		handler[o.Kind] = append(handler[o.Kind], outer)
		switch o.Kind {
		case opNeighbors:
			snapNb = append(snapNb, inner)
		case opQuery:
			query = append(query, inner)
			candidates += coRaters(r.fix, o.Profile)
			queries++
		}
		// The two calls ran on the same input one after the other; lay
		// the inner one at the start of the outer one's interval.
		p := r.tr.add(0, 0, "server.handler."+o.Kind.String(), start, start.Add(outer))
		c := r.tr.add(p, 0, "kiff.snapshot."+o.Kind.String(), start, start.Add(min(inner, outer)))
		spans = append(spans,
			span{ID: p, Start: 0, End: int64(outer)},
			span{ID: c, Parent: p, Start: 0, End: int64(min(inner, outer))})
	}
	for _, k := range []opKind{opNeighbors, opQuery, opItems} {
		name := "server.handler_us." + k.String()
		r.layer.set(name+".p50", "us", handler[k].pct(50)*1e3)
		r.layer.set(name+".p99", "us", handler[k].pct(99)*1e3)
	}
	var self latencies
	selfs := selfTimes(spans)
	for _, s := range spans {
		if s.Parent == 0 {
			self = append(self, selfs[s.ID])
		}
	}
	r.layer.set("server.self_us", "us", self.pct(50)*1e3)
	r.layer.set("kiff.snapshot.neighbors_us", "us", snapNb.pct(50)*1e3)
	r.layer.set("core.query_us.p50", "us", query.pct(50)*1e3)
	r.layer.set("core.query_us.p99", "us", query.pct(99)*1e3)
	r.layer.set("core.candidates_per_query", "count", float64(candidates)/float64(max(queries, 1)))

	r.layer.set("http.transport_us", "us", transport.pct(50)*1e3)
	return nil
}

// coRaters counts the distinct users sharing at least one item with p:
// the candidates an exact query counts.
func coRaters(d *kiff.Dataset, p kiff.Profile) int {
	seen := make(map[uint32]struct{})
	for _, it := range p.IDs {
		if int(it) >= d.NumItems() {
			continue
		}
		for _, u := range d.Item(it) {
			seen[u] = struct{}{}
		}
	}
	return len(seen)
}

// selectOps returns, in send order, up to n of the run's ops for which
// keep(phase, index) holds.
func (r *run) selectOps(n int, keep func(ph *phaseRun, i int) bool) []*op {
	var out []*op
	for pi := range r.phases {
		ph := &r.phases[pi]
		for i := range ph.ops {
			if len(out) < n && keep(ph, i) {
				out = append(out, &ph.ops[i])
			}
		}
	}
	return out
}

// baseReads keeps the base phase's reads.
func baseReads(ph *phaseRun, i int) bool { return ph.name == "base" && ph.ops[i].Kind.isRead() }

// ackedWrites keeps the writes the target acknowledged.
func ackedWrites(ph *phaseRun, i int) bool { return ph.ops[i].Kind.isWrite() && ph.out[i].Err == nil }

// writeLayers boots a Maintainer from the first build's checkpoint and
// replays the run's writes through a write-ahead log and the Maintainer,
// one write at a time as the server applies them, then saves a
// checkpoint of the result.
func (r *run) writeLayers() error {
	var mg *kiff.MappedGraph
	var md *kiff.MappedDataset
	_, mapped, err := r.timed(0, "kiff.boot.load_mapped", func() (err error) {
		if mg, err = kiff.LoadGraphMapped(filepath.Join(r.ckpt0, "graph.kfg")); err != nil {
			return err
		}
		md, err = kiff.LoadDatasetMapped(filepath.Join(r.ckpt0, "data.kfd"))
		return err
	})
	if err != nil {
		return err
	}
	var m *kiff.Maintainer
	_, warm, err := r.timed(0, "kiff.boot.warm_start", func() (err error) {
		m, err = kiff.NewMaintainerFromGraph(md.Dataset(), mg.Graph(), kiff.Options{Workers: r.cfg.Workers})
		return err
	})
	if err != nil {
		return err
	}
	r.layer.set("kiff.boot.load_mapped_s", "s", mapped.Seconds())
	r.layer.set("kiff.boot.warm_start_s", "s", warm.Seconds())

	log, err := wal.Open(filepath.Join(r.cfg.Dir, "replay.kfl"), wal.Options{Sync: wal.SyncNever}, nil)
	if err != nil {
		return err
	}
	defer log.Close()
	var appendT, fsyncT, addT, rebuildT, insertT latencies
	c0 := m.Counters()
	writes := 0
	for _, o := range r.selectOps(replayWrites, ackedWrites) {
		// The write's span encloses its WAL and Maintainer calls.
		p, start := r.tr.reserve(), time.Now()
		recs := []wal.Record{{Kind: wal.KindAddUser, Items: o.Profile.IDs, Weights: o.Profile.Weights}}
		if o.Kind == opRating {
			recs = []wal.Record{{Kind: wal.KindAddRating, User: o.User, Item: o.Item, Rating: o.Rating}, {Kind: wal.KindRebuild, All: true}}
		}
		for _, rec := range recs {
			_, d, err := r.timed(p, "wal.append", func() error { return log.Append(rec) })
			if err != nil {
				return err
			}
			appendT = append(appendT, d)
		}
		_, d, err := r.timed(p, "wal.fsync", log.Sync)
		if err != nil {
			return err
		}
		fsyncT = append(fsyncT, d)
		if o.Kind == opRating {
			_, d, err := r.timed(p, "kiff.maintainer.add_rating", func() error { return m.AddRating(o.User, o.Item, o.Rating) })
			if err != nil {
				return err
			}
			addT = append(addT, d)
			if _, d, err = r.timed(p, "kiff.maintainer.rebuild", func() error { return m.Rebuild(nil) }); err != nil {
				return err
			}
			rebuildT = append(rebuildT, d)
		} else {
			_, d, err := r.timed(p, "kiff.maintainer.insert", func() error {
				_, err := m.InsertBatch([]kiff.Profile{o.Profile})
				return err
			})
			if err != nil {
				return err
			}
			insertT = append(insertT, d)
		}
		r.tr.record(p, 0, 0, "write."+o.Kind.String(), start, time.Now())
		writes++
	}
	c1 := m.Counters()
	wc := log.Counters()
	w := float64(max(writes, 1))
	pubs := float64(max(c1.Publishes-c0.Publishes, 1))
	r.layer.set("wal.append_us", "us", appendT.pct(50)*1e3)
	r.layer.set("wal.fsync_us", "us", fsyncT.pct(50)*1e3)
	r.layer.set("kiff.maintainer.add_rating_us", "us", addT.pct(50)*1e3)
	r.layer.set("kiff.maintainer.rebuild_ms", "ms", rebuildT.pct(50))
	r.layer.set("kiff.maintainer.insert_ms", "ms", insertT.pct(50))
	r.layer.set("similarity.sim_evals_per_write", "count", float64(c1.SimEvals-c0.SimEvals)/w)
	r.layer.set("knngraph.publish_us", "us", float64(c1.PublishNs-c0.PublishNs)/1e3/pubs)
	r.layer.set("knngraph.pages_copied_per_publish", "count", float64(c1.PagesCopied-c0.PagesCopied)/pubs)
	r.layer.set("knngraph.pages_shared_per_publish", "count", float64(c1.PagesShared-c0.PagesShared)/pubs)
	bytesPerWrite, fsyncsPerWrite := float64(wc.AppendedBytes)/w, float64(len(fsyncT))/w
	if d, writes := r.perWrite("kiffserve_wal_appended_bytes_total", "kiffserve_wal_fsyncs_total"); writes > 0 {
		bytesPerWrite, fsyncsPerWrite = d[0], d[1]
	}
	r.layer.set("wal.bytes_per_write", "B", bytesPerWrite)
	r.layer.set("wal.fsyncs_per_write", "count", fsyncsPerWrite)

	dir := filepath.Join(r.cfg.Dir, "replay-ckpt")
	_, ck, err := r.timed(0, "fsio.checkpoint", func() error { return saveCheckpoint(dir, m.Graph(), m.Dataset()) })
	if err != nil {
		return err
	}
	size := int64(0)
	for _, f := range []string{"graph.kfg", "data.kfd"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			return err
		}
		size += st.Size()
	}
	r.layer.set("fsio.checkpoint_s", "s", ck.Seconds())
	r.layer.set("arena.checkpoint_mb", "MB", float64(size)/(1<<20))
	return nil
}

// perWrite returns the deltas of the named /metrics counters over the
// scraped phases of a traced served run, each divided by the phases'
// acknowledged writes, and that write count.
func (r *run) perWrite(names ...string) ([]float64, float64) {
	deltas := make([]float64, len(names))
	writes := 0.0
	for _, ph := range r.phases {
		if ph.before == nil {
			continue
		}
		for j, n := range names {
			deltas[j] += ph.after[n] - ph.before[n]
		}
		for i := range ph.ops {
			if ackedWrites(&ph, i) {
				writes++
			}
		}
	}
	for j := range deltas {
		deltas[j] /= max(writes, 1)
	}
	return deltas, writes
}

// trafficLayers reports what the traced traffic itself showed: the
// server writer's batches per acknowledged write, generator lag, and the
// tracing overhead (traced minus untraced read p50 on the same base-rate
// ops).
func (r *run) trafficLayers() {
	batches, _ := r.perWrite("kiffserve_writer_batches_total")
	r.layer.set("server.writer.batches_per_write", "count", batches[0])
	r.layer.set("loadgen.lag_p99_ms", "ms", r.steps["base"].LagP99Ms)
	r.layer.set("trace.overhead_ms", "ms", r.steps["base"].ReadP50Ms-r.steps["base-untraced"].ReadP50Ms)
}

// layerNames lists every per-layer metric in the order they are
// documented; the traced run reports exactly these.
var layerNames = func() []string {
	names := []string{
		"dataset.load_s", "dataset.item_index_s", "rcs.build_s", "rcs.candidates_per_user",
		"engine.preprocess_s", "engine.candidates_s", "engine.similarity_s", "engine.iterations", "engine.alloc_mb",
		"similarity.sim_evals", "similarity.ns_per_eval", "knnheap.updates_per_eval",
	}
	for _, k := range []string{"neighbors", "query", "items"} {
		names = append(names, fmt.Sprintf("server.handler_us.%s.p50", k), fmt.Sprintf("server.handler_us.%s.p99", k))
	}
	return append(names,
		"server.self_us", "http.transport_us", "kiff.snapshot.neighbors_us",
		"core.query_us.p50", "core.query_us.p99", "core.candidates_per_query",
		"kiff.maintainer.add_rating_us", "kiff.maintainer.rebuild_ms", "kiff.maintainer.insert_ms",
		"similarity.sim_evals_per_write",
		"wal.append_us", "wal.fsync_us", "wal.bytes_per_write", "wal.fsyncs_per_write",
		"knngraph.publish_us", "knngraph.pages_copied_per_publish", "knngraph.pages_shared_per_publish",
		"fsio.checkpoint_s", "arena.checkpoint_mb", "server.writer.batches_per_write",
		"kiff.boot.load_mapped_s", "kiff.boot.warm_start_s", "loadgen.lag_p99_ms", "trace.overhead_ms")
}()
