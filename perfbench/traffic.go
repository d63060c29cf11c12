package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"kiff"
	"kiff/internal/server"
)

// bootsPerRun is how many times a served run boots kiffserve; setup_s is
// the median boot, and the last boot serves the traffic.
const bootsPerRun = 5

// gateSample is the number of seeded requests each final-state check
// compares.
const gateSample = 200

// servedTraffic boots kiffserve over the first build's checkpoint and
// runs the workload's phases and correctness checks against it.
func (r *run) servedTraffic() error {
	bin := filepath.Join(r.cfg.Bin, "kiffserve")
	type span struct{ start, end time.Time }
	var boots []span
	var srv *serverProc
	for i := 0; i < bootsPerRun; i++ {
		s, d, err := bootServer(bin, r.ckpt0, filepath.Join(r.cfg.Dir, fmt.Sprintf("boot%d", i)), r.cfg.Workers, 2)
		r.attempted++
		if err != nil {
			return err
		}
		end := time.Now()
		boots = append(boots, span{end.Add(-d), end})
		if i < bootsPerRun-1 {
			if _, err := s.stop(); err != nil {
				return err
			}
		} else {
			srv = s
		}
	}
	h, err := r.speed.read()
	if err != nil {
		_, _ = srv.stop()
		return err
	}
	var bootS []float64
	for _, b := range boots {
		r.bootRawS = append(r.bootRawS, b.end.Sub(b.start).Seconds())
		bootS = append(bootS, b.end.Sub(b.start).Seconds()*h.scale(b.start, b.end))
	}
	r.m.set("setup_s", "s", median(bootS))
	// Whatever fails below, the server is stopped and waited for.
	stopped := false
	defer func() {
		if !stopped {
			_, _ = srv.stop()
		}
	}()

	if err := r.measured(srv.tg, srv); err != nil {
		return err
	}
	if r.cfg.Workload == "serve-read" {
		if err := r.checkReads(srv.tg); err != nil {
			return err
		}
	}
	if r.wl.writeTail {
		if err := r.writeTail(srv.tg, srv); err != nil {
			return err
		}
	}
	var final string
	if r.cfg.Workload == "serve-mixed" {
		var err error
		if final, err = r.finalCheckpoint(srv.tg); err != nil {
			return err
		}
		if err := r.checkWrites(srv.tg); err != nil {
			return err
		}
	}
	stopped = true
	rss, err := srv.stop()
	if err != nil {
		return err
	}
	r.m.set("peak_rss_mb", "MB", rss)
	if final != "" {
		return r.finalRecall(final)
	}
	return nil
}

// libTraffic runs the workload's phases against a Maintainer warm-started
// in-process from the first build's checkpoint.
func (r *run) libTraffic() error {
	m, err := loadMaintainer(r.ckpt0, r.cfg.Workers)
	if err != nil {
		return err
	}
	return r.measured(&libTarget{m: m, dir: r.cfg.Dir}, nil)
}

// loadMaintainer warm-starts a Maintainer from a checkpoint pair through
// the mapped loaders, as kiffserve does.
func loadMaintainer(dir string, workers int) (*kiff.Maintainer, error) {
	mg, err := kiff.LoadGraphMapped(filepath.Join(dir, "graph.kfg"))
	if err != nil {
		return nil, err
	}
	md, err := kiff.LoadDatasetMapped(filepath.Join(dir, "data.kfd"))
	if err != nil {
		return nil, err
	}
	return kiff.NewMaintainerFromGraph(md.Dataset(), mg.Graph(), kiff.Options{Workers: workers})
}

// libTarget serves ops from the library: reads from the Maintainer's
// current Snapshot, writes and checkpoints through the Maintainer (the
// write lane is its only writer).
type libTarget struct {
	m     *kiff.Maintainer
	dir   string
	ckpts int
}

func (l *libTarget) do(o *op) error {
	switch o.Kind {
	case opNeighbors:
		s := l.m.Snapshot()
		if int(o.User) >= s.NumUsers() {
			return fmt.Errorf("user %d not in snapshot", o.User)
		}
		_ = s.Neighbors(o.User)
		return nil
	case opQuery, opItems:
		_, err := l.m.Snapshot().Query(o.Profile, queryK, -1)
		return err
	case opRating:
		if err := l.m.AddRating(o.User, o.Item, o.Rating); err != nil {
			return err
		}
		return l.m.Rebuild(nil)
	case opInsert:
		_, err := l.m.InsertBatch([]kiff.Profile{o.Profile})
		return err
	default:
		l.ckpts++
		return saveCheckpoint(filepath.Join(l.dir, fmt.Sprintf("lib-ckpt%d", l.ckpts)), l.m.Graph(), l.m.Dataset())
	}
}

// checkReads compares a seeded sample of /neighbors and /query responses
// byte for byte with an in-process server over a kiff.Snapshot loaded
// from the same checkpoint.
func (r *run) checkReads(tg *httpTarget) error {
	_, ref, err := staticServer(r.ckpt0)
	if err != nil {
		return err
	}
	defer ref.Close()
	ops := r.pop.genPhase(r.cfg.Seed, -1, readOnly, gateSample, time.Second)
	mismatches := 0
	for i := range ops {
		got, err := tg.fetch(0, &ops[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, serveInProcess(ref.Handler(), &ops[i])) {
			mismatches++
		}
	}
	r.gate("serve-read.responses_equal_snapshot", mismatches == 0,
		fmt.Sprintf("%d of %d responses differ", mismatches, len(ops)))
	return nil
}

// staticServer loads a checkpoint pair through the mapped loaders into a
// read-only kiff.Snapshot and wraps it in an in-process server.
func staticServer(dir string) (*kiff.Snapshot, *server.Server, error) {
	mg, err := kiff.LoadGraphMapped(filepath.Join(dir, "graph.kfg"))
	if err != nil {
		return nil, nil, err
	}
	md, err := kiff.LoadDatasetMapped(filepath.Join(dir, "data.kfd"))
	if err != nil {
		return nil, nil, err
	}
	snap, err := kiff.NewSnapshot(mg.Graph(), md.Dataset(), kiff.Options{})
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{Static: snap})
	return snap, srv, err
}

// serveInProcess answers o through h without a network.
func serveInProcess(h http.Handler, o *op) []byte {
	method := http.MethodPost
	if o.Kind == opNeighbors {
		method = http.MethodGet
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, o.path(), bytes.NewReader(o.Body)))
	return rec.Body.Bytes()
}

// finalCheckpoint asks the server for a checkpoint of its state after
// every write and returns its directory.
func (r *run) finalCheckpoint(tg *httpTarget) (string, error) {
	body, err := r.checkpoint(tg)
	if err != nil {
		return "", err
	}
	var resp struct {
		Dir string `json:"dir"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", err
	}
	return resp.Dir, nil
}

// checkWrites replays the run's acknowledged writes, in the order the
// write lane sent them, through an in-process Maintainer loaded from the
// same starting checkpoint, and compares sampled users' final /neighbors
// lists with it.
func (r *run) checkWrites(tg *httpTarget) error {
	m, err := loadMaintainer(r.ckpt0, r.cfg.Workers)
	if err != nil {
		return err
	}
	replay := &libTarget{m: m, dir: r.cfg.Dir}
	writes := r.selectOps(math.MaxInt, ackedWrites)
	for _, o := range writes {
		if err := replay.do(o); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	snap := m.Snapshot()
	mismatches := 0
	for i := 0; i < gateSample; i++ {
		u := uint32(rng.Intn(snap.NumUsers()))
		body, err := tg.fetch(0, &op{Kind: opNeighbors, User: u})
		if err != nil {
			return err
		}
		var resp struct {
			Neighbors json.RawMessage `json:"neighbors"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if !bytes.Equal(resp.Neighbors, neighborsJSON(snap.Neighbors(u))) {
			mismatches++
		}
	}
	r.gate("serve-mixed.final_state_equals_replay", mismatches == 0,
		fmt.Sprintf("%d writes replayed; %d of %d sampled users differ", len(writes), mismatches, gateSample))
	return nil
}

// neighborsJSON encodes a neighbour list the way the server does.
func neighborsJSON(nbs []kiff.Neighbor) []byte {
	type nb struct {
		ID  uint32  `json:"id"`
		Sim float64 `json:"sim"`
	}
	out := make([]nb, len(nbs))
	for i, n := range nbs {
		out[i] = nb{n.ID, n.Sim}
	}
	b, _ := json.Marshal(out) // plain structs always encode
	return b
}

// finalRecall scores the graph of the final checkpoint against brute
// force over the final dataset.
func (r *run) finalRecall(dir string) error {
	g, err := kiff.LoadGraph(filepath.Join(dir, server.GraphCheckpointFile))
	if err != nil {
		return err
	}
	d, err := kiff.LoadDataset(filepath.Join(dir, server.DataCheckpointFile))
	if err != nil {
		return err
	}
	rec, err := kiff.Recall(d, g, buildOptions(r.cfg.Workers), recallSample)
	if err != nil {
		return err
	}
	r.m.set("recall", "ratio", rec)
	r.gate("serve-mixed.recall_floor", rec >= maintainedRecallFloor, fmt.Sprintf("recall %.4f", rec))
	return nil
}
