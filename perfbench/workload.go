package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kiff"
)

// workload describes one traffic mix over the fixture. Every workload
// cold-builds the fixture in fresh processes first (the graph a server
// serves has to be built), then sends its traffic: in-process to the
// library for build, over HTTP to kiffserve for the serve workloads.
type workload struct {
	why string
	// lib drives kiff.Maintainer/Snapshot in-process instead of a
	// kiffserve process.
	lib bool
	// buildShare is the share of --seconds spent on cold builds; at
	// least minBuilds run whatever it is.
	buildShare float64
	// mix, base and peak define the measured traffic; rates in req/s.
	mix        mix
	base, peak float64
	// baseShare and peakShare are the shares of --seconds the two fixed
	// rates run for; the qps_at_slo ladder probes run after them.
	baseShare, peakShare float64
	// writeTail adds a write-only phase at the read/write mix's base
	// write rate after the read phases, so a read-only workload still
	// reports write latency without writes running under its reads.
	writeTail bool
}

const minBuilds = 7

// mixedBase and mixedPeak are the total request rates of the read/write
// mix; writeTail phases run at their write share.
const (
	mixedBase = 400.0
	mixedPeak = 700.0
)

var workloads = map[string]workload{
	"build": {
		why:        "cold KIFF builds of the Arxiv replica in fresh processes, then the read/write mix on the library in-process: construction shows, server/HTTP/WAL changes read flat",
		lib:        true,
		buildShare: 0.45,
		mix:        readWrite, base: mixedBase, peak: mixedPeak,
		baseShare: 0.35, peakShare: 0.1,
	},
	"serve-read": {
		why:        "read-only open-loop traffic on kiffserve over loopback: snapshot reads and exact queries bypass the writer, WAL, rebuild and publish",
		buildShare: 0,
		mix:        readOnly, base: 1000, peak: 1600,
		baseShare: 0.4, peakShare: 0.1,
		writeTail: true,
	},
	"serve-mixed": {
		why:        "reads on one connection while single writes run one at a time on the other: WAL fsync, Rebuild, copy-on-write publish and checkpoints under reads",
		buildShare: 0,
		mix:        readWrite, base: mixedBase, peak: mixedPeak,
		baseShare: 0.55, peakShare: 0.15,
	},
}

// walSync is the write-ahead-log fsync policy of every served run.
const walSync = "always"

// recall floors: a cold build on the fixture scores about 0.99; the
// maintained graph after the run's writes stays close to it.
const (
	buildRecallFloor      = 0.95
	maintainedRecallFloor = 0.90
)

// check is one correctness gate's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// run is one benchmark invocation in progress.
type run struct {
	cfg       config
	wl        workload
	tr        *tracer
	speed     *hostSampler
	m         *metrics
	attempted int
	failed    int
	checks    []check

	edges  string // fixture edge list
	ckpt0  string // checkpoint pair of the first cold build
	fix    *kiff.Dataset
	pop    *population
	builds []buildReport
	steps  map[string]stepStats
	probes []stepStats
	phases []phaseRun // every traffic phase in order
	seq    int        // sequence number of the next seeded phase
	layer  *metrics   // per-layer metrics (traced runs)
	tails  *metrics   // tail latencies and qps_at_slo (run record only)
	cpu    cpuTimes   // CPU times at the start of the run
	// bootRawS are the measured kiffserve boot times (setup_s is in
	// reference seconds).
	bootRawS []float64
	// checkpointMs are the latencies of the checkpoints between phases.
	checkpointMs []float64
}

// phaseRun is one traffic phase: its ops and what the generator saw.
type phaseRun struct {
	name string
	ops  []op
	out  []outcome
	// before and after are /metrics scrapes (traced served runs only).
	before, after map[string]float64
}

func (r *run) gate(name string, ok bool, detail string) {
	r.attempted++
	if !ok {
		r.failed++
	}
	r.checks = append(r.checks, check{name, ok, detail})
}

func (r *run) execute() error {
	r.wl = workloads[r.cfg.Workload]
	r.steps = make(map[string]stepStats)
	r.cpu = readCPUTimes()
	if err := r.prepareFixture(); err != nil {
		return err
	}
	if err := r.coldBuilds(); err != nil {
		return err
	}
	if r.wl.lib {
		if err := r.libTraffic(); err != nil {
			return err
		}
	} else if err := r.servedTraffic(); err != nil {
		return err
	}
	r.trafficMetrics()
	if err := r.m.require(e2eNames); err != nil {
		return err
	}
	if r.cfg.Trace {
		if err := r.measureLayers(); err != nil {
			return err
		}
		return r.layer.require(layerNames)
	}
	return nil
}

// prepareFixture generates the Arxiv replica at published size from the
// seed, writes it as an edge list, and reloads it the way every build
// process will, so user IDs match the served graph.
func (r *run) prepareFixture() error {
	ds, err := kiff.GeneratePreset("arxiv", 1, r.cfg.Seed)
	if err != nil {
		return err
	}
	r.edges = filepath.Join(r.cfg.Dir, "edges.tsv")
	f, err := os.Create(r.edges)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := kiff.WriteDataset(w, ds); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if r.fix, err = kiff.LoadFile(r.edges, kiff.LoadOptions{Name: "arxiv"}); err != nil {
		return err
	}
	r.pop = newPopulation(r.fix, r.cfg.Seed)
	return nil
}

// coldBuilds runs builds in fresh processes until the workload's build
// share of --seconds is spent (at least minBuilds). The first one also
// scores recall and saves the checkpoint pair everything later serves.
func (r *run) coldBuilds() error {
	r.ckpt0 = filepath.Join(r.cfg.Dir, "ckpt0")
	budget := time.Duration(r.wl.buildShare * float64(r.cfg.Seconds) * float64(time.Second))
	start := time.Now()
	for i := 0; i < minBuilds || time.Since(start) < budget; i++ {
		save := ""
		if i == 0 {
			save = r.ckpt0
		}
		rep, err := runBuildChild(r.edges, r.cfg.Workers, i == 0, save)
		r.attempted++
		if err != nil {
			return err
		}
		r.builds = append(r.builds, rep)
	}
	h, err := r.speed.read()
	if err != nil {
		return err
	}
	first := r.builds[0]
	same := true
	var buildS, loadS, rss []float64
	for i := range r.builds {
		b := &r.builds[i]
		b.LoadS = b.LoadRawS * h.scale(time.Unix(0, b.LoadSpan[0]), time.Unix(0, b.LoadSpan[1]))
		b.BuildS = b.BuildRawS * h.scale(time.Unix(0, b.BuildSpan[0]), time.Unix(0, b.BuildSpan[1]))
		same = same && b.SimEvals == first.SimEvals
		buildS, loadS, rss = append(buildS, b.BuildS), append(loadS, b.LoadS), append(rss, b.RSSMB)
	}
	r.gate("build.sim_evals_repeat", same, fmt.Sprintf("%d builds, first %d evals", len(r.builds), first.SimEvals))
	r.m.set("build_s", "s", median(buildS))
	r.m.set("scan_rate", "ratio", first.ScanRate)
	r.m.set("recall", "ratio", first.Recall)
	if r.wl.lib {
		r.m.set("setup_s", "s", median(loadS))
		r.m.set("peak_rss_mb", "MB", median(rss))
	}
	if r.cfg.Workload != "serve-mixed" {
		r.gate("build.recall_floor", first.Recall >= buildRecallFloor, fmt.Sprintf("recall %.4f", first.Recall))
	}
	return nil
}

// phaseSpec is one traffic phase to run.
type phaseSpec struct {
	name string
	mix  mix
	rate float64 // req/s
	dur  time.Duration
	// probe marks a ladder probe: it stops once a lane falls
	// probeAbortLag behind, and its unsent ops are not counted.
	probe bool
	// untraced runs the phase without spans and re-uses the next
	// phase's sequence: the untraced twin of a traced phase.
	untraced bool
}

// phase runs one seeded traffic phase against tg and records it.
func (r *run) phase(tg target, srv *serverProc, ps phaseSpec) (stepStats, error) {
	ops := r.pop.genPhase(r.cfg.Seed, r.seq, ps.mix, ps.rate, ps.dur)
	tr := r.tr
	if ps.untraced {
		tr = nil
	} else {
		r.seq++
	}
	pr := phaseRun{name: ps.name, ops: ops}
	var err error
	if r.cfg.Trace && srv != nil {
		if pr.before, err = srv.scrape(); err != nil {
			return stepStats{}, err
		}
	}
	abort := time.Duration(0)
	if ps.probe {
		abort = probeAbortLag
	}
	id, start := tr.reserve(), time.Now().Add(20*time.Millisecond)
	pr.out = runOpenLoop(tg, ops, 2, start, abort, tr, id)
	tr.record(id, 0, 0, "phase/"+ps.name, start, time.Now())
	if r.cfg.Trace && srv != nil {
		if pr.after, err = srv.scrape(); err != nil {
			return stepStats{}, err
		}
	}
	h, err := r.speed.read()
	if err != nil {
		return stepStats{}, err
	}
	for i := range pr.out {
		due := start.Add(ops[i].Due)
		pr.out[i].Scale = h.scale(due.Add(-scaleWindow/2), due.Add(scaleWindow/2))
	}
	timed := pr.out
	if r.wl.lib {
		// No queue stands in front of an in-process call, so a library
		// request's latency is the call's own time; the lane's wait
		// still shows as lag and backlog. Only the exact queries are
		// timed among the reads: in process, Snapshot.Neighbors is an
		// atomic load and a slice return, too little work for a figure.
		timed = nil
		for i := range pr.out {
			pr.out[i].Latency = pr.out[i].Service
			if pr.out[i].Kind != opNeighbors {
				timed = append(timed, pr.out[i])
			}
		}
	}
	r.phases = append(r.phases, pr)
	for _, o := range pr.out {
		if o.Err == errAborted {
			continue
		}
		r.attempted++
		if o.Err != nil {
			r.failed++
		}
	}
	st := summarize(ps.rate, timed)
	r.steps[ps.name] = st
	return st, nil
}

// checkpoint sends one checkpoint request on the write lane between
// phases and returns its response body. Checkpoints run between the
// fixed-rate phases, so write latency there is the steady state's; a
// checkpoint's own cost is recorded in checkpointMs and, per layer, in
// fsio.checkpoint_s.
func (r *run) checkpoint(tg target) ([]byte, error) {
	o := &op{Kind: opCheckpoint, Lane: 1}
	start := time.Now()
	var body []byte
	var err error
	if h, ok := tg.(*httpTarget); ok {
		body, err = h.fetch(1, o)
	} else {
		err = tg.do(o)
	}
	r.tr.add(0, 0, "checkpoint", start, time.Now())
	r.attempted++
	if err != nil {
		r.failed++
		return nil, err
	}
	r.checkpointMs = append(r.checkpointMs, float64(time.Since(start))/1e6)
	return body, nil
}

// share converts a share of --seconds to a duration.
func (r *run) share(s float64) time.Duration {
	return time.Duration(s * float64(r.cfg.Seconds) * float64(time.Second))
}

// measured runs the two fixed rates and the qps_at_slo ladder. A
// traced run first runs the base phase untraced on the same ops, for the
// tracing overhead.
func (r *run) measured(tg target, srv *serverProc) error {
	specs := []phaseSpec{
		{name: "base", mix: r.wl.mix, rate: r.wl.base, dur: r.share(r.wl.baseShare)},
		{name: "peak", mix: r.wl.mix, rate: r.wl.peak, dur: r.share(r.wl.peakShare)},
	}
	if r.cfg.Trace {
		twin := specs[0]
		twin.name, twin.untraced = "base-untraced", true
		specs = append([]phaseSpec{twin}, specs...)
	}
	for _, ps := range specs {
		if _, err := r.phase(tg, srv, ps); err != nil {
			return err
		}
		if ps.mix.writeShare > 0 {
			if _, err := r.checkpoint(tg); err != nil {
				return err
			}
		}
	}
	base, peak := r.steps["base"], r.steps["peak"]
	rungs := ladder(r.wl.base/4, ladderRatio, ladderRungs)
	known := -1
	switch {
	case sloLimits.meets(peak):
		known = rungAtOrBelow(rungs, r.wl.peak)
	case sloLimits.meets(base):
		known = rungAtOrBelow(rungs, r.wl.base)
	}
	var err error
	best, probes := searchSLO(rungs, known, sloLimits, func(rate float64) stepStats {
		ps := phaseSpec{name: fmt.Sprintf("probe-%.0f", rate), mix: r.wl.mix, rate: rate, dur: probeLength, probe: true}
		s, perr := r.phase(tg, srv, ps)
		if perr != nil {
			err = perr
		}
		return s
	})
	if err != nil {
		return err
	}
	r.probes = probes
	qps := 0.0
	if best >= 0 {
		qps = rungs[best]
	}
	r.tails.set("qps_at_slo", "req/s", qps)
	return nil
}

// The qps_at_slo ladder: rates from a quarter of the base rate upward in
// steps of 2^(1/4) (≈ 19 %), up to 8× the base rate. Bisecting it from
// the peak rate takes three or four one-second probes.
const (
	ladderRatio = 1.189207115002721
	ladderRungs = 21
)

// rungAtOrBelow is the index of the highest rung ≤ rate.
func rungAtOrBelow(rungs []float64, rate float64) int {
	i := 0
	for i+1 < len(rungs) && rungs[i+1] <= rate*(1+1e-9) {
		i++
	}
	return i
}

// writeTail runs a write-only phase at the read/write mix's base write
// rate.
func (r *run) writeTail(tg target, srv *serverProc) error {
	_, err := r.phase(tg, srv, phaseSpec{name: "write-base", mix: writeOnly,
		rate: mixedBase * readWrite.writeShare, dur: r.share(0.25)})
	return err
}

// e2eNames lists every end-to-end metric; each run reports all of them.
var e2eNames = []string{
	"setup_s", "build_s", "scan_rate", "recall", "peak_rss_mb", "read_p50_ms", "write_p50_ms",
}

// trafficMetrics reports the latency figures of the fixed-rate phases:
// the medians as end-to-end metrics, the tails and qps_at_slo in the run
// record only (see README.md: on a shared two-CPU machine they vary
// between runs by more than any bound a regression gate could use).
func (r *run) trafficMetrics() {
	base, peak := r.steps["base"], r.steps["peak"]
	r.m.set("read_p50_ms", "ms", base.ReadP50Ms)
	r.tails.set("read_p99_ms", "ms", base.ReadP99Ms)
	r.tails.set("read_p50_ms.peak", "ms", peak.ReadP50Ms)
	r.tails.set("read_p99_ms.peak", "ms", peak.ReadP99Ms)
	if r.wl.writeTail {
		tail := r.steps["write-base"]
		r.m.set("write_p50_ms", "ms", tail.WriteP50Ms)
		r.tails.set("write_p99_ms", "ms", tail.WriteP99Ms)
		return
	}
	r.m.set("write_p50_ms", "ms", base.WriteP50Ms)
	r.tails.set("write_p99_ms", "ms", base.WriteP99Ms)
	r.tails.set("write_p50_ms.peak", "ms", peak.WriteP50Ms)
	r.tails.set("write_p99_ms.peak", "ms", peak.WriteP99Ms)
}
