package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// host is the fingerprint of the machine a record was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// runRecord is the comparable record of one run, written next to the
// result line: every metric with its unit, the settings that produced
// it, and the raw per-phase figures.
type runRecord struct {
	Host       host                 `json:"host"`
	Config     config               `json:"config"`
	Why        string               `json:"why"`
	Rates      map[string]float64   `json:"rates_per_s"`
	WALSync    string               `json:"wal_sync"`
	Limits     limits               `json:"latency_limits"`
	Metrics    map[string]metricVal `json:"metrics"`
	Tails      map[string]metricVal `json:"tails"`
	Layers     map[string]metricVal `json:"per_layer,omitempty"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Checks     []check              `json:"checks"`
	Builds     []buildReport        `json:"builds"`
	BootRawS   []float64            `json:"boot_raw_s,omitempty"`
	Steps      map[string]stepStats `json:"steps"`
	Probes     []stepStats          `json:"ladder_probes"`
	Checkpoint []float64            `json:"checkpoint_ms"`
	TailPctile map[string]float64   `json:"supported_tail_percentile"`
	// StealShare is the share of CPU time the hypervisor took from this
	// machine during the run (0 on bare metal): interference from other
	// tenants, which no benchmark setting controls.
	StealShare float64 `json:"steal_share"`
	// HostKernelUs is the calibration kernel's mean CPU time over the
	// run (see hostspeed.go): above refKernel, the host ran slow.
	HostKernelUs float64 `json:"host_kernel_us"`
}

func (r *run) record() runRecord {
	tails := make(map[string]float64)
	for name, s := range r.steps {
		tails[name+".reads"] = supportedTail(s.Reads)
		tails[name+".writes"] = supportedTail(s.Writes)
	}
	rec := runRecord{
		Host:       fingerprint(),
		Config:     r.cfg,
		Why:        r.wl.why,
		Rates:      map[string]float64{"base": r.wl.base, "peak": r.wl.peak},
		WALSync:    walSync,
		Limits:     sloLimits,
		Metrics:    r.m.vals,
		Tails:      r.tails.vals,
		Layers:     r.layerVals(),
		Correct:    r.failed == 0,
		Attempted:  r.attempted,
		Failed:     r.failed,
		Checks:     r.checks,
		Builds:     r.builds,
		BootRawS:   r.bootRawS,
		Steps:      r.steps,
		Probes:     r.probes,
		Checkpoint: r.checkpointMs,
		TailPctile: tails,
		StealShare: r.cpu.share(readCPUTimes()),
	}
	if h, err := r.speed.read(); err == nil {
		rec.HostKernelUs = h.meanUs()
	}
	return rec
}

func (r *run) layerVals() map[string]metricVal {
	if r.layer == nil {
		return nil
	}
	return r.layer.vals
}

// cpuTimes are the machine-wide totals of /proc/stat's first line.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user … steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// share is the steal share of the CPU time between t and now.
func (t cpuTimes) share(now cpuTimes) float64 {
	if now.total <= t.total {
		return 0
	}
	return (now.steal - t.steal) / (now.total - t.total)
}

func fingerprint() host {
	h := host{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func merge(ms ...map[string]metricVal) map[string]metricVal {
	out := make(map[string]metricVal)
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// spreadMain reads run records and prints, per workload and metric, the
// median, the quartiles and the quartile spread as a share of the
// median — the figures runs are compared by.
func spreadMain(paths []string, w io.Writer) error {
	type key struct{ workload, metric string }
	vals := make(map[key][]float64)
	units := make(map[key]string)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec runRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for name, v := range merge(rec.Metrics, rec.Tails, rec.Layers) {
			k := key{rec.Config.Workload, name}
			vals[k] = append(vals[k], v.Value)
			units[k] = v.Unit
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := strings.Compare(a.workload, b.workload); c != 0 {
			return c
		}
		return strings.Compare(a.metric, b.metric)
	})
	fmt.Fprintf(w, "%-12s %-36s %4s %14s %14s %14s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread")
	for _, k := range keys {
		v := vals[k]
		q := quartiles(v)
		fmt.Fprintf(w, "%-12s %-36s %4d %14.6g %14.6g %14.6g %8.4f %s\n",
			k.workload, k.metric, len(v), q[0], q[1], q[2], relSpread(v), units[k])
	}
	return nil
}
