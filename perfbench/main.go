// Command perfbench is the repository's benchmark: it generates the
// Arxiv-replica fixture from a seed, cold-builds KIFF graphs over it in
// fresh processes, and drives either the library in-process (workload
// build) or a real kiffserve process over loopback HTTP (serve-read,
// serve-mixed) with an open-loop request schedule. It checks the outputs
// and prints one JSON result line; see README.md.
//
//	perfbench --workload serve-read --seed 1 --seconds 20 --trace 0
//	perfbench spread RECORD.json...
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "build-once":
			err = buildOnce(os.Args[2:])
		case "calibrate":
			err = calibrate(os.Args[2:])
		case "spread":
			err = spreadMain(os.Args[2:], os.Stdout)
		default:
			err = benchMain(os.Args[1:])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
	os.Exit(2)
}

// config is one benchmark run's settings.
type config struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Workers  int    `json:"workers"`
	Bin      string `json:"-"` // directory holding the kiffserve binary
	Dir      string `json:"-"` // scratch directory of this run
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.Workload, "workload", "", "build, serve-read or serve-mixed")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.Seconds, "seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.Bin, "bin", ".bench_build/bin", "directory holding kiffserve")
	out := fs.String("out", ".bench_build", "directory for run scratch, records and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[cfg.Workload]; !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds < 1 {
		return errors.New("--seconds must be ≥ 1")
	}
	cfg.Trace = *trace == 1
	cfg.Workers = min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(cfg.Workers)
	// The generator's own garbage collections pause its lanes; collect
	// less often.
	debug.SetGCPercent(200)
	var err error
	if cfg.Bin, err = filepath.Abs(cfg.Bin); err != nil {
		return err
	}
	stamp := fmt.Sprintf("%s-s%d-t%d-%d", cfg.Workload, cfg.Seed, *trace, time.Now().UnixNano())
	cfg.Dir, err = filepath.Abs(filepath.Join(*out, "runs", stamp))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.Dir)

	speed, err := startSampler(filepath.Join(cfg.Dir, "hostspeed.bin"))
	if err != nil {
		return err
	}
	defer speed.stop()
	r := &run{cfg: cfg, m: newMetrics(), tails: newMetrics(), speed: speed}
	if cfg.Trace {
		r.tr = newTracer()
	}
	if err := r.execute(); err != nil {
		return err
	}
	rec := r.record()
	for _, sub := range []string{"records", "traces"} {
		if err := os.MkdirAll(filepath.Join(*out, sub), 0o755); err != nil {
			return err
		}
	}
	if err := writeJSONFile(filepath.Join(*out, "records", stamp+".json"), rec); err != nil {
		return err
	}
	if err := r.tr.flush(filepath.Join(*out, "traces", stamp+".jsonl")); err != nil {
		return err
	}
	for _, c := range r.checks {
		fmt.Printf("check %-40s %v\n", c.Name, c.OK)
	}
	line, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.reported().vals,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// reported is the metric set the result line carries: the end-to-end
// metrics, or the per-layer ones in a traced run.
func (r *run) reported() *metrics {
	if r.cfg.Trace {
		return r.layer
	}
	return r.m
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics holds the values one run reports.
type metrics struct{ vals map[string]metricVal }

func newMetrics() *metrics { return &metrics{vals: make(map[string]metricVal)} }

func (m *metrics) set(name, unit string, v float64) { m.vals[name] = metricVal{v, unit} }

// require fails unless every name has been set.
func (m *metrics) require(names []string) error {
	for _, n := range names {
		if _, ok := m.vals[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
