package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"kiff"
)

// buildReport is what one fresh build process prints.
type buildReport struct {
	// LoadS and BuildS are in reference seconds (see hostspeed.go), the
	// Raw fields as measured; the spans are wall-clock Unix ns.
	LoadS      float64  `json:"load_s"`
	BuildS     float64  `json:"build_s"`
	LoadRawS   float64  `json:"load_raw_s"`
	BuildRawS  float64  `json:"build_raw_s"`
	LoadSpan   [2]int64 `json:"load_span"`
	BuildSpan  [2]int64 `json:"build_span"`
	SimEvals   int64    `json:"sim_evals"`
	ScanRate   float64  `json:"scan_rate"`
	Iterations int      `json:"iterations"`
	Recall     float64  `json:"recall"`
	RSSMB      float64  `json:"rss_mb"` // filled by the parent from the child's rusage
}

// buildOptions are the paper's default KIFF options (γ = 2k, β = 0.001)
// at the fixture's k.
func buildOptions(workers int) kiff.Options {
	return kiff.Options{K: queryK, Workers: workers}
}

// recallSample is the number of users whose exact neighbourhoods recall
// is scored against; the sample is fixed by Options.Seed = 0.
const recallSample = 200

// buildOnce is the child-process entry point: parse the edge list, build
// once, optionally score recall and save the checkpoint pair, and print
// a buildReport.
func buildOnce(args []string) error {
	fs := flag.NewFlagSet("build-once", flag.ContinueOnError)
	edges := fs.String("edges", "", "edge list to load")
	workers := fs.Int("workers", 2, "build workers")
	recall := fs.Bool("recall", false, "score recall on the fixed sample")
	save := fs.String("save", "", "directory to save graph.kfg and data.kfd into")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := time.Now()
	d, err := kiff.LoadFile(*edges, kiff.LoadOptions{Name: "arxiv"})
	if err != nil {
		return err
	}
	end := time.Now()
	rep := buildReport{LoadRawS: end.Sub(t).Seconds(), LoadSpan: [2]int64{t.UnixNano(), end.UnixNano()}}
	opts := buildOptions(*workers)
	t = time.Now()
	res, err := kiff.Build(d, opts)
	if err != nil {
		return err
	}
	end = time.Now()
	rep.BuildRawS, rep.BuildSpan = end.Sub(t).Seconds(), [2]int64{t.UnixNano(), end.UnixNano()}
	rep.SimEvals, rep.ScanRate, rep.Iterations = res.Run.SimEvals, res.Run.ScanRate(), res.Run.Iterations
	if *recall {
		if rep.Recall, err = kiff.Recall(d, res.Graph, opts, recallSample); err != nil {
			return err
		}
	}
	if *save != "" {
		if err := saveCheckpoint(*save, res.Graph, d); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func saveCheckpoint(dir string, g *kiff.Graph, d *kiff.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := kiff.SaveGraph(filepath.Join(dir, "graph.kfg"), g); err != nil {
		return err
	}
	return kiff.SaveDataset(filepath.Join(dir, "data.kfd"), d)
}

// runBuildChild runs one build in a fresh process of this binary and
// returns its report with the process's peak RSS.
func runBuildChild(edges string, workers int, recall bool, save string) (buildReport, error) {
	args := []string{"build-once", "-edges", edges, "-workers", fmt.Sprint(workers)}
	if recall {
		args = append(args, "-recall")
	}
	if save != "" {
		args = append(args, "-save", save)
	}
	cmd := exec.Command(os.Args[0], args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	var rep buildReport
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("build process: %v: %s", err, stderr.String())
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("build process output: %w", err)
	}
	rep.RSSMB = maxRSSMB(cmd.ProcessState)
	return rep, nil
}

// maxRSSMB is a finished process's peak resident set in MiB.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}
