package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running kiffserve process.
type serverProc struct {
	cmd    *exec.Cmd
	tg     *httpTarget
	stderr bytes.Buffer
	exited chan struct{}
}

// bootServer starts kiffserve over the checkpoint pair in ckpt, with its
// write-ahead log and checkpoints under dir, and waits until /healthz
// answers ok. It returns the time from exec to that answer.
func bootServer(bin, ckpt, dir string, workers, lanes int) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &serverProc{tg: newHTTPTarget("http://"+addr, lanes), exited: make(chan struct{})}
	s.cmd = exec.Command(bin,
		"-addr", addr,
		"-graph", filepath.Join(ckpt, "graph.kfg"),
		"-data", filepath.Join(ckpt, "data.kfd"),
		"-wal", filepath.Join(dir, "wal"), "-wal-sync", walSync,
		"-checkpoint", filepath.Join(dir, "ckpts"),
		"-workers", strconv.Itoa(workers))
	s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even if it dies.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is read from ProcessState in stop
		close(s.exited)
	}()
	for {
		body, err := s.tg.get(0, "/healthz")
		if err == nil && bytes.Contains(body, []byte(`"status":"ok"`)) {
			return s, time.Since(start), nil
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("kiffserve exited during boot: %s", s.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("kiffserve not healthy after 60s: %s", s.stderr.String())
		}
	}
}

// stop shuts the server down gracefully (SIGTERM, then SIGKILL after a
// grace period), waits for it, and returns its peak RSS in MiB.
func (s *serverProc) stop() (float64, error) {
	s.tg.close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return maxRSSMB(s.cmd.ProcessState), fmt.Errorf("kiffserve ignored SIGTERM")
	}
	if !s.cmd.ProcessState.Success() {
		return maxRSSMB(s.cmd.ProcessState), fmt.Errorf("kiffserve: %v: %s", s.cmd.ProcessState, s.stderr.String())
	}
	return maxRSSMB(s.cmd.ProcessState), nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// scrape reads GET /metrics and sums every sample of each metric name
// over its label sets.
func (s *serverProc) scrape() (map[string]float64, error) {
	body, err := s.tg.get(0, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}
