package main

import (
	"cmp"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. On a shared virtual machine the same code runs at a speed
// that changes with what other tenants do: on the two-CPU machine this
// benchmark was written on, one cold build of the same fixture took
// 0.8 s in some minutes and 1.8 s in others, with no CPU time stolen,
// and the build's own CPU time moved with it. A timing that is compared
// across runs has to be taken at one speed.
//
// So every run keeps a calibration process beside it. Every
// samplePeriod it runs a fixed kernel and records the CPU time its thread
// took for it (CPU time, so being scheduled out does not count). The
// gated timings are scaled by refKernel ÷ the mean kernel time sampled
// while they were measured: a timing in reference seconds is the time the
// work would have taken on a machine that runs the kernel in refKernel.
// A slower program still takes longer at any host speed, so a regression
// shows; a slower host slows the kernel too, so it does not. The raw
// timings stay in the run record.

// samplePeriod is how often the calibration process runs the kernel; at
// about 0.25 ms per kernel it takes 2.5 % of one CPU.
const samplePeriod = 10 * time.Millisecond

// refKernel is the kernel's CPU time on the reference machine. It fixes
// only the unit: on the two-CPU Xeon this benchmark was written on, the
// kernel took 170–260 µs, depending on the minute.
const refKernel = 200 * time.Microsecond

// The kernel is hash-map work: kernelOps inserts into a fresh small map
// (allocation and cache-resident work), then tableOps updates of random
// keys in a map too large for the CPU's private caches. Of the kernels
// tried against concurrent cold builds (this one, a pure ALU loop, a
// pointer chase and a sparse merge-join), its time tracked the builds'
// time best.
const (
	kernelOps = 1500
	tableOps  = 300
	tableKeys = 1 << 19
)

// calKernel holds the kernel's large map.
type calKernel struct{ table map[uint32]uint32 }

func newCalKernel() *calKernel {
	k := &calKernel{table: make(map[uint32]uint32, tableKeys)}
	for i := uint32(0); i < tableKeys; i++ {
		k.table[i*2654435761] = i
	}
	return k
}

// run runs the kernel once.
func (k *calKernel) run() {
	m := make(map[uint32]uint32, 64)
	x := uint32(7)
	for i := 0; i < kernelOps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		m[x&0x3fff] += x
	}
	for i := 0; i < tableOps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.table[(x%tableKeys)*2654435761]++
	}
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrate is the calibration process's entry point: it appends one
// 16-byte record (wall-clock end in Unix ns, kernel CPU ns) per sample
// to -out until it is sent SIGTERM.
func calibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	out := fs.String("out", "", "file to append samples to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.OpenFile(*out, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	k := newCalKernel()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM)
	runtime.LockOSThread()
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	var rec [16]byte
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		c := threadCPU()
		k.run()
		d := threadCPU() - c
		binary.LittleEndian.PutUint64(rec[:8], uint64(time.Now().UnixNano()))
		binary.LittleEndian.PutUint64(rec[8:], uint64(d))
		if _, err := f.Write(rec[:]); err != nil {
			return err
		}
	}
}

// hostSampler is a running calibration process.
type hostSampler struct {
	cmd    *exec.Cmd
	path   string
	exited chan struct{}
}

// startSampler starts the calibration process, writing to path.
func startSampler(path string) (*hostSampler, error) {
	s := &hostSampler{path: path, exited: make(chan struct{})}
	s.cmd = exec.Command(os.Args[0], "calibrate", "-out", path)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	s.cmd.Stderr = os.Stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// stop ends the calibration process and waits for it.
func (s *hostSampler) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// speedSample is one kernel run: when it ended and its CPU time.
type speedSample struct {
	at  int64 // Unix ns
	cpu float64
}

// hostSpeed is the samples taken so far, in time order, with prefix sums
// for interval means.
type hostSpeed struct {
	at  []int64
	sum []float64 // sum[i] = cpu of samples [0, i)
}

// read loads every sample written so far.
func (s *hostSampler) read() (*hostSpeed, error) {
	b, err := os.ReadFile(s.path)
	if err != nil {
		return nil, err
	}
	b = b[:len(b)/16*16] // a record being written is not read
	var smp []speedSample
	for i := 0; i < len(b); i += 16 {
		smp = append(smp, speedSample{
			at:  int64(binary.LittleEndian.Uint64(b[i:])),
			cpu: float64(binary.LittleEndian.Uint64(b[i+8:])),
		})
	}
	if len(smp) < minSpeedSamples {
		return nil, errors.New("the calibration process took too few samples")
	}
	return newHostSpeed(smp), nil
}

func newHostSpeed(smp []speedSample) *hostSpeed {
	slices.SortFunc(smp, func(a, b speedSample) int { return cmp.Compare(a.at, b.at) })
	h := &hostSpeed{sum: make([]float64, len(smp)+1)}
	for i, s := range smp {
		h.at = append(h.at, s.at)
		h.sum[i+1] = h.sum[i] + s.cpu
	}
	return h
}

// minSpeedSamples is the fewest samples a scale is taken over; an
// interval shorter than that many sample periods is widened on both
// sides.
const minSpeedSamples = 10

// scale is refKernel ÷ the mean kernel time sampled in [a, b]: the factor
// that turns a timing measured over that interval into reference time.
func (h *hostSpeed) scale(a, b time.Time) float64 {
	lo, _ := slices.BinarySearch(h.at, a.UnixNano())
	hi, _ := slices.BinarySearch(h.at, b.UnixNano()+1)
	for hi-lo < minSpeedSamples && (lo > 0 || hi < len(h.at)) {
		lo, hi = max(lo-1, 0), min(hi+1, len(h.at))
	}
	mean := (h.sum[hi] - h.sum[lo]) / float64(hi-lo)
	return float64(refKernel) / mean
}

// meanUs is the mean kernel CPU time of every sample, in µs.
func (h *hostSpeed) meanUs() float64 {
	return h.sum[len(h.at)] / float64(len(h.at)) / 1e3
}
