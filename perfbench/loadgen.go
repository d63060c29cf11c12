package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// target executes one request. httpTarget drives a kiffserve process;
// libTarget calls the library in-process.
type target interface {
	do(o *op) error
}

// outcome is what the generator observed for one op. Latency runs from
// the op's due time, not from when it was sent, so a stall also charges
// the requests queued behind it. Lag is how late the op was sent,
// including any wait for the lane's previous request; Overshoot is the
// part of it the generator itself caused (sent minus the later of the
// due time and the moment the lane became free).
type outcome struct {
	Kind      opKind
	Latency   time.Duration
	Lag       time.Duration
	Overshoot time.Duration
	Service   time.Duration // sent to response read
	Err       error
	// Scale turns Latency into reference time (see hostspeed.go).
	Scale float64
}

// waitUntil blocks until t. Go's timers wake a sleeper up to a
// millisecond late for sleeps under a millisecond, and spinning until the
// due time would take a CPU from the server on a small machine, so the
// wait blocks the thread in nanosleep(2) — which wakes within about a
// tenth of a millisecond — until wakeEarly before t, and yields in a
// loop for the rest.
const wakeEarly = 70 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - wakeEarly; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // on EINTR the loop below finishes the wait
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpenLoop sends ops on their schedule, one goroutine per lane, each
// lane sending its ops in order and never more than one at a time (one
// connection per lane). It returns one outcome per op, in ops order.
// With a tracer, every request becomes a span under parent. With
// abortLag > 0 a lane stops once it sends that late, and its remaining
// ops are marked errAborted (a ladder probe has failed by then).
// Op offsets count from start.
func runOpenLoop(tg target, ops []op, lanes int, start time.Time, abortLag time.Duration, tr *tracer, parent int64) []outcome {
	out := make([]outcome, len(ops))
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for i := range ops {
				o := &ops[i]
				if o.Lane != lane {
					continue
				}
				due := start.Add(o.Due)
				waitUntil(due)
				sent := time.Now()
				ready := due
				if free.After(due) {
					ready = free
				}
				if abortLag > 0 && sent.Sub(due) > abortLag {
					out[i] = outcome{Kind: o.Kind, Latency: sent.Sub(due), Lag: sent.Sub(due), Err: errAborted}
					continue
				}
				err := tg.do(o)
				end := time.Now()
				free = end
				out[i] = outcome{Kind: o.Kind, Latency: end.Sub(due), Lag: sent.Sub(due),
					Overshoot: sent.Sub(ready), Service: end.Sub(sent), Err: err}
				tr.add(parent, int64(i+1), o.Kind.String(), sent, end)
			}
		}()
	}
	wg.Wait()
	return out
}

var errAborted = errors.New("not sent: the lane fell too far behind")

// httpTarget sends each lane's requests over that lane's own client,
// whose transport holds at most one connection.
type httpTarget struct {
	base    string
	clients []*http.Client
}

func newHTTPTarget(base string, lanes int) *httpTarget {
	t := &httpTarget{base: base}
	for i := 0; i < lanes; i++ {
		t.clients = append(t.clients, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return t
}

func (t *httpTarget) do(o *op) error {
	_, err := t.fetch(o.Lane, o)
	return err
}

// fetch performs o on lane's connection and returns the response body;
// a non-2xx status is an error.
func (t *httpTarget) fetch(lane int, o *op) ([]byte, error) {
	var req *http.Request
	var err error
	if o.Kind == opNeighbors {
		req, err = http.NewRequest(http.MethodGet, t.base+o.path(), nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, t.base+o.path(), bytes.NewReader(o.Body))
	}
	if err != nil {
		return nil, err
	}
	return t.send(lane, req)
}

func (t *httpTarget) get(lane int, path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, t.base+path, nil)
	if err != nil {
		return nil, err
	}
	return t.send(lane, req)
}

func (t *httpTarget) send(lane int, req *http.Request) ([]byte, error) {
	resp, err := t.clients[lane].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	return b, nil
}

func (t *httpTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}
