package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"ppamcp/internal/ppa"
)

// config sizes a run. The defaults are the benchmark; the self-check
// shrinks every knob to run all workloads in seconds.
type config struct {
	N         int           // vertices per graph
	Seconds   float64       // measured phase length
	SetupReps int           // stack boots setup_s is the median of
	Suite     time.Duration // time budget per layer-suite microbenchmark
	Replay    int           // traced operations replayed in-process
}

func defaultConfig(seconds float64) config {
	return config{N: 64, Seconds: seconds, SetupReps: 50, Suite: 150 * time.Millisecond, Replay: 200}
}

const (
	density = 0.3
	maxW    = 9
	clients = 2 // closed-loop clients; the reference host has 2 vCPUs
)

// workload is one traffic mix. Inputs and expected rows are built by the
// constructor, before any timing; the methods drive a booted stack.
type workload interface {
	// boot starts a serving stack and answers one warm-up operation of
	// every request shape the workload sends.
	boot() (*stack, error)
	// simPass sends a fixed, seed-determined set of operations once and
	// returns their summed machine cost; the simulated metrics come from
	// it, so they repeat exactly from run to run.
	simPass(st *stack) (simTotals, error)
	// run drives the measured loop for dur.
	run(st *stack, dur time.Duration, trace bool) (*phase, error)
	// replay re-executes traced operations in-process through the public
	// functions, in the handler's order, timing each stage.
	replay(ops []opRecord, rec *recorder) error
	// closeStack releases per-stack client state and stops the stack.
	closeStack(st *stack)
}

// opRecord is one unit operation as the client saw it.
type opRecord struct {
	input    int // workload-specific input index, for the replay
	aux      int // workload-specific second index (session batch position)
	send     time.Time
	latency  time.Duration // from the scheduled (open loop) or actual send
	firstRow time.Duration
	lag      time.Duration // how late the generator sent it
	rows     int
	ok       bool
	slice    int  // the phase slice it ran in
	hit      bool // served from the router's result cache
	cost     ppa.Metrics
	iters    int // summed DP rounds of the delivered rows
	spans    []span
}

// span is one traced interval of an operation; Parent indexes the same
// operation's span list (-1 for the root).
type span struct {
	Name       string
	Start, End time.Time
	Parent     int
}

// phase is the outcome of one measured loop.
type phase struct {
	ops    []opRecord
	slices []slice
	steal  float64 // share of the host's CPU time the hypervisor gave other guests
}

// The measured loop runs in slices of sliceLen with a probe burst of
// probeLen before the first and after every slice (see probe.go); stack
// boots are separated by probe bursts of setupProbeLen.
const (
	sliceLen      = time.Second
	probeLen      = 150 * time.Millisecond
	setupProbeLen = 30 * time.Millisecond
)

// slice is one stretch of a phase between two probe bursts.
type slice struct {
	dt    time.Duration // from its start to the end of its last operation
	cpu   time.Duration // process CPU time over it
	probe float64       // ns per probe pass, the mean of the bursts either side
}

// scale turns the slice's times into reference-host time.
func (s slice) scale() float64 { return speedScale(s.probe) }

// quiet returns the indices of the two thirds of the probe readings
// (rounded up) that ran fastest. Other tenants slow the host in bursts
// that can last seconds, and in a burst the probe slows more than the
// workload, so scaling alone would overcorrect; the figures are therefore
// taken over the quieter part of a run, the way a microbenchmark keeps
// its fastest repetitions, and scaled within it.
func quiet(probes []float64) []int {
	idx := make([]int, len(probes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return probes[idx[a]] < probes[idx[b]] })
	return idx[:(2*len(idx)+2)/3]
}

// boots starts the workload's stack reps times, with a probe burst
// before the first boot and after each, and a GC before each, so that
// every boot starts, like a fresh process, without the previous boot's
// garbage. It closes all but the last stack and returns that one with
// each boot's wall time and the probe's ns per pass around it.
func boots(w workload, reps int) (st *stack, secs, probes []float64, err error) {
	before := probe(clients, setupProbeLen)
	for i := 0; i < reps; i++ {
		if st != nil {
			w.closeStack(st)
		}
		runtime.GC()
		t := time.Now()
		if st, err = w.boot(); err != nil {
			return nil, nil, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		after := probe(clients, setupProbeLen)
		probes = append(probes, (before+after)/2)
		before = after
	}
	return st, secs, probes, nil
}

// setupSeconds is setup_s: the median boot time in reference-host
// seconds over the quieter two thirds of the boots (see quiet).
func setupSeconds(secs, probes []float64) float64 {
	var q []float64
	for _, i := range quiet(probes) {
		q = append(q, secs[i]*speedScale(probes[i]))
	}
	return median(q)
}

func (p *phase) attempted() int { return len(p.ops) }

func (p *phase) failed() int {
	f := 0
	for i := range p.ops {
		if !p.ops[i].ok {
			f++
		}
	}
	return f
}

// simTotals is the summed machine cost of a sim pass.
type simTotals struct {
	cost  ppa.Metrics
	iters int
	rows  int
}

func (s *simTotals) add(c ppa.Metrics, iters, rows int) {
	s.cost = s.cost.Add(c)
	s.iters += iters
	s.rows += rows
}

// errWrong marks a wrong answer: it aborts the run with a non-zero exit.
var errWrong = errors.New("wrong answer")

func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// errStop, returned by a closed-loop operation, ends that client's loop
// without failing the run (its session is gone); the operation it
// returned with is recorded as failed.
var errStop = errors.New("client stopped")

// firstErr keeps the first error reported by concurrent clients.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// closedLoop runs n clients, each issuing its next operation as soon as
// the previous one completes, for dur in all: slices of sliceLen (at most
// dur) between probe bursts, at least one. At the end of a slice every
// client finishes its operation before the probe runs. op returns the
// operation's record; an error aborts the loop, and errStop ends that
// client's part in it.
func closedLoop(n int, dur time.Duration, op func(c int) (opRecord, error)) (*phase, error) {
	var fe firstErr
	per := make([][]opRecord, n)
	stopped := make([]bool, n)
	sliceDur := min(sliceLen, dur)
	p := &phase{}
	steal0, total0 := cpuTicks()
	t0 := time.Now()
	before := probe(n, probeLen)
	for k := 0; fe.get() == nil && (k == 0 || time.Since(t0)+sliceDur <= dur); k++ {
		s0, cpu0 := time.Now(), cpuTime()
		deadline := s0.Add(sliceDur)
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			if stopped[c] {
				continue
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				prev := time.Now()
				for time.Now().Before(deadline) && fe.get() == nil {
					rec, err := op(c)
					if err != nil && !errors.Is(err, errStop) {
						fe.set(err)
						return
					}
					rec.slice = k
					rec.lag = rec.send.Sub(prev)
					prev = rec.send.Add(rec.latency)
					per[c] = append(per[c], rec)
					if err != nil {
						stopped[c] = true
						return
					}
				}
			}(c)
		}
		wg.Wait()
		sl := slice{dt: time.Since(s0), cpu: cpuTime() - cpu0}
		after := probe(n, probeLen)
		sl.probe = (before + after) / 2
		before = after
		p.slices = append(p.slices, sl)
	}
	steal1, total1 := cpuTicks()
	p.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	for _, ops := range per {
		p.ops = append(p.ops, ops...)
	}
	sort.Slice(p.ops, func(a, b int) bool { return p.ops[a].send.Before(p.ops[b].send) })
	return p, fe.get()
}

// postJSON sends body and retries a 429 a few times after a short
// backoff, as a well-behaved client would. It returns the final response
// (body unread) and the time its headers arrived.
func postJSON(c *http.Client, url string, body []byte) (*http.Response, time.Time, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, time.Time{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 3 {
			drain(resp)
			time.Sleep(20 * time.Millisecond)
			continue
		}
		return resp, time.Now(), nil
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// lineReader reads NDJSON lines.
type lineReader struct{ sc *bufio.Scanner }

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	return &lineReader{sc: sc}
}

// next returns the next non-empty line (valid until the following call).
func (l *lineReader) next() ([]byte, error) {
	for l.sc.Scan() {
		if line := bytes.TrimSpace(l.sc.Bytes()); len(line) > 0 {
			return line, nil
		}
	}
	if err := l.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}
