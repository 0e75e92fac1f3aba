package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"ppamcp/internal/ppa"
)

// stat accumulates one stage: total time, calls, and rows it produced.
type stat struct {
	total time.Duration
	calls int
	rows  int
}

func (s *stat) perCallUS() float64 { return ratio(float64(s.total)/1e3, float64(s.calls)) }
func (s *stat) perRowUS() float64  { return ratio(float64(s.total)/1e3, float64(s.rows)) }

// recorder times the in-process replay. Each stage is a span under the
// current operation's replay root, run under a runtime/pprof "layer"
// label so a CPU profile attributes its samples by layer.
type recorder struct {
	stages map[string]*stat
	// Core-lane accounting over solve, sweep and resolve stages.
	coreTime   time.Duration
	coreRows   int
	commCycles int64
	mallocs    uint64
	allocBytes uint64
	skipped    int // ResolveSweep rows emitted with Iterations == 0
	resolved   int // ResolveSweep rows that ran the DP

	ops []replayOp // one per replayed operation, in order
}

// replayOp is the stage spans of one replayed operation.
type replayOp struct {
	req   int // index of the traced operation it replays
	spans []span
}

func newRecorder() *recorder { return &recorder{stages: map[string]*stat{}} }

// begin opens the replay of traced operation req.
func (r *recorder) begin(req int) {
	now := time.Now()
	r.ops = append(r.ops, replayOp{req: req, spans: []span{{Name: "replay.op", Start: now, Parent: -1}}})
}

// end closes the current replay root.
func (r *recorder) end() {
	op := &r.ops[len(r.ops)-1]
	op.spans[0].End = time.Now()
}

// layerOf maps a stage name to its module.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// stage times fn as a span under the current replay root (no span when
// no operation is open) and books it, with the rows it produced, to the
// stage's total.
func (r *recorder) stage(name string, rows int, fn func()) time.Duration {
	d := r.labelled(name, func() {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		if n := len(r.ops); n > 0 && r.ops[n-1].spans[0].End.IsZero() {
			op := &r.ops[n-1]
			op.spans = append(op.spans, span{Name: name, Start: t0, End: t1, Parent: 0})
		}
	})
	r.add(name, d, rows)
	return d
}

// probe times a call re-invoked on its own to isolate a cost that the
// handler's order nests inside another stage (Reload inside Pool.Get,
// generator build inside request decode). It is booked to its stage but
// opens no span, so stage sums never count it twice.
func (r *recorder) probe(name string, fn func()) {
	r.add(name, r.labelled(name, fn), 0)
}

// labelled runs fn under the stage's pprof layer label and returns how
// long it took.
func (r *recorder) labelled(name string, fn func()) time.Duration {
	var d time.Duration
	pprof.Do(context.Background(), pprof.Labels("layer", layerOf(name)), func(context.Context) {
		t0 := time.Now()
		fn()
		d = time.Since(t0)
	})
	return d
}

// add books d (and rows) to stage name.
func (r *recorder) add(name string, d time.Duration, rows int) {
	s := r.stages[name]
	if s == nil {
		s = &stat{}
		r.stages[name] = s
	}
	s.total += d
	s.calls++
	s.rows += rows
}

// core times a core-lane stage producing rows results and books its
// host time, simulated cycles and heap allocations. cost returns the
// summed Metrics of the rows once fn has run.
func (r *recorder) core(name string, rows func() int, cost func() ppa.Metrics, fn func()) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := r.stage(name, 0, fn)
	runtime.ReadMemStats(&m1)
	n := rows()
	r.stages[name].rows += n
	r.coreTime += d
	r.coreRows += n
	r.commCycles += cost().CommCycles()
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return d
}

func (r *recorder) get(name string) *stat {
	if s := r.stages[name]; s != nil {
		return s
	}
	return &stat{}
}

// stageSum is the total duration of an operation's stage spans.
func (op *replayOp) stageSum() time.Duration {
	var d time.Duration
	for _, s := range op.spans {
		if s.Parent == 0 {
			d += s.End.Sub(s.Start)
		}
	}
	return d
}

// selfTimes returns each span name's self time summed over ops: its
// duration minus the part of it that its children cover.
func selfTimes(ops [][]span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, spans := range ops {
		child := make([]time.Duration, len(spans))
		for _, s := range spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End.Sub(s.Start)
			}
		}
		for i, s := range spans {
			out[s.Name] += s.End.Sub(s.Start) - child[i]
		}
	}
	return out
}

// spanLine is one span as written to the span file.
type spanLine struct {
	Req     int     `json:"req"`
	Span    int     `json:"span"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// writeSpans writes the client spans of the traced operations and the
// replay spans, which share the operations' request ids, as JSON lines.
func writeSpans(path string, epoch time.Time, traced []opRecord, replayed []replayOp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	us := func(t time.Time) float64 { return float64(t.Sub(epoch)) / 1e3 }
	emit := func(req, base int, spans []span) error {
		for i, s := range spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + s.Parent
			}
			if err := enc.Encode(spanLine{Req: req, Span: base + i, Parent: parent, Name: s.Name, StartUS: us(s.Start), EndUS: us(s.End)}); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range traced {
		if err := emit(i, 0, traced[i].spans); err != nil {
			f.Close()
			return err
		}
	}
	for _, op := range replayed {
		if err := emit(op.req, len(traced[op.req].spans), op.spans); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
