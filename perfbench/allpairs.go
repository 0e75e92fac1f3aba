package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ppamcp/internal/cli"
	"ppamcp/internal/ppa"
	"ppamcp/internal/serve"
)

// allpairs-stream: a closed loop of full-table POST /v1/allpairs
// requests whose graphs travel as generator specs, streamed back as
// NDJSON rows.
const allPairsGraphs = 16

type allPairs struct {
	cfg     config
	bodies  [][]byte
	oracles []*oracle
	cost    []ppa.Metrics
	costSet []bool
	next    [clients]int // per-client operation counter
}

func newAllPairs(cfg config, seed int64) (*allPairs, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &allPairs{cfg: cfg}
	for i := 0; i < allPairsGraphs; i++ {
		spec := cli.Workload{Gen: "connected", N: cfg.N, Density: density, MaxW: maxW, Seed: rng.Int63n(1 << 31)}
		g, err := spec.Build()
		if err != nil {
			return nil, err
		}
		o, err := newOracle(g, nil)
		if err != nil {
			return nil, err
		}
		gen, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.AllPairsRequest{Gen: gen})
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
		w.oracles = append(w.oracles, o)
	}
	w.cost = make([]ppa.Metrics, len(w.bodies))
	w.costSet = make([]bool, len(w.bodies))
	return w, nil
}

func (w *allPairs) boot() (*stack, error) {
	st, err := bootStack(1, 0, false)
	if err != nil {
		return nil, err
	}
	if _, err := w.warm(st, 0); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (w *allPairs) warm(st *stack, b int) (opRecord, error) {
	rec, err := w.do(st, b, false)
	if err == nil && !rec.ok {
		err = fmt.Errorf("allpairs-stream: warm-up table %d failed", b)
	}
	return rec, err
}

func (w *allPairs) simPass(st *stack) (simTotals, error) {
	var s simTotals
	for b := range w.bodies {
		rec, err := w.warm(st, b)
		if err != nil {
			return s, err
		}
		w.cost[b], w.costSet[b] = rec.cost, true
		s.add(rec.cost, rec.iters, rec.rows)
	}
	return s, nil
}

func (w *allPairs) run(st *stack, dur time.Duration, trace bool) (*phase, error) {
	return closedLoop(clients, dur, func(c int) (opRecord, error) {
		b := (w.next[c]*clients + c) % len(w.bodies)
		w.next[c]++
		return w.do(st, b, trace)
	})
}

// do streams table b. Rows are timed as they arrive and verified once
// the stream has ended, so client-side checking stays out of the
// latency.
func (w *allPairs) do(st *stack, b int, trace bool) (opRecord, error) {
	o := w.oracles[b]
	send := time.Now()
	rec := opRecord{input: b, send: send}
	if trace {
		rec.spans = []span{{Name: "client.op", Start: send, Parent: -1}, {Name: "client.headers", Start: send, Parent: 0}}
	}
	rows, trailer, hdr := w.stream(st, b, &rec, trace)
	end := time.Now()
	rec.latency = end.Sub(send)
	if trace {
		rec.spans[0].End, rec.spans[1].End = end, hdr
		rec.spans = append(rec.spans, span{Name: "client.body", Start: hdr, End: end, Parent: 0})
	}
	if trailer == nil {
		return rec, nil
	}
	// A stream that ends in an error line has failed. One that reports
	// itself done has answered, so a missing, extra or garbled row is a
	// wrong answer.
	var tr serve.AllPairsTrailer
	if err := json.Unmarshal(trailer, &tr); err != nil || !tr.Done {
		return rec, nil
	}
	if tr.Rows != o.g.N || len(rows) != o.g.N {
		return rec, wrong("allpairs-stream table %d: trailer says %d rows, %d streamed, want %d", b, tr.Rows, len(rows), o.g.N)
	}
	for k, line := range rows {
		var dr serve.DestResult
		if err := json.Unmarshal(line, &dr); err != nil {
			return rec, wrong("allpairs-stream table %d: row %d: %v", b, k, err)
		}
		if dr.Dest != k {
			return rec, wrong("allpairs-stream table %d: row %d is dest %d", b, k, dr.Dest)
		}
		if err := o.check(&dr); err != nil {
			return rec, wrong("allpairs-stream table %d: %v", b, err)
		}
		rec.iters += dr.Iterations
	}
	if w.costSet[b] && tr.Cost != w.cost[b] {
		return rec, wrong("allpairs-stream table %d: machine cost %+v, earlier %+v", b, tr.Cost, w.cost[b])
	}
	rec.ok, rec.rows, rec.cost = true, len(rows), tr.Cost
	return rec, nil
}

// stream posts table b and collects its raw row lines and trailer (nil
// when the request failed or the stream ended without one).
func (w *allPairs) stream(st *stack, b int, rec *opRecord, trace bool) (rows [][]byte, trailer []byte, hdr time.Time) {
	resp, hdr, err := postJSON(st.client, st.url+"/v1/allpairs", w.bodies[b])
	if err != nil {
		return nil, nil, time.Now()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp)
		return nil, nil, hdr
	}
	lr := newLineReader(resp.Body)
	if _, err := lr.next(); err != nil { // stream header
		return nil, nil, hdr
	}
	for {
		line, err := lr.next()
		if err != nil {
			return nil, nil, hdr // truncated stream
		}
		now := time.Now()
		if !bytes.HasPrefix(line, []byte(`{"dest":`)) {
			// The trailer, or an in-band error line that ends a failed
			// stream (which the trailer decode then rejects).
			return rows, append([]byte(nil), line...), hdr
		}
		if len(rows) == 0 {
			rec.firstRow = now.Sub(rec.send)
		}
		rows = append(rows, append([]byte(nil), line...))
		if trace {
			rec.spans = append(rec.spans, span{Name: "client.row", Start: now, End: now, Parent: 0})
		}
	}
}

func (w *allPairs) replay(ops []opRecord, rec *recorder) error {
	pool := serve.NewPool(64, 0, 0)
	defer pool.Close()
	if err := primePool(pool, w.oracles[0].g); err != nil {
		return err
	}
	for i := range ops {
		if !ops[i].ok || len(rec.ops) >= w.cfg.Replay {
			continue
		}
		rec.begin(i)
		err := replayAllPairs(rec, pool, w.bodies[ops[i].input])
		rec.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *allPairs) closeStack(st *stack) { st.close() }
