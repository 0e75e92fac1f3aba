package main

import (
	"context"
	"encoding/json"
	"fmt"

	"ppamcp/internal/cli"
	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
	"ppamcp/internal/serve"
)

// The replay kernels below re-run a request's server-side work through
// the modules' public functions, in the handler's order, each step timed
// as one stage by the recorder. What the handlers do beyond these calls
// (HTTP, admission, queueing and micro-batching, channel hand-offs) is
// the residual between client latency and the stage sum.

// maxVertices is serve's default admission bound.
const maxVertices = 512

// destResult is serve's wire form of a core result (serve.toDestResult
// is internal to the handler).
func destResult(r *core.Result) serve.DestResult {
	out := serve.DestResult{Dest: r.Dest, Dist: make([]int64, len(r.Dist)), Next: append([]int(nil), r.Next...), Iterations: r.Iterations}
	for i, d := range r.Dist {
		if d == graph.NoEdge {
			d = -1
		}
		out.Dist[i] = d
	}
	return out
}

func sumCost(rs []*core.Result) ppa.Metrics {
	var m ppa.Metrics
	for _, r := range rs {
		m = m.Add(r.Metrics)
	}
	return m
}

// checkout replays width selection, the fingerprint the queue batches
// on, and Pool.Get (with Reload on a hit), then probes Reload alone.
func checkout(rec *recorder, pool *serve.Pool, g *graph.Graph, bits uint) (*core.Session, uint, error) {
	var h uint
	var err error
	rec.stage("graph.fingerprint", 0, func() {
		if h, err = serve.PickBits(g, bits); err == nil {
			sink += graph.Fingerprint(g, h)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	var sess *core.Session
	rec.stage("serve.pool_get", 0, func() { sess, _, err = pool.Get(g, h) })
	if err != nil {
		return nil, 0, err
	}
	rec.probe("core.reload", func() { err = sess.Reload(g) })
	return sess, h, err
}

// replaySolve is POST /v1/solve for one request body.
func replaySolve(rec *recorder, pool *serve.Pool, body []byte) error {
	var req serve.SolveRequest
	var g *graph.Graph
	var err error
	rec.stage("graph.decode", 0, func() {
		if err = json.Unmarshal(body, &req); err != nil {
			return
		}
		if g, err = req.BuildGraph(maxVertices); err == nil {
			err = g.Validate()
		}
	})
	if err != nil {
		return fmt.Errorf("replay solve: %w", err)
	}
	sess, h, err := checkout(rec, pool, g, req.Bits)
	if err != nil {
		return fmt.Errorf("replay solve: %w", err)
	}
	defer pool.Put(sess)
	results := make([]*core.Result, 0, len(req.Dests))
	rec.core("core.solve", func() int { return len(results) }, func() ppa.Metrics { return sumCost(results) }, func() {
		for _, d := range req.Dests {
			r, e := sess.SolveContext(context.Background(), d)
			if e != nil {
				err = e
				return
			}
			results = append(results, r)
		}
	})
	if err != nil {
		return fmt.Errorf("replay solve: %w", err)
	}
	rec.stage("serve.encode", len(results), func() {
		resp := serve.SolveResponse{N: g.N, Bits: h, Results: make([]serve.DestResult, len(results)), Cost: sumCost(results)}
		for i, r := range results {
			resp.Results[i] = destResult(r)
		}
		_, err = json.Marshal(resp)
	})
	return err
}

// replayAllPairs is POST /v1/allpairs for one request body. The replay
// sweeps first and encodes the rows after; the handler interleaves the
// two across goroutines, which the stage totals do not depend on.
func replayAllPairs(rec *recorder, pool *serve.Pool, body []byte) error {
	var req serve.AllPairsRequest
	var g *graph.Graph
	var err error
	rec.stage("graph.decode", 0, func() {
		if err = json.Unmarshal(body, &req); err != nil {
			return
		}
		if g, err = req.BuildGraph(maxVertices); err == nil {
			err = g.Validate()
		}
	})
	if err != nil {
		return fmt.Errorf("replay allpairs: %w", err)
	}
	if len(req.Gen) > 0 {
		rec.probe("graph.gen_build", func() {
			w := cli.Default()
			if err = json.Unmarshal(req.Gen, &w); err == nil {
				_, err = w.Build()
			}
		})
		if err != nil {
			return fmt.Errorf("replay allpairs: %w", err)
		}
	}
	sess, _, err := checkout(rec, pool, g, req.Bits)
	if err != nil {
		return fmt.Errorf("replay allpairs: %w", err)
	}
	defer pool.Put(sess)
	dests := req.Dests
	if len(dests) == 0 {
		dests = allDests(g.N)
	}
	results := make([]*core.Result, 0, len(dests))
	rec.core("core.sweep", func() int { return len(results) }, func() ppa.Metrics { return sumCost(results) }, func() {
		err = sess.SolveSweep(context.Background(), dests, func(r *core.Result) error {
			results = append(results, r)
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("replay allpairs: %w", err)
	}
	encodeRows(rec, results, func(r *core.Result) any { return destResult(r) })
	_, err = json.Marshal(serve.AllPairsTrailer{Done: true, Rows: len(results), Cost: sumCost(results), PoolHit: true})
	return err
}

// encodeRows replays the per-row NDJSON encode.
func encodeRows(rec *recorder, results []*core.Result, wire func(*core.Result) any) {
	rec.stage("serve.encode", len(results), func() {
		for _, r := range results {
			_, _ = json.Marshal(wire(r))
		}
	})
}

// replayUpdate is one /v1/session generation: decode the update batch,
// Session.Update, then ResolveSweep over dests and the row encode.
func replayUpdate(rec *recorder, sess *core.Session, dests []int, body []byte, seq uint64) error {
	var ups []graph.WeightUpdate
	var err error
	rec.stage("graph.decode", 0, func() {
		var req serve.SessionUpdateRequest
		if err = json.Unmarshal(body, &req); err != nil {
			return
		}
		ups = wireToUpdates(req.Updates)
	})
	if err != nil {
		return fmt.Errorf("replay update: %w", err)
	}
	rec.stage("core.update", 0, func() { err = sess.Update(ups) })
	if err != nil {
		return fmt.Errorf("replay update: %w", err)
	}
	results := make([]*core.Result, 0, len(dests))
	rec.core("core.resolve", func() int { return len(results) }, func() ppa.Metrics { return sumCost(results) }, func() {
		err = sess.ResolveSweep(context.Background(), dests, func(r *core.Result) error {
			results = append(results, r)
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("replay update: %w", err)
	}
	for _, r := range results {
		if r.Iterations == 0 {
			rec.skipped++
		} else {
			rec.resolved++
		}
	}
	encodeRows(rec, results, func(r *core.Result) any { return serve.SessionRow{Seq: seq, DestResult: destResult(r)} })
	return nil
}

// wireToUpdates converts wire edits (w = -1 deletes) to graph updates.
func wireToUpdates(ws []serve.WireUpdate) []graph.WeightUpdate {
	ups := make([]graph.WeightUpdate, len(ws))
	for i, u := range ws {
		w := u.W
		if w == -1 {
			w = graph.NoEdge
		}
		ups[i] = graph.WeightUpdate{U: u.U, V: u.V, W: w}
	}
	return ups
}
