package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
	"ppamcp/internal/serve"
)

// solve-inline: a closed loop of POST /v1/solve requests that carry
// their graphs inline, the serving hot path: JSON graph decode, pool
// checkout with Reload, and the SolveContext lane per destination.
const (
	solveGraphs = 16
	solveSets   = 4 // destination sets per graph
	solveDests  = 4
	solvePlan   = 1 << 14 // operations planned per client; the plan wraps after that
)

type solveInline struct {
	cfg     config
	bodies  [][]byte
	dests   [][]int
	oracles []*oracle // by body
	cost    []ppa.Metrics
	costSet []bool
	plan    [clients][]int // body per operation
	next    [clients]int
}

func newSolveInline(cfg config, seed int64) (*solveInline, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &solveInline{cfg: cfg}
	for gi := 0; gi < solveGraphs; gi++ {
		g := graph.GenRandomConnected(cfg.N, density, maxW, rng.Int63())
		gj, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		var sets [][]int
		var union []int
		for k := 0; k < solveSets; k++ {
			d := pickDests(rng, cfg.N, solveDests)
			sets = append(sets, d)
			union = append(union, d...)
		}
		o, err := newOracle(g, union)
		if err != nil {
			return nil, err
		}
		for _, d := range sets {
			body, err := json.Marshal(serve.SolveRequest{Graph: gj, Dests: d})
			if err != nil {
				return nil, err
			}
			w.bodies = append(w.bodies, body)
			w.dests = append(w.dests, d)
			w.oracles = append(w.oracles, o)
		}
	}
	w.cost = make([]ppa.Metrics, len(w.bodies))
	w.costSet = make([]bool, len(w.bodies))
	for c := range w.plan {
		w.plan[c] = make([]int, solvePlan)
		for i := range w.plan[c] {
			w.plan[c][i] = rng.Intn(len(w.bodies))
		}
	}
	return w, nil
}

// pickDests draws k distinct destinations in [0, n).
func pickDests(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}

func (w *solveInline) boot() (*stack, error) {
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

// warm sends body b once and insists it succeeds.
func (w *solveInline) warm(st *stack, b int) (opRecord, error) {
	rec, err := w.do(st, b, false)
	if err == nil && !rec.ok {
		err = fmt.Errorf("solve-inline: warm-up request %d failed", b)
	}
	return rec, err
}

func (w *solveInline) simPass(st *stack) (simTotals, error) {
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

func (w *solveInline) run(st *stack, dur time.Duration, trace bool) (*phase, error) {
	return closedLoop(clients, dur, func(c int) (opRecord, error) {
		b := w.plan[c][w.next[c]%solvePlan]
		w.next[c]++
		return w.do(st, b, trace)
	})
}

// do sends body b and reads and verifies the response.
func (w *solveInline) do(st *stack, b int, trace bool) (opRecord, error) {
	send := time.Now()
	rec := opRecord{input: b, send: send}
	resp, hdr, err := postJSON(st.client, st.url+"/v1/solve", w.bodies[b])
	if err != nil {
		rec.latency = time.Since(send)
		return rec, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	rec.latency, rec.firstRow = end.Sub(send), hdr.Sub(send)
	if trace {
		rec.spans = []span{
			{Name: "client.op", Start: send, End: end, Parent: -1},
			{Name: "client.headers", Start: send, End: hdr, Parent: 0},
			{Name: "client.body", Start: hdr, End: end, Parent: 0},
		}
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		return rec, nil
	}
	var sr serve.SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return rec, nil
	}
	if err := w.oracles[b].checkRows(sr.Results, w.dests[b]); err != nil {
		return rec, wrong("solve-inline request %d: %v", b, err)
	}
	if w.costSet[b] && sr.Cost != w.cost[b] {
		return rec, wrong("solve-inline request %d: machine cost %+v, earlier %+v", b, sr.Cost, w.cost[b])
	}
	rec.ok, rec.rows, rec.cost = true, len(sr.Results), sr.Cost
	for _, r := range sr.Results {
		rec.iters += r.Iterations
	}
	if trace {
		for range sr.Results {
			rec.spans = append(rec.spans, span{Name: "client.row", Start: end, End: end, Parent: 0})
		}
	}
	return rec, nil
}

func (w *solveInline) replay(ops []opRecord, rec *recorder) error {
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
		err := replaySolve(rec, pool, w.bodies[ops[i].input])
		rec.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// primePool parks one warm session for g's shape, as a serving pool
// holds after its first request.
func primePool(pool *serve.Pool, g *graph.Graph) error {
	h, err := serve.PickBits(g, 0)
	if err != nil {
		return err
	}
	sess, _, err := pool.Get(g, h)
	if err != nil {
		return err
	}
	pool.Put(sess)
	return nil
}

func (w *solveInline) closeStack(st *stack) { st.close() }
