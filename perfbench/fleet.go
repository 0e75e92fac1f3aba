package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
	"ppamcp/internal/router"
	"ppamcp/internal/serve"
)

// fleet-zipf: a closed loop of POST /v1/solve through pparouter in front
// of two single-worker ppaserved backends. Graphs are drawn Zipf(1.2)
// over fleetGraphs; fleetHotShare of the requests ask for one of a
// graph's few hot destination sets, which the set-up pass puts in the
// router's result cache, and the rest for a fresh set, which misses. The
// hit share is therefore steady over the whole run instead of growing as
// the cache fills. It is kept off one half so that the median sits
// inside the hit cluster (router time) and the 99th percentile in the
// miss tail (backend time), not on the edge between them.
const (
	fleetGraphs   = 64
	fleetHotSets  = 4
	fleetDests    = 4
	fleetZipfS    = 1.2
	fleetHotShare = 0.6
	fleetBackends = 2
	fleetVNodes   = 64      // router default
	fleetPlan     = 1 << 14 // operations planned per client; the plan wraps after that
)

type fleetOp struct {
	g     int
	hot   int // hot set index, or -1 for a fresh destination set
	dests []int
}

type fleetZipf struct {
	cfg     config
	gjson   [][]byte
	oracles []*oracle
	hot     [][][]int // per graph, its hot destination sets
	plan    [clients][]fleetOp
	next    [clients]int

	mu      sync.Mutex
	hotCost map[int]ppa.Metrics // by g*fleetHotSets+set, from the sim pass
}

func newFleetZipf(cfg config, seed int64) (*fleetZipf, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &fleetZipf{cfg: cfg, hotCost: map[int]ppa.Metrics{}}
	// The fleet's graph set is fixed, like a deployment's working set;
	// the seed draws the traffic over it. Drawing the graphs from the seed
	// too would make the Zipf head — a quarter of all requests on one
	// graph — a different graph every run.
	for _, gs := range fleetGraphSeeds {
		g := graph.GenRandomConnected(cfg.N, density, maxW, gs)
		gj, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		o, err := newOracle(g, nil)
		if err != nil {
			return nil, err
		}
		var sets [][]int
		for k := 0; k < fleetHotSets; k++ {
			sets = append(sets, pickDests(rng, cfg.N, fleetDests))
		}
		w.gjson = append(w.gjson, gj)
		w.oracles = append(w.oracles, o)
		w.hot = append(w.hot, sets)
	}
	for c := 0; c < clients; c++ {
		z := rand.NewZipf(rng, fleetZipfS, 1, fleetGraphs-1)
		plan := make([]fleetOp, fleetPlan)
		for i := range plan {
			gi := int(z.Uint64())
			if rng.Float64() < fleetHotShare {
				k := rng.Intn(fleetHotSets)
				plan[i] = fleetOp{g: gi, hot: k, dests: w.hot[gi][k]}
			} else {
				plan[i] = fleetOp{g: gi, hot: -1, dests: pickDests(rng, cfg.N, fleetDests)}
			}
		}
		w.plan[c] = plan
	}
	return w, nil
}

// fleetGraphSeeds are the generator seeds of the fleet's graphs, by Zipf
// rank. They are fixed in the benchmark, independent of the code it
// measures, so the workload's inputs never change with the router's ring
// or the fingerprint. They were chosen once so that, on the router's ring
// at the time (64 vnodes over the two backend names), the two backends'
// expected shares of the traffic came out even (1.71 : 1.71 in Zipf
// weight); a change in ring placement therefore shows as imbalance.
var fleetGraphSeeds = [fleetGraphs]int64{
	6244971197480001948, 7390915395226442572, 3371508559644041016, 2116550172742695898,
	6055822656594337264, 4104210068948072800, 1808764428907725069, 1161338560613434439,
	4162316692680101710, 6142725658453892887, 5756469335050417186, 3948507039802924743,
	5571022088384230561, 2677232254161573140, 1397822805423621889, 4251487779960147249,
	916444012648093745, 6577522203059692316, 5365891707634515993, 5009806131625858005,
	9150387949562796736, 1804418280810789956, 346074717704521312, 6902043082845623381,
	4241984127263671238, 5461915321732600671, 6108658237303746386, 6643178476232980515,
	6322860086539006286, 3976673955374291036, 7440683002201697727, 869640769154815874,
	7963118911734739819, 7892018358938518853, 8956429608835950859, 3655953315013381762,
	6174619694530834365, 5860773863203338568, 8842317526749375729, 8751273879772096434,
	7112773944899621300, 4753619292081507928, 5528685683604160388, 7657416560122818207,
	7025971533727289076, 8151642691160530966, 8761752603259367492, 5885148489064926207,
	8501395087979569011, 6874637097381697566, 4310066240560995559, 2870780993637862530,
	8001051374749556595, 6274964177847297842, 4325924418545070352, 5186109757207404929,
	8712917233798449213, 2871002956534333475, 4397968420723716967, 3370073676890976521,
	299836732526087317, 7509397974704547445, 5348407948448729620, 6304266293364277867,
}

func (w *fleetZipf) body(op fleetOp) []byte {
	b := make([]byte, 0, len(w.gjson[op.g])+64)
	b = append(b, `{"graph":`...)
	b = append(b, w.gjson[op.g]...)
	b = append(b, `,"dests":[`...)
	for i, d := range op.dests {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return append(b, "]}"...)
}

func (w *fleetZipf) boot() (*stack, error) {
	st, err := bootStack(fleetBackends, 1, true)
	if err != nil {
		return nil, err
	}
	if _, err := w.warm(st, fleetOp{g: 0, hot: 0, dests: w.hot[0][0]}); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (w *fleetZipf) warm(st *stack, op fleetOp) (opRecord, error) {
	rec, err := w.do(st, op, false)
	if err == nil && !rec.ok {
		err = fmt.Errorf("fleet-zipf: warm-up request for graph %d failed", op.g)
	}
	return rec, err
}

// simPass sends every hot key once, which also fills the router cache.
func (w *fleetZipf) simPass(st *stack) (simTotals, error) {
	var s simTotals
	var fe firstErr
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for key := c; key < fleetGraphs*fleetHotSets; key += clients {
				gi, k := key/fleetHotSets, key%fleetHotSets
				rec, err := w.warm(st, fleetOp{g: gi, hot: k, dests: w.hot[gi][k]})
				if err != nil {
					fe.set(err)
					return
				}
				w.mu.Lock()
				w.hotCost[key] = rec.cost
				s.add(rec.cost, rec.iters, rec.rows)
				w.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return s, fe.get()
}

func (w *fleetZipf) run(st *stack, dur time.Duration, trace bool) (*phase, error) {
	return closedLoop(clients, dur, func(c int) (opRecord, error) {
		i := w.next[c] % fleetPlan
		w.next[c]++
		rec, err := w.do(st, w.plan[c][i], trace)
		rec.input = c*fleetPlan + i
		return rec, err
	})
}

func (w *fleetZipf) do(st *stack, op fleetOp, trace bool) (opRecord, error) {
	body := w.body(op)
	send := time.Now()
	rec := opRecord{send: send}
	resp, hdr, err := postJSON(st.client, st.url+"/v1/solve", body)
	if err != nil {
		rec.latency = time.Since(send)
		return rec, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	rec.latency, rec.firstRow = end.Sub(send), hdr.Sub(send)
	src := resp.Header.Get("X-Ppa-Cache")
	rec.hit = src == "hit" || src == "collapsed"
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
	if err := w.oracles[op.g].checkRows(sr.Results, op.dests); err != nil {
		return rec, wrong("fleet-zipf graph %d: %v", op.g, err)
	}
	if op.hot >= 0 {
		w.mu.Lock()
		want, ok := w.hotCost[op.g*fleetHotSets+op.hot]
		w.mu.Unlock()
		if ok && sr.Cost != want {
			return rec, wrong("fleet-zipf graph %d set %d: machine cost %+v, earlier %+v", op.g, op.hot, sr.Cost, want)
		}
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

// replay re-runs the router's side of each traced request — decode and,
// on a hit, the cache lookup — and, on a miss, the backend's stages.
func (w *fleetZipf) replay(ops []opRecord, rec *recorder) error {
	pool := serve.NewPool(64, 0, 0)
	defer pool.Close()
	if err := primePool(pool, w.oracles[0].g); err != nil {
		return err
	}
	cache := router.NewCache(4096, 64<<20)
	for i := range ops {
		if !ops[i].ok || len(rec.ops) >= w.cfg.Replay {
			continue
		}
		op := w.plan[ops[i].input/fleetPlan][ops[i].input%fleetPlan]
		body := w.body(op)
		// Shaped like the router's key: 64 hex digits of graph digest, then
		// the destinations.
		key := fmt.Sprintf("%064x|%v", op.g, op.dests)
		rec.begin(i)
		var req serve.SolveRequest
		var err error
		rec.stage("router.decode", 0, func() { err = json.Unmarshal(body, &req) })
		if err == nil && ops[i].hit {
			cache.Put(key, body[:64]) // the entry the router's cache held
			rec.stage("router.cache_get", 0, func() { _, _ = cache.Get(key) })
		} else if err == nil {
			err = replaySolve(rec, pool, body)
		}
		rec.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetZipf) closeStack(st *stack) { st.close() }
