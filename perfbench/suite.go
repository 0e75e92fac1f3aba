package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime/pprof"
	"time"

	"ppamcp/internal/cli"
	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/par"
	"ppamcp/internal/ppa"
	"ppamcp/internal/router"
	"ppamcp/internal/serve"
)

// The layer suite: microbenchmarks over the public functions of each
// module, on the n-vertex bench graph (graph.GenRandomConnected(n, 0.3,
// 9, 5), the graph of the repository's Go benchmarks). Each runs under
// its layer's pprof label.

// benchGraph is the suite's graph.
func benchGraph(n int) *graph.Graph { return graph.GenRandomConnected(n, density, maxW, 5) }

// sink keeps measured results alive so the compiler cannot drop a call.
var sink uint64

// nsPerCall runs fn in batches for about budget and returns the median
// batch's time per call.
func nsPerCall(budget time.Duration, layer string, fn func()) float64 {
	var out float64
	pprof.Do(context.Background(), pprof.Labels("layer", layer), func(context.Context) {
		batch := 1
		for {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				fn()
			}
			if d := time.Since(t0); d >= budget/16 || batch >= 1<<24 {
				break
			}
			batch *= 2
		}
		var samples []float64
		end := time.Now().Add(budget)
		for len(samples) < 5 || (time.Now().Before(end) && len(samples) < 64) {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				fn()
			}
			samples = append(samples, float64(time.Since(t0))/float64(batch))
		}
		out = median(samples)
	})
	return out
}

// layerSuite measures the ppa, par, router, virt and large-n core rows.
func layerSuite(cfg config) (map[string]float64, error) {
	out := map[string]float64{}
	n := cfg.N
	const h = 16
	rng := rand.New(rand.NewSource(11))

	m := ppa.New(n, h)
	defer m.Close()
	src := make([]ppa.Word, n*n)
	for i := range src {
		src[i] = ppa.Word(rng.Int63n(1000))
	}
	dst := make([]ppa.Word, n*n)
	rowHeads := ppa.NewBitset(n * n) // one open PE per row: min() clusters
	rowD := ppa.NewBitset(n * n)     // row d open: the DP's column broadcast
	drive := ppa.NewBitset(n * n)
	for r := 0; r < n; r++ {
		rowHeads.Set(r*n + n - 1)
		rowD.Set(3*n + r)
	}
	for i := 0; i < n*n; i++ {
		drive.SetTo(i, rng.Intn(2) == 0)
	}
	wor := ppa.NewBitset(n * n)
	none := ppa.NewBitset(n * n)
	out["ppa.broadcast_bits_ns"] = nsPerCall(cfg.Suite, "ppa", func() { m.BroadcastBits(ppa.South, rowD, src, dst) })
	out["ppa.wired_or_bits_ns"] = nsPerCall(cfg.Suite, "ppa", func() { m.WiredOrBits(ppa.West, rowHeads, drive, wor) })
	out["ppa.global_or_bits_ns"] = nsPerCall(cfg.Suite, "ppa", func() {
		if m.GlobalOrBits(none) {
			sink++
		}
	})
	var tile [64]uint64
	for i := range tile {
		tile[i] = rng.Uint64()
	}
	out["ppa.transpose64_ns"] = nsPerCall(cfg.Suite, "ppa", func() { ppa.Transpose64(&tile) })

	a := par.New(m)
	a.SetFused(true)
	col := a.Col()
	head := col.EqConst(ppa.Word(n - 1))
	v := a.FromSlice(src)
	wpp := (n*n + 63) / 64
	planes := make([]uint64, h*wpp)
	out["par.slice_planes_ns"] = nsPerCall(cfg.Suite, "par", func() { par.SlicePlanes(planes, src, h, wpp) })
	out["par.min_ns"] = nsPerCall(cfg.Suite, "par", func() { a.Min(v, ppa.West, head).Release() })
	rowMin := a.Min(v, ppa.West, head)
	sel := rowMin.Eq(v)
	out["par.selected_min_ns"] = nsPerCall(cfg.Suite, "par", func() { a.SelectedMin(col, ppa.West, head, sel).Release() })
	idx := []int{1, n + 7, 5*n + 2, n*n - 2}
	vals := []ppa.Word{3, 1, 4, 1}
	out["par.load_sparse_ns"] = nsPerCall(cfg.Suite, "par", func() { v.LoadSparse(idx, vals) })

	cache := router.NewCache(4096, 64<<20)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x|16,%d,%d,%d,%d", rng.Uint64(), i, i+1, i+2, i+3)
		cache.Put(keys[i], make([]byte, 1200))
	}
	k := 0
	out["router.cache_get_ns"] = nsPerCall(cfg.Suite, "router", func() {
		if _, ok := cache.Get(keys[k&255]); ok {
			sink++
		}
		k++
	})
	ring := router.NewRing([]string{backendName(0), backendName(1)}, fleetVNodes)
	fps := make([]uint64, 256)
	for i := range fps {
		fps[i] = rng.Uint64()
	}
	out["router.ring_lookup_ns"] = nsPerCall(cfg.Suite, "router", func() {
		if _, ok := ring.Lookup(fps[k&255]); ok {
			sink++
		}
		k++
	})

	g := benchGraph(n)
	for _, phys := range []struct {
		name string
		side int
	}{{"virt.solve_us_per_row_m32", n / 2}, {"virt.solve_us_per_row_m8", n / 8}} {
		us, err := solveUS(g, core.Options{PhysicalSide: phys.side}, "virt", 4)
		if err != nil {
			return nil, err
		}
		out[phys.name] = us
	}
	// The ring worker pool at four times the serving size (n=256 at the
	// default n=64): one ring worker against two.
	big := graph.GenRandomConnected(4*n, density, maxW, 5)
	for _, w := range []int{1, 2} {
		us, err := solveUS(big, core.Options{Workers: w}, "core", 3)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("core.solve_us_n256_w%d", w)] = us
	}
	return out, nil
}

// solveUS is the median warm SolveContext time, in microseconds, over
// reps destinations after one untimed solve.
func solveUS(g *graph.Graph, opt core.Options, layer string, reps int) (float64, error) {
	sess, err := core.NewSession(g, opt)
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	var samples []float64
	pprof.Do(context.Background(), pprof.Labels("layer", layer), func(context.Context) {
		for d := 0; d <= reps && err == nil; d++ {
			t0 := time.Now()
			_, err = sess.SolveContext(context.Background(), d)
			if d > 0 {
				samples = append(samples, float64(time.Since(t0))/1e3)
			}
		}
	})
	return median(samples), err
}

// benchStages replays, on the bench graph, every request shape whose
// stages the workload's own replay did not cover, so every stage metric
// has a measured value on every workload. The values land in rec.
func benchStages(cfg config, have *recorder, rec *recorder) error {
	g := benchGraph(cfg.N)
	rng := rand.New(rand.NewSource(13))
	pool := serve.NewPool(64, 0, 0)
	defer pool.Close()
	if err := primePool(pool, g); err != nil {
		return err
	}
	if have.get("core.solve").calls == 0 {
		gj, err := json.Marshal(g)
		if err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			body, err := json.Marshal(serve.SolveRequest{Graph: gj, Dests: pickDests(rng, cfg.N, solveDests)})
			if err != nil {
				return err
			}
			if err := replaySolve(rec, pool, body); err != nil {
				return err
			}
		}
	}
	if have.get("core.sweep").calls == 0 || have.get("graph.gen_build").calls == 0 {
		gen, err := json.Marshal(cli.Workload{Gen: "connected", N: cfg.N, Density: density, MaxW: maxW, Seed: 5})
		if err != nil {
			return err
		}
		body, err := json.Marshal(serve.AllPairsRequest{Gen: gen})
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := replayAllPairs(rec, pool, body); err != nil {
				return err
			}
		}
	}
	if have.get("core.resolve").calls == 0 {
		sess, err := core.NewSession(g, core.Options{Bits: churnBits(g.N)})
		if err != nil {
			return err
		}
		defer sess.Close()
		dests := allDests(g.N)
		if err := sess.ResolveSweep(context.Background(), dests, func(*core.Result) error { return nil }); err != nil {
			return err
		}
		for i, b := range churnBatches(rng, g) {
			body, err := json.Marshal(serve.SessionUpdateRequest{Updates: b})
			if err != nil {
				return err
			}
			if err := replayUpdate(rec, sess, dests, body, uint64(i+1)); err != nil {
				return err
			}
		}
	}
	return nil
}

// routerStats derives the router rows from a client latency sample and
// the router's /metrics before and after it.
func routerStats(latMS []float64, f0, f1 promSample) map[string]float64 {
	d := func(name string, labels ...string) float64 { return f1.sum(name, labels...) - f0.sum(name, labels...) }
	hits, misses := d("pparouter_cache_hits_total"), d("pparouter_cache_misses_total")
	reqs := d("pparouter_requests_total", `path="/v1/solve"`)
	backendMS := d("pparouter_backend_latency_seconds_sum") * 1e3
	return map[string]float64{
		"router.cache_hit_ratio": ratio(hits, hits+misses),
		"router.collapsed_ratio": ratio(d("pparouter_singleflight_collapsed_total"), reqs),
		"router.failovers":       d("pparouter_failovers_total"),
		"router.self_ms_per_req": mean(latMS) - ratio(backendMS, reqs),
	}
}

// routerProbe measures the router rows for workloads that do not route:
// a router in front of one backend answers routerProbeReqs solves over
// a few distinct bench-graph requests, so most are cache hits.
func routerProbe(cfg config) (map[string]float64, error) {
	const routerProbeReqs = 200
	g := benchGraph(cfg.N)
	o, err := newOracle(g, nil)
	if err != nil {
		return nil, err
	}
	gj, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(17))
	var bodies [][]byte
	var dests [][]int
	for i := 0; i < 8; i++ {
		d := pickDests(rng, cfg.N, solveDests)
		body, err := json.Marshal(serve.SolveRequest{Graph: gj, Dests: d})
		if err != nil {
			return nil, err
		}
		bodies, dests = append(bodies, body), append(dests, d)
	}
	st, err := bootStack(1, 0, true)
	if err != nil {
		return nil, err
	}
	defer st.close()
	_, f0, err := scrapeAll(st)
	if err != nil {
		return nil, err
	}
	var lat []float64
	for i := 0; i < routerProbeReqs; i++ {
		b := i % len(bodies)
		t0 := time.Now()
		resp, _, err := postJSON(st.client, st.url+"/v1/solve", bodies[b])
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat = append(lat, ms(time.Since(t0)))
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("router probe: status %d (%v)", resp.StatusCode, err)
		}
		var sr serve.SolveResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			return nil, fmt.Errorf("router probe: %w", err)
		}
		if err := o.checkRows(sr.Results, dests[b]); err != nil {
			return nil, wrong("router probe: %v", err)
		}
	}
	_, f1, err := scrapeAll(st)
	if err != nil {
		return nil, err
	}
	return routerStats(lat, f0, f1), nil
}
