package main

import (
	"sort"
	"strings"
)

// The per-layer rows of a traced run, by source.

// stageMetrics derives the replay-timed rows from the workload's own
// replay (rec) where it ran the stage, and from the bench-graph replay
// (fb) otherwise. offPath names the rows taken from fb: stages the
// workload never runs, so those rows describe the bench graph, not it.
func stageMetrics(rec, fb *recorder) (m map[string]metric, offPath []string) {
	from := func(name string, own bool) *recorder {
		if own {
			return rec
		}
		offPath = append(offPath, name)
		return fb
	}
	m = map[string]metric{}
	for _, s := range []struct {
		name, stage string
		perRow      bool
	}{
		{"graph.decode_us", "graph.decode", false},
		{"graph.gen_build_us", "graph.gen_build", false},
		{"graph.fingerprint_us", "graph.fingerprint", false},
		{"serve.pool_get_us", "serve.pool_get", false},
		{"serve.encode_us_per_row", "serve.encode", true},
		{"core.reload_us", "core.reload", false},
		{"core.solve_us_per_row", "core.solve", true},
		{"core.sweep_us_per_row", "core.sweep", true},
		{"core.update_us", "core.update", false},
	} {
		st := from(s.name, rec.get(s.stage).calls > 0).get(s.stage)
		v := st.perCallUS()
		if s.perRow {
			v = st.perRowUS()
		}
		m[s.name] = metric{v, "us"}
	}
	resolves := rec.get("core.resolve").calls > 0
	// Per re-solved row: rows the skip certificate emitted cost ~0.
	r := from("core.resolve_us_per_row", resolves)
	m["core.resolve_us_per_row"] = metric{ratio(float64(r.get("core.resolve").total)/1e3, float64(r.resolved)), "us"}
	r = from("core.skip_ratio", resolves)
	m["core.skip_ratio"] = metric{ratio(float64(r.skipped), float64(r.skipped+r.resolved)), "ratio"}
	r = from("core.host_ns_per_comm_cycle", rec.coreRows > 0)
	m["core.host_ns_per_comm_cycle"] = metric{ratio(float64(r.coreTime), float64(r.commCycles)), "ns"}
	r = from("core.allocs_per_row", rec.coreRows > 0)
	m["core.allocs_per_row"] = metric{ratio(float64(r.mallocs), float64(r.coreRows)), "count"}
	r = from("core.bytes_per_row", rec.coreRows > 0)
	m["core.bytes_per_row"] = metric{ratio(float64(r.allocBytes), float64(r.coreRows)), "B"}
	sort.Strings(offPath)
	return m, offPath
}

// scrapeMetrics derives the serve rows from the backends' /metrics before
// (b0) and after (b1) the traced phase, summed over backends, and the
// client latencies (ms) of that phase.
func scrapeMetrics(b0, b1 promSample, latMS []float64) map[string]metric {
	d := func(name string, labels ...string) float64 { return b1.sum(name, labels...) - b0.sum(name, labels...) }
	hits, misses := d("ppaserved_session_pool_hits_total"), d("ppaserved_session_pool_misses_total")
	reqs := d("ppaserved_requests_total", `path="/v1/solve"`) + d("ppaserved_requests_total", `path="/v1/allpairs"`)
	clientS := 0.0
	for _, x := range latMS {
		clientS += x / 1e3
	}
	return map[string]metric{
		"serve.pool_hit_ratio":  {ratio(hits, hits+misses), "ratio"},
		"serve.batches_per_req": {ratio(d("ppaserved_batches_total"), reqs), "ratio"},
		"serve.coalesced_ratio": {ratio(d("ppaserved_coalesced_jobs_total"), reqs), "ratio"},
		// Server histogram time over client time. The histogram is
		// /v1/solve's, yet /v1/allpairs streams are recorded in it too.
		"serve.hist_client_ratio": {ratio(d("ppaserved_solve_latency_seconds_sum"), clientS), "ratio"},
	}
}

// simMetrics is the set-up pass's machine cost per delivered row.
func simMetrics(sim simTotals) map[string]metric {
	rows := float64(sim.rows)
	return map[string]metric{
		"ppa.bus_cycles_per_row":      {ratio(float64(sim.cost.BusCycles), rows), "cycles"},
		"ppa.wired_or_cycles_per_row": {ratio(float64(sim.cost.WiredOrCycles), rows), "cycles"},
		"ppa.global_or_per_row":       {ratio(float64(sim.cost.GlobalOrOps), rows), "count"},
		"ppa.pe_ops_per_row":          {ratio(float64(sim.cost.PEOps), rows), "count"},
		"ppa.instructions_per_row":    {ratio(float64(sim.cost.Instructions), rows), "count"},
	}
}

// unitOf is the unit of a layer-suite or router row, read off its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms_per_req"):
		return "ms"
	case name == "router.failovers":
		return "count"
	}
	return "ratio"
}
