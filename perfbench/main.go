// Command perfbench is the repository's serving benchmark. It boots the
// real serving stack in-process on loopback — ppaserved (serve.New with
// production defaults) and, for the fleet workload, pparouter
// (router.New) — drives one seeded workload over HTTP, checks every
// delivered row against Bellman-Ford rows computed before timing starts,
// and prints one JSON result line last.
//
//	go build -o perfbench . && ./perfbench --workload solve-inline --seed 1 --seconds 22 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics from a traced run (client
// spans over HTTP, then an in-process replay of the traced operations
// through each module's public functions, a layer suite of
// microbenchmarks, and /metrics deltas). See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// spec names a workload, says why it is in the benchmark, and records a
// held-out seed: one not used while tuning, for confirming later claims.
type spec struct {
	name    string
	why     string
	heldOut int64
	build   func(config, int64) (workload, error)
}

var specs = []spec{
	{"solve-inline", "serving hot path: inline-graph JSON decode, pool checkout with Reload, and the SolveContext lane, four destinations per request", 7919,
		func(c config, s int64) (workload, error) { return newSolveInline(c, s) }},
	{"allpairs-stream", "fused SolveSweep lane and per-row NDJSON encode and flush; decode and queueing are near zero, so solve and decode changes must not move it", 7927,
		func(c config, s int64) (workload, error) { return newAllPairs(c, s) }},
	{"session-churn", "write path: Session.Update sparse DMA, warm ResolveSweep, the skip certificate and the host Next rebuild, with little cold DP or decode", 7933,
		func(c config, s int64) (workload, error) { return newSessionChurn(c, s) }},
	{"fleet-zipf", "router layer: identity memo, SHA-256 result cache, ring placement and the proxy hop; core changes show only on misses, router changes only on hits", 7937,
		func(c config, s int64) (workload, error) { return newFleetZipf(c, s) }},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit stops a run that would overrun its time budget.
const runLimit = 170 * time.Second

func main() {
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: solve-inline, allpairs-stream, session-churn or fleet-zipf")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 22, "measured phase length in seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fl.String("out", ".bench_build", "directory for the span file and the CPU profile")
	cpuprofile := fl.String("cpuprofile", "", "traced runs: write a CPU profile of the replay and layer suite, labelled by layer, to this file under -out")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %s, --seconds > 0 and --trace 0|1\n", names())
		return 2
	}
	cfg := defaultConfig(*seconds)
	res, report, err := bench(cfg, sp, *seed, *trace == 1, *out, *cpuprofile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

func names() string {
	var ns []string
	for _, s := range specs {
		ns = append(ns, s.name)
	}
	return strings.Join(ns, ", ")
}

// bench runs one workload and returns the result line and the report.
func bench(cfg config, sp spec, seed int64, trace bool, outDir, cpuprofile string) (*result, map[string]any, error) {
	t0 := time.Now()
	w, err := sp.build(cfg, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("inputs: %w", err)
	}
	report := map[string]any{
		"workload": sp.name, "why": sp.why,
		"host":     hostBlock(seed, sp.heldOut, cfg.Seconds),
		"inputs_s": time.Since(t0).Seconds(),
	}
	reps := cfg.SetupReps
	if trace {
		reps = 1
	}
	st, setups, setupProbes, err := boots(w, reps)
	if err != nil {
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	defer w.closeStack(st)
	sim, err := w.simPass(st)
	if err != nil {
		return nil, nil, fmt.Errorf("sim pass: %w", err)
	}
	report["setup_s_samples"] = setups
	report["setup_probe_ns"] = setupProbes
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	if !trace {
		ph, err := w.run(st, dur, false)
		if err != nil {
			return nil, nil, err
		}
		report["steal_pct"] = 100 * ph.steal
		report["slices"] = sliceReport(ph)
		m, firstRow := endToEnd(ph, sim, setupSeconds(setups, setupProbes))
		res := &result{Correct: true, Attempted: ph.attempted(), Failed: ph.failed(), Metrics: m}
		report["first_row_p50_ms"] = metric{firstRow, "ms"}
		report["samples"] = len(okLatencies(ph))
		report["p99_ms"] = groupedQuantile(okLatencies(ph), 0.99, 1000)
		return res, report, nil
	}
	return traced(cfg, sp, w, st, sim, dur, seed, outDir, cpuprofile, report)
}

func okLatencies(ph *phase) []float64 {
	var xs []float64
	for _, op := range ph.ops {
		if op.ok {
			xs = append(xs, ms(op.latency))
		}
	}
	return xs
}

// sliceReport gives each slice of ph unscaled: its probe reading, length,
// successful operations and rows, CPU time and median latencies.
func sliceReport(ph *phase) []map[string]float64 {
	lat := make([][]float64, len(ph.slices))
	first := make([][]float64, len(ph.slices))
	rows := make([]int, len(ph.slices))
	for _, op := range ph.ops {
		if op.ok {
			lat[op.slice] = append(lat[op.slice], ms(op.latency))
			first[op.slice] = append(first[op.slice], ms(op.firstRow))
			rows[op.slice] += op.rows
		}
	}
	var out []map[string]float64
	for k, s := range ph.slices {
		out = append(out, map[string]float64{
			"probe_ns": s.probe, "s": s.dt.Seconds(), "ops": float64(len(lat[k])), "rows": float64(rows[k]),
			"cpu_ms": ms(s.cpu), "p50_ms": median(lat[k]), "first_row_p50_ms": median(first[k]),
		})
	}
	return out
}

// endToEnd computes the untraced run's metrics over the quieter two
// thirds of its slices (see quiet), every host time scaled to the
// reference host by its slice's probe (see probe.go): rates and CPU per
// operation are medians over those slices, and p90 is the median over
// groups of at least 100 operations (each with ten samples beyond its
// p90). It also returns the scaled median time to the first row, which is
// reported but not gated (see README.md, Noise).
func endToEnd(ph *phase, sim simTotals, setup float64) (map[string]metric, float64) {
	probes := make([]float64, len(ph.slices))
	for k, s := range ph.slices {
		probes[k] = s.probe
	}
	keep := make([]bool, len(ph.slices))
	for _, k := range quiet(probes) {
		keep[k] = true
	}
	ok := 0
	ops, rows := make([]int, len(ph.slices)), make([]int, len(ph.slices))
	var lat, first []float64
	for _, op := range ph.ops {
		if !op.ok {
			continue
		}
		if ok++; !keep[op.slice] {
			continue
		}
		ops[op.slice]++
		rows[op.slice] += op.rows
		r := ph.slices[op.slice].scale()
		lat = append(lat, ms(op.latency)*r)
		first = append(first, ms(op.firstRow)*r)
	}
	var opsRate, rowsRate, cpuPerOp []float64
	for k, s := range ph.slices {
		if !keep[k] || ops[k] == 0 {
			continue
		}
		t := s.dt.Seconds() * s.scale()
		opsRate = append(opsRate, float64(ops[k])/t)
		rowsRate = append(rowsRate, float64(rows[k])/t)
		cpuPerOp = append(cpuPerOp, ms(s.cpu)*s.scale()/float64(ops[k]))
	}
	return map[string]metric{
		"setup_s":                 {setup, "s"},
		"p50_ms":                  {median(lat), "ms"},
		"p90_ms":                  {groupedQuantile(lat, 0.90, 100), "ms"},
		"ops_per_s":               {median(opsRate), "1/s"},
		"rows_per_s":              {median(rowsRate), "1/s"},
		"ok_ratio":                {ratio(float64(ok), float64(ph.attempted())), "ratio"},
		"cpu_ms_per_op":           {median(cpuPerOp), "ms"},
		"peak_rss_mb":             {peakRSSMB(), "MiB"},
		"sim_comm_cycles_per_row": {ratio(float64(sim.cost.CommCycles()), float64(sim.rows)), "cycles"},
		"dp_rounds_per_row":       {ratio(float64(sim.iters), float64(sim.rows)), "rounds"},
	}, median(first)
}

// traced runs the workload untraced and then traced for half the run
// each, replays the traced operations in-process, runs the layer suite,
// and reports the per-layer metrics.
func traced(cfg config, sp spec, w workload, st *stack, sim simTotals, dur time.Duration, seed int64, outDir, cpuprofile string, report map[string]any) (*result, map[string]any, error) {
	plain, err := w.run(st, dur/2, false)
	if err != nil {
		return nil, nil, err
	}
	b0, f0, err := scrapeAll(st)
	if err != nil {
		return nil, nil, err
	}
	epoch := time.Now()
	tr, err := w.run(st, dur/2, true)
	if err != nil {
		return nil, nil, err
	}
	b1, f1, err := scrapeAll(st)
	if err != nil {
		return nil, nil, err
	}

	if cpuprofile != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, nil, err
		}
		f, err := os.Create(filepath.Join(outDir, cpuprofile))
		if err != nil {
			return nil, nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, nil, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	rec := newRecorder()
	if err := w.replay(tr.ops, rec); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	fb := newRecorder()
	if err := benchStages(cfg, rec, fb); err != nil {
		return nil, nil, fmt.Errorf("bench stages: %w", err)
	}
	suite, err := layerSuite(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("layer suite: %w", err)
	}
	// Every per-layer metric of BENCHMARK.json is reported on every
	// workload, so rows for stages a workload does not run come from the
	// bench graph and a router probe; the report names them as off its
	// path.
	m, offPath := stageMetrics(rec, fb)
	routerRows := map[string]float64{}
	if st.router != nil {
		routerRows = routerStats(okLatencies(tr), f0, f1)
	} else {
		if routerRows, err = routerProbe(cfg); err != nil {
			return nil, nil, err
		}
		for k := range routerRows {
			offPath = append(offPath, k)
		}
		sort.Strings(offPath)
	}
	for k, v := range scrapeMetrics(b0, b1, okLatencies(tr)) {
		m[k] = v
	}
	for k, v := range simMetrics(sim) {
		m[k] = v
	}
	for k, v := range suite {
		m[k] = metric{v, unitOf(k)}
	}
	for k, v := range routerRows {
		m[k] = metric{v, unitOf(k)}
	}

	// Accounting: client latency = replayed stage sum + residual.
	var resid, client, stages []float64
	var spans [][]span
	for i := range rec.ops {
		op := &rec.ops[i]
		c := ms(tr.ops[op.req].latency)
		s := ms(op.stageSum())
		client, stages, resid = append(client, c), append(stages, s), append(resid, c-s)
		spans = append(spans, op.spans)
	}
	m["serve.residual_ms_p50"] = metric{median(resid), "ms"}
	m["trace.client_ms_mean"] = metric{mean(client), "ms"}
	m["trace.stage_ms_mean"] = metric{mean(stages), "ms"}
	p50plain, p50traced := median(okLatencies(plain)), median(okLatencies(tr))
	m["trace.overhead_pct"] = metric{100 * ratio(p50traced-p50plain, p50plain), "%"}
	var lags []float64
	for _, op := range plain.ops {
		lags = append(lags, ms(op.lag))
	}
	m["loadgen.lag_p99_ms"] = metric{quantile(lags, 0.99), "ms"}

	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = ratio(ms(d), float64(len(spans)))
	}
	report["replayed_ops"] = len(rec.ops)
	report["self_ms_per_op"] = self
	report["residual_ms_mean"] = mean(resid)
	report["off_path"] = offPath
	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", sp.name, seed))
	if err := writeSpans(spanFile, epoch, tr.ops, rec.ops); err != nil {
		return nil, nil, err
	}
	report["spans"] = spanFile
	return &result{Correct: true, Attempted: tr.attempted(), Failed: tr.failed(), Metrics: m}, report, nil
}

// hostBlock describes the machine, the toolchain and the code measured.
func hostBlock(seed, heldOut int64, seconds float64) map[string]any {
	return map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model": cpuModel(), "go_version": runtime.Version(),
		"commit": commit(), "source_sha256": sourceDigest("."),
		"seed": seed, "held_out_seed": heldOut, "run_seconds": seconds,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources under root (everything
// but the benchmark's own directory and build output), so results name
// the code they measured even outside a repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
