package main

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/serve"
)

// tinyConfig shrinks every knob so each workload runs in about a second.
func tinyConfig() config {
	return config{N: 16, Seconds: 0.6, SetupReps: 2, Suite: 2 * time.Millisecond, Replay: 20}
}

type benchFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryWorkloadEmitsEveryMetric runs each workload of BENCHMARK.json
// at tiny size, untraced and traced, and checks the result carries
// exactly the metrics the file names, each with its unit, and that the
// recorded why-sentence is the workload's own.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchFile(t)
	for _, wl := range bf.Workloads {
		sp, ok := lookup(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		if sp.why != wl.Why {
			t.Errorf("%s: why in BENCHMARK.json differs from the benchmark's", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, report, err := bench(tinyConfig(), sp, 3, traced, t.TempDir(), "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", wl.Name, traced, name)
				}
			}
			if traced {
				checkSpanFile(t, report["spans"].(string))
			}
		}
	}
}

// checkSpanFile checks the written spans parse and that every span's
// parent is an earlier span of the same request.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[[2]int]bool{}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sl spanLine
		if err := json.Unmarshal(sc.Bytes(), &sl); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if sl.Parent >= 0 && !seen[[2]int{sl.Req, sl.Parent}] {
			t.Fatalf("%s: span %d of request %d has unknown parent %d", filepath.Base(path), sl.Span, sl.Req, sl.Parent)
		}
		if sl.EndUS < sl.StartUS {
			t.Fatalf("%s: span %s ends before it starts", filepath.Base(path), sl.Name)
		}
		seen[[2]int{sl.Req, sl.Span}] = true
		lines++
	}
	if lines == 0 {
		t.Fatalf("%s: no spans", filepath.Base(path))
	}
}

// TestOracleRejectsCorruptRows checks the oracle passes a served row and
// rejects it after any single corruption.
func TestOracleRejectsCorruptRows(t *testing.T) {
	g := graph.GenRandomConnected(16, density, maxW, 9)
	o, err := newOracle(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Solve(g, 5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := destResult(r)
	if err := o.check(&good); err != nil {
		t.Fatalf("correct row rejected: %v", err)
	}
	if err := tableOracle(g).check(&good); err != nil {
		t.Fatalf("correct row rejected by the table oracle: %v", err)
	}
	far := 0
	for i, d := range good.Dist {
		if d > good.Dist[far] {
			far = i
		}
	}
	corrupt := map[string]func(*serve.DestResult){
		"dist off by one":   func(dr *serve.DestResult) { dr.Dist[far]++ },
		"dist unreachable":  func(dr *serve.DestResult) { dr.Dist[far] = -1 },
		"next self loop":    func(dr *serve.DestResult) { dr.Next[far] = far },
		"next missing":      func(dr *serve.DestResult) { dr.Next[far] = -1 },
		"next out of range": func(dr *serve.DestResult) { dr.Next[far] = g.N },
		"short row":         func(dr *serve.DestResult) { dr.Dist = dr.Dist[:g.N-1] },
		"wrong dest":        func(dr *serve.DestResult) { dr.Dest = (dr.Dest + 1) % g.N },
	}
	for name, f := range corrupt {
		dr := destResult(r)
		f(&dr)
		if err := o.check(&dr); err == nil {
			t.Errorf("%s: corrupted row passed the oracle", name)
		}
	}
}

// TestCorruptExpectationFailsTheRun corrupts the expected distances of a
// tiny solve-inline run: the run must stop with a wrong-answer error.
func TestCorruptExpectationFailsTheRun(t *testing.T) {
	sp, _ := lookup("solve-inline")
	cfg := tinyConfig()
	w, err := newSolveInline(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range w.oracles {
		for i := range o.dist {
			if o.dist[i] > 0 {
				o.dist[i]++
			}
		}
	}
	sp.build = func(config, int64) (workload, error) { return w, nil }
	_, _, err = bench(cfg, sp, 3, false, t.TempDir(), "")
	if !errors.Is(err, errWrong) {
		t.Fatalf("run with a corrupted oracle returned %v, want a wrong-answer error", err)
	}
}

// TestBrokenTableIsWrong serves allpairs-stream a table whose done
// trailer disagrees with the rows streamed, or with a row that does not
// parse: each is a wrong answer, not a failed operation. A stream that
// ends in an error line is a failure.
func TestBrokenTableIsWrong(t *testing.T) {
	w, err := newAllPairs(tinyConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g := w.oracles[0].g
	var rows [][]byte
	for d := 0; d < g.N; d++ {
		r, err := core.Solve(g, d, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(destResult(r))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, line)
	}
	done := []byte(fmt.Sprintf(`{"done":true,"rows":%d}`, g.N))
	cases := []struct {
		name    string
		lines   [][]byte
		isWrong bool
	}{
		{"whole table", append(append([][]byte{}, rows...), done), false},
		{"short table", append(append([][]byte{}, rows[1:]...), done), true},
		{"extra row", append(append([][]byte{}, rows...), rows[0], done), true},
		{"garbled row", append(append([][]byte{[]byte(`{"dest":0,"dist":[1,`)}, rows[1:]...), done), true},
		{"error line", append(append([][]byte{}, rows[:3]...), []byte(`{"error":"solver failed"}`)), false},
	}
	for _, tc := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(rw, "{\"n\":%d}\n", g.N)
			for _, l := range tc.lines {
				rw.Write(append(l, '\n'))
			}
		}))
		rec, err := w.do(&stack{url: srv.URL, client: srv.Client()}, 0, false)
		srv.Close()
		switch {
		case tc.isWrong && !errors.Is(err, errWrong):
			t.Errorf("%s: got ok=%v err=%v, want a wrong-answer error", tc.name, rec.ok, err)
		case !tc.isWrong && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.name == "whole table" && !rec.ok, tc.name == "error line" && rec.ok:
			t.Errorf("%s: ok=%v", tc.name, rec.ok)
		}
	}
}

// TestProfileLabelsLayers writes the traced run's CPU profile and checks
// its samples carry the layer labels of the replay and the layer suite.
func TestProfileLabelsLayers(t *testing.T) {
	sp, _ := lookup("solve-inline")
	cfg := tinyConfig()
	cfg.Suite = 60 * time.Millisecond
	dir := t.TempDir()
	if _, _, err := bench(cfg, sp, 3, true, dir, "cpu.pprof"); err != nil {
		t.Fatal(err)
	}
	layers := profileLabels(t, filepath.Join(dir, "cpu.pprof"), "layer")
	for _, want := range []string{"ppa", "par", "core", "router"} {
		if layers[want] == 0 {
			t.Errorf("no samples labelled layer=%s (got %v)", want, layers)
		}
	}
}

// profileLabels counts a profile's samples by the value of label key. It
// decodes just enough of the gzipped profile.proto: the string table
// (field 6) and each sample's labels (field 2, label field 3).
func profileLabels(t *testing.T, path, key string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	var labels [][][2]uint64 // per sample: (key, value) string indices
	eachField(t, data, func(num, _ uint64, b []byte) {
		switch num {
		case 6:
			strs = append(strs, string(b))
		case 2:
			var ls [][2]uint64
			eachField(t, b, func(num, _ uint64, lb []byte) {
				if num != 3 {
					return
				}
				var kv [2]uint64
				eachField(t, lb, func(num, v uint64, _ []byte) {
					if num == 1 || num == 2 {
						kv[num-1] = v
					}
				})
				ls = append(ls, kv)
			})
			labels = append(labels, ls)
		}
	})
	out := map[string]int{}
	for _, ls := range labels {
		for _, kv := range ls {
			if int(kv[0]) < len(strs) && int(kv[1]) < len(strs) && strs[kv[0]] == key {
				out[strs[kv[1]]]++
			}
		}
	}
	return out
}

// eachField walks one protobuf message, passing each field's number and,
// by wire type, its varint value or its length-delimited bytes.
func eachField(t *testing.T, b []byte, fn func(num, v uint64, body []byte)) {
	t.Helper()
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatal("profile: bad field tag")
		}
		b = b[n:]
		switch tag & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				t.Fatal("profile: bad varint")
			}
			fn(tag>>3, v, nil)
			b = b[n:]
		case 1:
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				t.Fatal("profile: bad length")
			}
			fn(tag>>3, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			b = b[4:]
		default:
			t.Fatalf("profile: wire type %d", tag&7)
		}
	}
}

// TestEndToEndScalesQuietSlices checks that the host-time metrics come
// from the slices whose probe ran fastest, scaled to the reference host:
// a slice run at half the reference speed reads as the reference host.
func TestEndToEndScalesQuietSlices(t *testing.T) {
	t0 := time.Now()
	ph := &phase{slices: []slice{
		{dt: time.Second, cpu: 400 * time.Millisecond, probe: 2 * probeRefNS},
		{dt: time.Second, cpu: time.Second, probe: 5 * probeRefNS}, // a burst of contention: dropped
		{dt: time.Second, cpu: 400 * time.Millisecond, probe: 2 * probeRefNS},
	}}
	for k, n := range []int{4, 1, 4} {
		for i := 0; i < n; i++ {
			ph.ops = append(ph.ops, opRecord{slice: k, send: t0, latency: 10 * time.Millisecond, firstRow: 4 * time.Millisecond, rows: 3, ok: true})
		}
	}
	ph.ops = append(ph.ops, opRecord{slice: 0, send: t0, latency: time.Second})
	m, firstRow := endToEnd(ph, simTotals{}, 0)
	for name, want := range map[string]float64{
		"p50_ms":        5,
		"ops_per_s":     8,
		"rows_per_s":    24,
		"cpu_ms_per_op": 50,
		"ok_ratio":      9.0 / 10,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if math.Abs(firstRow-2) > 1e-9 {
		t.Errorf("first row = %v, want 2", firstRow)
	}
	if got := quiet([]float64{3, 1, 4, 1.5, 9}); !reflect.DeepEqual(got, []int{1, 3, 0, 2}) {
		t.Errorf("quiet = %v, want [1 3 0 2]", got)
	}
}
