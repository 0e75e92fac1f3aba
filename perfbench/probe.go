package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"
)

// Host speed. On a shared VM the CPUs' effective speed drifts by 10-30%
// within seconds and from one run to the next, with no hypervisor steal
// to show for it, and every host-time metric drifts with it. So the
// benchmark runs a fixed probe in short bursts between the slices of the
// measured phase and between stack boots, and scales each timing to the
// speed the probe would have on the reference host: a time t measured
// while the probe took p ns per pass is reported as t*probeRefNS/p (a
// rate r as r*p/probeRefNS). The probe calls no code of the program, so a
// change to the program moves the scaled figures as much as the raw ones,
// while a slow stretch of the host slows the probe too and cancels out.

// probeRefNS is the probe's ns per pass on the reference host (2-vCPU
// Intel Xeon VM), the speed every scaled figure is given at.
const probeRefNS = 250_000

// probeDoc is what the probe decodes: a weight matrix shaped like the
// graphs the workloads send.
type probeDoc struct {
	N int     `json:"n"`
	W [][]int `json:"w"`
}

var probeBody = func() []byte {
	r := rand.New(rand.NewSource(1))
	d := probeDoc{N: 32}
	for i := 0; i < d.N; i++ {
		row := make([]int, d.N)
		for j := range row {
			row[j] = r.Intn(10)
		}
		d.W = append(d.W, row)
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return b
}()

// probePass does the two kinds of work the serving path does most: JSON
// decode with its allocations, and word-level bit operations over a
// packed plane.
func probePass() uint64 {
	var d probeDoc
	if err := json.Unmarshal(probeBody, &d); err != nil {
		panic(fmt.Sprintf("probe: %v", err))
	}
	var w [64]uint64
	for i := range w {
		w[i] = uint64(d.W[i%d.N][i/2]+1) * 0x9E3779B97F4A7C15
	}
	var s uint64
	for r := 0; r < 256; r++ {
		for i := range w {
			w[i] = bits.RotateLeft64(w[i]^w[(i+1)&63], 7) + uint64(r)
			s += uint64(bits.OnesCount64(w[i] & w[(i+5)&63]))
		}
	}
	return s
}

// probeSink keeps the probe's result alive.
var probeSink uint64

// probe runs probePass on g goroutines for d and returns the wall time
// per pass on one goroutine, in ns.
func probe(g int, d time.Duration) float64 {
	var wg sync.WaitGroup
	passes := make([]int, g)
	sums := make([]uint64, g)
	t0 := time.Now()
	for k := 0; k < g; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Since(t0) < d {
				sums[k] += probePass()
				passes[k]++
			}
		}(k)
	}
	wg.Wait()
	el := time.Since(t0)
	n := 0
	for k := range passes {
		n += passes[k]
		probeSink += sums[k]
	}
	return float64(el.Nanoseconds()) * float64(g) / float64(max(n, 1))
}

// speedScale is the factor that turns a time measured while the probe
// took p ns per pass into reference-host time.
func speedScale(p float64) float64 { return ratio(probeRefNS, p) }
