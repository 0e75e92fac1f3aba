package ppa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// This file holds a second, lower-level implementation of the bus
// semantics: the *port-level* model, which simulates what Figure 1b of
// the paper actually draws. Every PE has an upstream-facing port and a
// downstream-facing port on each bus; consecutive PEs' ports are joined
// by wires; a Short switch box connects a PE's two ports electrically,
// an Open one disconnects them, drives the downstream port and reads the
// upstream port. Signals resolve per electrical net (connected component
// of ports).
//
// Its purpose is verification: the behavioral cut-ring model in
// machine.go is what the algorithms run on, and the port-level model is
// the independent ground truth it is property-tested against (the
// TestPortLevel* suites below). The two agree exactly for BroadcastBits
// on every configuration. For WiredOrBits they agree on every lane except
// the Open PEs of rings that host two or more clusters: electrically, an
// Open PE's read port hangs on the *upstream* cluster's wire, while the
// behavioral model idealizes a local pickup of the PE's own cluster OR.
// The paper's algorithms only ever build whole-ring clusters (at most
// one Open PE per ring), where the wrap makes the two identical — the
// equivalence test pins down both the agreement and the exact divergence
// set.

// netsFor computes, for one ring in flow order, the electrical net id of
// each PE's upstream-facing port (net ids are the flow position of the
// net's driving Open PE; -1 everywhere when the ring has no Open PE and
// is a single undriven loop). It also returns the list of Open positions.
func netsFor(n int, open func(k int) bool) (upNet []int, heads []int) {
	upNet = make([]int, n)
	for k := 0; k < n; k++ {
		if open(k) {
			heads = append(heads, k)
		}
	}
	if len(heads) == 0 {
		for k := range upNet {
			upNet[k] = -1
		}
		return upNet, nil
	}
	// The net driven by head h spans the wire from h's downstream port
	// to the next head's upstream port: upstream ports of positions
	// h+1 ... nextHead (inclusive, wrapping).
	for hi, h := range heads {
		next := heads[(hi+1)%len(heads)]
		span := ((next-h)%n + n) % n
		if span == 0 {
			span = n
		}
		for t := 1; t <= span; t++ {
			upNet[(h+t)%n] = h
		}
	}
	return upNet, heads
}

// portLevelBroadcast computes one BroadcastBits transaction with the
// port-level model. Lanes whose upstream port hangs on an undriven net
// keep their dst value. dst must not alias src.
func portLevelBroadcast(n int, d Direction, open []bool, src, dst []Word) {
	checkPortArgs(n, len(open), len(src), len(dst))
	forEachRing(n, d, func(pos func(k int) int) {
		upNet, _ := netsFor(n, func(k int) bool { return open[pos(k)] })
		for k := 0; k < n; k++ {
			if h := upNet[k]; h >= 0 {
				dst[pos(k)] = src[pos(h)]
			}
		}
	})
}

// portLevelWiredOr computes one WiredOrBits transaction with the
// port-level model: every PE drives its bit onto the net(s) its ports
// belong to (a Short PE's two ports are one net; an Open PE drives only
// its downstream port) and reads back the net on its upstream port. On a
// headless ring the single loop net carries the OR of all drives.
// dst must not alias drive.
func portLevelWiredOr(n int, d Direction, open, drive, dst []bool) {
	checkPortArgs(n, len(open), len(drive), len(dst))
	forEachRing(n, d, func(pos func(k int) int) {
		upNet, heads := netsFor(n, func(k int) bool { return open[pos(k)] })
		if heads == nil {
			or := false
			for k := 0; k < n; k++ {
				or = or || drive[pos(k)]
			}
			for k := 0; k < n; k++ {
				dst[pos(k)] = or
			}
			return
		}
		// OR per net: the head drives its own net through its downstream
		// port; every Short PE on the net drives it too.
		netOr := make(map[int]bool, len(heads))
		for _, h := range heads {
			netOr[h] = drive[pos(h)]
		}
		for k := 0; k < n; k++ {
			if !open[pos(k)] && drive[pos(k)] {
				netOr[upNet[k]] = true
			}
		}
		for k := 0; k < n; k++ {
			dst[pos(k)] = netOr[upNet[k]]
		}
	})
}

// forEachRing iterates the n rings of direction d, handing the callback a
// flow-order position mapping.
func forEachRing(n int, d Direction, fn func(pos func(k int) int)) {
	for ring := 0; ring < n; ring++ {
		r := ring
		var pos func(k int) int
		switch d {
		case East:
			pos = func(k int) int { return r*n + k }
		case West:
			pos = func(k int) int { return r*n + n - 1 - k }
		case South:
			pos = func(k int) int { return k*n + r }
		case North:
			pos = func(k int) int { return (n-1-k)*n + r }
		default:
			panic(fmt.Sprintf("ppa: invalid direction %d", d))
		}
		fn(pos)
	}
}

func checkPortArgs(n int, lens ...int) {
	for _, l := range lens {
		if l != n*n {
			panic(fmt.Sprintf("ppa: port-level slice length %d, want %d", l, n*n))
		}
	}
}

// TestPortLevelBroadcastEquivalence: the behavioral cut-ring broadcast
// and the electrical port-level model agree on EVERY configuration.
func TestPortLevelBroadcastEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		d := Direction(rng.Intn(4))
		m := New(n, 10)
		open := make([]bool, n*n)
		src := make([]Word, n*n)
		behavioral := make([]Word, n*n)
		portLevel := make([]Word, n*n)
		for i := range open {
			open[i] = rng.Intn(3) == 0
			src[i] = Word(rng.Intn(1 << 10))
			behavioral[i] = Word(rng.Intn(1 << 10))
			portLevel[i] = behavioral[i]
		}
		broadcastBools(m, d, open, src, behavioral)
		portLevelBroadcast(n, d, open, src, portLevel)
		if !reflect.DeepEqual(behavioral, portLevel) {
			t.Fatalf("trial %d n=%d d=%v: models diverged\nopen=%v\nsrc=%v\nbehav=%v\nport =%v",
				trial, n, d, open, src, behavioral, portLevel)
		}
	}
}

// TestPortLevelWiredOrEquivalence: the models agree on every lane except
// the Open PEs of rings hosting two or more clusters — the exact
// divergence set documented at the top of this file. Single-head rings
// (the only configuration the paper's algorithms build) agree everywhere.
func TestPortLevelWiredOrEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		d := Direction(rng.Intn(4))
		m := New(n, 8)
		open := make([]bool, n*n)
		drive := make([]bool, n*n)
		behavioral := make([]bool, n*n)
		portLevel := make([]bool, n*n)
		for i := range open {
			open[i] = rng.Intn(3) == 0
			drive[i] = rng.Intn(2) == 0
		}
		wiredOrBools(m, d, open, drive, behavioral)
		portLevelWiredOr(n, d, open, drive, portLevel)

		// Count heads per ring to classify lanes.
		headsInRing := make([]int, n)
		for ring := 0; ring < n; ring++ {
			for k := 0; k < n; k++ {
				var p int
				if d.Horizontal() {
					p = ring*n + k
				} else {
					p = k*n + ring
				}
				if open[p] {
					headsInRing[ring]++
				}
			}
		}
		ringOf := func(p int) int {
			if d.Horizontal() {
				return p / n
			}
			return p % n
		}
		for p := 0; p < n*n; p++ {
			mayDiverge := open[p] && headsInRing[ringOf(p)] >= 2
			if behavioral[p] != portLevel[p] && !mayDiverge {
				t.Fatalf("trial %d n=%d d=%v: divergence outside the documented set at lane %d\nopen=%v\ndrive=%v\nbehav=%v\nport =%v",
					trial, n, d, p, open, drive, behavioral, portLevel)
			}
		}
	}
}

// TestPortLevelWiredOrSingleHeadExact: with at most one head per ring
// (the MCP configurations) the two models are identical everywhere.
func TestPortLevelWiredOrSingleHeadExact(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		d := Direction(rng.Intn(4))
		m := New(n, 8)
		open := make([]bool, n*n)
		drive := make([]bool, n*n)
		for ring := 0; ring < n; ring++ {
			if rng.Intn(4) != 0 { // some rings stay headless
				k := rng.Intn(n)
				if d.Horizontal() {
					open[ring*n+k] = true
				} else {
					open[k*n+ring] = true
				}
			}
		}
		for i := range drive {
			drive[i] = rng.Intn(2) == 0
		}
		behavioral := make([]bool, n*n)
		portLevel := make([]bool, n*n)
		wiredOrBools(m, d, open, drive, behavioral)
		portLevelWiredOr(n, d, open, drive, portLevel)
		if !reflect.DeepEqual(behavioral, portLevel) {
			t.Fatalf("trial %d: single-head configs diverged", trial)
		}
	}
}

// TestPortLevelWiredOrDivergenceExists pins that the documented
// divergence is real, not vacuous: a two-cluster ring where the clusters
// carry different ORs.
func TestPortLevelWiredOrDivergenceExists(t *testing.T) {
	const n = 4
	m := New(n, 8)
	open := make([]bool, n*n)
	drive := make([]bool, n*n)
	// Row 0, flow East: heads at 0 and 2; only cluster {2,3} drives.
	open[0], open[2] = true, true
	drive[3] = true
	behavioral := make([]bool, n*n)
	portLevel := make([]bool, n*n)
	wiredOrBools(m, East, open, drive, behavioral)
	portLevelWiredOr(n, East, open, drive, portLevel)
	// Behavioral: head 0 reads its own (silent) cluster -> false.
	// Port-level: head 0's read port hangs on cluster {2,3}'s wire -> true.
	if behavioral[0] != false || portLevel[0] != true {
		t.Errorf("head 0: behavioral %v (want false), port-level %v (want true)",
			behavioral[0], portLevel[0])
	}
	// Non-head lanes agree.
	for _, p := range []int{1, 3} {
		if behavioral[p] != portLevel[p] {
			t.Errorf("lane %d diverged unexpectedly", p)
		}
	}
}

func TestPortLevelPanicsOnBadLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	portLevelBroadcast(3, East, make([]bool, 4), make([]Word, 9), make([]Word, 9))
}
