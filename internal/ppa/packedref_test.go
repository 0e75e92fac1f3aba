package ppa

import (
	"math/rand"
	"testing"
)

// This file pins the packed (Bitset) bus kernels against the original
// per-lane reference implementation: the exact loops the simulator
// shipped with before lanes were bit-packed, kept here as the executable
// specification. Randomized configurations — all directions, degenerate
// and dense switch patterns, injected faults, worker pools — must agree
// bit for bit.

// refBroadcast is the reference cut-ring broadcast (per-lane walk).
func refBroadcast(n int, d Direction, open []bool, src, dst []Word) {
	for i := 0; i < n; i++ {
		rg := ringGeometry(d, i, n)
		last := -1
		for k := 0; k < n; k++ {
			if open[rg.base+k*rg.stride] {
				last = k
			}
		}
		if last == -1 {
			continue
		}
		lastVal := src[rg.base+last*rg.stride]
		for t := 1; t <= n; t++ {
			k := last + t
			if k >= n {
				k -= n
			}
			p := rg.base + k*rg.stride
			v := src[p]
			dst[p] = lastVal
			if open[p] {
				lastVal = v
			}
		}
	}
}

// refWiredOr is the reference cluster-walk wired-OR (per-lane walk).
func refWiredOr(n int, d Direction, open, drive, dst []bool) {
	for i := 0; i < n; i++ {
		rg := ringGeometry(d, i, n)
		first := -1
		for k := 0; k < n; k++ {
			if open[rg.base+k*rg.stride] {
				first = k
				break
			}
		}
		if first == -1 {
			or := false
			for k := 0; k < n; k++ {
				or = or || drive[rg.base+k*rg.stride]
			}
			for k := 0; k < n; k++ {
				dst[rg.base+k*rg.stride] = or
			}
			continue
		}
		start := first
		for covered := 0; covered < n; {
			segLen := 1
			for segLen < n {
				k := start + segLen
				if k >= n {
					k -= n
				}
				if open[rg.base+k*rg.stride] {
					break
				}
				segLen++
			}
			or := false
			for t := 0; t < segLen; t++ {
				k := start + t
				if k >= n {
					k -= n
				}
				or = or || drive[rg.base+k*rg.stride]
			}
			for t := 0; t < segLen; t++ {
				k := start + t
				if k >= n {
					k -= n
				}
				dst[rg.base+k*rg.stride] = or
			}
			covered += segLen
			start += segLen
			if start >= n {
				start -= n
			}
		}
	}
}

// applyFaults mirrors effectiveOpenBits for the reference path.
func applyFaults(open []bool, faults map[int]FaultKind) []bool {
	eff := append([]bool(nil), open...)
	for pe, kind := range faults {
		eff[pe] = kind == StuckOpen
	}
	return eff
}

func TestPackedBusMatchesReferenceLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sides := []int{1, 2, 3, 5, 8, 13, 16, 31, 64, 65}
	for trial := 0; trial < 300; trial++ {
		n := sides[rng.Intn(len(sides))]
		size := n * n
		h := uint(4 + rng.Intn(8))
		workers := 1
		if rng.Intn(2) == 0 {
			workers = 1 + rng.Intn(4)
		}
		m := New(n, h, WithWorkers(workers))

		faults := map[int]FaultKind{}
		for f := rng.Intn(4); f > 0 && n > 1; f-- {
			pe := rng.Intn(size)
			kind := FaultKind(rng.Intn(2))
			faults[pe] = kind
			m.InjectFault(pe, kind)
		}

		// Switch density sweeps from empty through sparse to dense.
		density := []float64{0, 0.05, 0.3, 0.9, 1}[rng.Intn(5)]
		open := randBools(rng, size, density)
		d := Direction(rng.Intn(4))

		src := make([]Word, size)
		for i := range src {
			src[i] = Word(rng.Int63n(int64(Infinity(h)) + 1))
		}
		gotW := append([]Word(nil), src...) // floating lanes keep src
		broadcastBools(m, d, open, src, gotW)
		wantW := append([]Word(nil), src...)
		refBroadcast(n, d, applyFaults(open, faults), src, wantW)
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("trial %d (n=%d d=%v workers=%d faults=%v): Broadcast lane %d = %d, reference %d",
					trial, n, d, workers, faults, i, gotW[i], wantW[i])
			}
		}

		drive := randBools(rng, size, 0.3)
		gotB := make([]bool, size)
		wiredOrBools(m, d, open, drive, gotB)
		wantB := make([]bool, size)
		refWiredOr(n, d, applyFaults(open, faults), drive, wantB)
		for i := range wantB {
			if gotB[i] != wantB[i] {
				t.Fatalf("trial %d (n=%d d=%v workers=%d faults=%v): WiredOr lane %d = %v, reference %v",
					trial, n, d, workers, faults, i, gotB[i], wantB[i])
			}
		}

		pred := randBools(rng, size, 0.02)
		want := false
		for _, p := range pred {
			want = want || p
		}
		if got := m.GlobalOrBits(NewBitsetFromBools(pred)); got != want {
			t.Fatalf("trial %d: GlobalOrBits = %v, reference %v", trial, got, want)
		}
	}
}

// TestObserverSkippedWhenAbsent pins the observer tax fix: with no
// observer attached, transactions must not scan the configuration; with
// one attached, Opens must be the post-fault Open count.
func TestObserverOpensCount(t *testing.T) {
	m := New(4, 8)
	open := make([]bool, 16)
	open[3], open[7] = true, true
	var events []Event
	m.SetObserver(func(e Event) { events = append(events, e) })
	m.InjectFault(5, StuckOpen)
	wiredOrBools(m, East, open, make([]bool, 16), make([]bool, 16))
	if len(events) != 1 || events[0].Opens != 3 {
		t.Fatalf("observer saw %+v, want one event with Opens=3 (2 requested + 1 stuck-open)", events)
	}
}
