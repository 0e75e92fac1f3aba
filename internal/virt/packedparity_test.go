package virt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ppamcp/internal/ppa"
)

// packedParityCase is one cell of the sweep grid.
type packedParityCase struct {
	n, m    int
	h       uint
	workers int
}

// packedParityGrid covers every kernel gate of the packed engine:
// unaligned rows with serial fills ({4,2}, {8,2}, {12,3}), register-mask
// kernels ({64,8}: k=8; {64,32}: k=2; {128,2}: k=64, where blockMask
// wraps to ^0), and aligned rows without word-nested blocks ({128,1}:
// k=128), the one shape where the generic fills run on pooled workers.
// The three large shapes run at h=16 only, which keeps the race-detector
// run of the grid short; the word width does not select a kernel.
func packedParityGrid() []packedParityCase {
	var grid []packedParityCase
	for _, c := range []struct {
		n, m int
		hs   []uint
	}{
		{4, 2, []uint{4, 8, 16}}, {8, 2, []uint{4, 8, 16}}, {12, 3, []uint{4, 8, 16}},
		{64, 8, []uint{4, 8, 16}}, {64, 32, []uint{16}}, {128, 2, []uint{16}}, {128, 1, []uint{16}},
	} {
		for _, h := range c.hs {
			for _, w := range []int{1, 2, 7} {
				grid = append(grid, packedParityCase{c.n, c.m, h, w})
			}
		}
	}
	return grid
}

func newParityMachine(t *testing.T, c packedParityCase) *Machine {
	t.Helper()
	var opts []ppa.Option
	if c.workers > 1 {
		// Force the pooled path so the per-ring kernels actually run on
		// the persistent workers regardless of transaction size or host.
		opts = append(opts, ppa.WithWorkers(c.workers), ppa.WithForceParallel())
	}
	vm, err := New(c.n, c.m, c.h, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestPackedLaneParity is the packed engine's central property: the
// packed engine (BroadcastBits/WiredOrBits/GlobalOrBits) and the
// lane-at-a-time reference path (laneBroadcast/laneWiredOr/laneGlobalOr)
// produce equal outputs, byte-identical ppa.Metrics AND identical
// physical observer event streams on two identically-driven machines —
// across block geometries (covering both the word-mask fast kernels and
// the generic ones), word widths, worker counts, all four directions,
// and injected physical switch faults.
func TestPackedLaneParity(t *testing.T) {
	for _, c := range packedParityGrid() {
		c := c
		t.Run(fmt.Sprintf("n=%d/m=%d/h=%d/w=%d", c.n, c.m, c.h, c.workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.n)*1000 + int64(c.h)*10 + int64(c.workers)))
			lane := newParityMachine(t, c)
			packed := newParityMachine(t, c)
			defer lane.Close()
			defer packed.Close()
			var laneEvs, packedEvs []ppa.Event
			lane.Physical().SetObserver(func(e ppa.Event) { laneEvs = append(laneEvs, e) })
			packed.Physical().SetObserver(func(e ppa.Event) { packedEvs = append(packedEvs, e) })
			size := c.n * c.n
			openBits := ppa.NewBitset(size)
			driveBits := ppa.NewBitset(size)
			predBits := ppa.NewBitset(size)
			dstBits := ppa.NewBitset(size)
			dstBools := make([]bool, size)
			for trial := 0; trial < 8; trial++ {
				// Half the trials run with random physical switch faults
				// injected identically on both machines: faults apply at
				// the physical transaction level, so packed-vs-lane
				// parity must survive them.
				if trial%2 == 1 {
					pe := rng.Intn(c.m * c.m)
					kind := ppa.FaultKind(rng.Intn(2))
					lane.Physical().InjectFault(pe, kind)
					packed.Physical().InjectFault(pe, kind)
				} else {
					lane.Physical().ClearFaults()
					packed.Physical().ClearFaults()
				}
				open, drive, src := randomConfig(rng, c.n, c.h)
				openBits.FromBools(open)
				driveBits.FromBools(drive)
				for _, d := range []ppa.Direction{ppa.East, ppa.West, ppa.South, ppa.North} {
					// Broadcast: prefill both destinations so floating
					// rings (left unwritten) are compared too.
					dstL := make([]ppa.Word, size)
					dstP := make([]ppa.Word, size)
					for i := range dstL {
						dstL[i] = ppa.Word(i % 5)
						dstP[i] = ppa.Word(i % 5)
					}
					lane.laneBroadcast(d, open, src, dstL)
					packed.BroadcastBits(d, openBits, src, dstP)
					if !reflect.DeepEqual(dstL, dstP) {
						t.Fatalf("trial %d d=%v: Broadcast outputs diverged", trial, d)
					}

					lane.laneWiredOr(d, open, drive, dstBools)
					packed.WiredOrBits(d, openBits, driveBits, dstBits)
					for i := 0; i < size; i++ {
						if dstBools[i] != dstBits.Get(i) {
							t.Fatalf("trial %d d=%v: WiredOr diverged at lane %d", trial, d, i)
						}
					}
				}
				pred := make([]bool, size)
				for i := range pred {
					pred[i] = rng.Intn(20) == 0
				}
				predBits.FromBools(pred)
				if lane.laneGlobalOr(pred) != packed.GlobalOrBits(predBits) {
					t.Fatalf("trial %d: GlobalOr diverged", trial)
				}
				if lm, pm := lane.Metrics(), packed.Metrics(); lm != pm {
					t.Fatalf("trial %d: metrics diverged\nlane:   %+v\npacked: %+v", trial, lm, pm)
				}
				if !reflect.DeepEqual(laneEvs, packedEvs) {
					t.Fatalf("trial %d: physical observer events diverged (%d lane, %d packed)",
						trial, len(laneEvs), len(packedEvs))
				}
				laneEvs, packedEvs = laneEvs[:0], packedEvs[:0]
			}
		})
	}
}

// TestPackedShiftMatchesDirect covers the packed Shift against a direct
// n x n machine over the sweep geometries (Shift has no lane-at-a-time
// twin; the direct machine is its oracle) and pins its cost law.
func TestPackedShiftMatchesDirect(t *testing.T) {
	for _, c := range packedParityGrid() {
		c := c
		t.Run(fmt.Sprintf("n=%d/m=%d/h=%d/w=%d", c.n, c.m, c.h, c.workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.n) + int64(c.workers)))
			vm := newParityMachine(t, c)
			defer vm.Close()
			direct := ppa.New(c.n, c.h)
			_, _, src := randomConfig(rng, c.n, c.h)
			for _, d := range []ppa.Direction{ppa.East, ppa.West, ppa.South, ppa.North} {
				got := make([]ppa.Word, len(src))
				want := make([]ppa.Word, len(src))
				vm.ResetMetrics()
				vm.Shift(d, src, got)
				direct.Shift(d, src, want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("d=%v: Shift diverged from direct machine", d)
				}
				if steps := vm.Metrics().ShiftSteps; steps != int64(c.n/c.m) {
					t.Fatalf("d=%v: shift cost %d steps, want k=%d", d, steps, c.n/c.m)
				}
			}
		})
	}
}

// TestPackedAliasing drives the packed entry points with aliased
// operands — the usage the programming layer relies on (reduce into the
// drive plane, broadcast in place) — against the lane path on separate
// buffers.
func TestPackedAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, nm := range []struct{ n, m int }{{8, 2}, {12, 3}, {64, 8}} {
		n, m := nm.n, nm.m
		const h = 9
		vm, err := New(n, m, h)
		if err != nil {
			t.Fatal(err)
		}
		lane, err := New(n, m, h)
		if err != nil {
			t.Fatal(err)
		}
		size := n * n
		openBits := ppa.NewBitset(size)
		driveBits := ppa.NewBitset(size)
		want := make([]bool, size)
		for trial := 0; trial < 10; trial++ {
			d := ppa.Direction(rng.Intn(4))
			open, drive, src := randomConfig(rng, n, h)
			openBits.FromBools(open)

			// dst aliases src.
			inPlace := append([]ppa.Word(nil), src...)
			vm.BroadcastBits(d, openBits, inPlace, inPlace)
			ref := append([]ppa.Word(nil), src...)
			lane.laneBroadcast(d, open, src, ref)
			if !reflect.DeepEqual(inPlace, ref) {
				t.Fatalf("trial %d d=%v: aliased BroadcastBits diverged", trial, d)
			}

			// dst aliases drive.
			driveBits.FromBools(drive)
			vm.WiredOrBits(d, openBits, driveBits, driveBits)
			lane.laneWiredOr(d, open, drive, want)
			for i := 0; i < size; i++ {
				if want[i] != driveBits.Get(i) {
					t.Fatalf("trial %d d=%v: drive-aliased WiredOrBits diverged at %d", trial, d, i)
				}
			}

			// dst aliases open. Run the lane oracle a second time too so
			// the cumulative metrics of both machines stay comparable.
			openBits.FromBools(open)
			driveBits.FromBools(drive)
			vm.WiredOrBits(d, openBits, driveBits, openBits)
			lane.laneWiredOr(d, open, drive, want)
			for i := 0; i < size; i++ {
				if want[i] != openBits.Get(i) {
					t.Fatalf("trial %d d=%v: open-aliased WiredOrBits diverged at %d", trial, d, i)
				}
			}

			if lm, pm := lane.Metrics(), vm.Metrics(); lm != pm {
				t.Fatalf("trial %d: metrics diverged under aliasing", trial)
			}
		}
	}
}
