package virt

import (
	"math/rand"
	"reflect"
	"testing"

	"ppamcp/internal/ppa"
)

func TestNewValidation(t *testing.T) {
	for _, c := range []struct{ n, m int }{{0, 1}, {4, 0}, {4, 3}, {2, 4}, {6, 4}} {
		if _, err := New(c.n, c.m, 8); err == nil {
			t.Errorf("New(%d, %d) accepted", c.n, c.m)
		}
	}
	v, err := New(12, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 12 || v.PhysicalSide() != 3 || v.BlockSide() != 4 ||
		v.Bits() != 9 || v.Inf() != 511 {
		t.Errorf("accessors: n=%d m=%d k=%d h=%d", v.N(), v.PhysicalSide(), v.BlockSide(), v.Bits())
	}
}

// broadcastBools, wiredOrBools and globalOrBools run one transaction of
// any fabric on lane sets written as []bool, packing them for the Bitset
// entry points.
func broadcastBools[F ppa.Fabric](f F, d ppa.Direction, open []bool, src, dst []ppa.Word) {
	f.BroadcastBits(d, ppa.NewBitsetFromBools(open), src, dst)
}

func wiredOrBools[F ppa.Fabric](f F, d ppa.Direction, open, drive, dst []bool) {
	out := ppa.NewBitset(len(dst))
	f.WiredOrBits(d, ppa.NewBitsetFromBools(open), ppa.NewBitsetFromBools(drive), out)
	out.ToBools(dst)
}

func globalOrBools[F ppa.Fabric](f F, pred []bool) bool {
	return f.GlobalOrBits(ppa.NewBitsetFromBools(pred))
}

// engine is one implementation of the logical transactions on a
// virt.Machine: the lane-at-a-time reference path or the packed engine
// behind the Fabric contract.
type engine struct {
	name      string
	broadcast func(v *Machine, d ppa.Direction, open []bool, src, dst []ppa.Word)
	wiredOr   func(v *Machine, d ppa.Direction, open, drive, dst []bool)
	globalOr  func(v *Machine, pred []bool) bool
}

var engines = []engine{
	{"lane", (*Machine).laneBroadcast, (*Machine).laneWiredOr, (*Machine).laneGlobalOr},
	{"packed", broadcastBools[*Machine], wiredOrBools[*Machine], globalOrBools[*Machine]},
}

// randomConfig builds matched random inputs for an n x n array.
func randomConfig(rng *rand.Rand, n int, h uint) (open, drive []bool, src []ppa.Word) {
	open = make([]bool, n*n)
	drive = make([]bool, n*n)
	src = make([]ppa.Word, n*n)
	for i := range open {
		open[i] = rng.Intn(4) == 0
		drive[i] = rng.Intn(3) == 0
		src[i] = ppa.Word(rng.Int63n(int64(ppa.Infinity(h)) + 1))
	}
	return
}

// TestOpsMatchDirectMachine is the package's central property: every
// logical operation on the virtualized machine — through the lane
// reference path and through the packed engine — produces bit-identical
// results to a direct n x n ppa.Machine, for every direction, block
// factor and random configuration.
func TestOpsMatchDirectMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const h = 10
	for trial := 0; trial < 120; trial++ {
		m := 1 + rng.Intn(4)
		k := 1 + rng.Intn(4)
		n := m * k
		d := ppa.Direction(rng.Intn(4))
		open, drive, src := randomConfig(rng, n, h)

		direct := ppa.New(n, h)
		// Broadcast (dst prefilled to catch floating-lane handling).
		dstD := make([]ppa.Word, n*n)
		for i := range dstD {
			dstD[i] = ppa.Word(i % 7)
		}
		broadcastBools(direct, d, open, src, dstD)
		orD := make([]bool, n*n)
		wiredOrBools(direct, d, open, drive, orD)
		shD := make([]ppa.Word, n*n)
		direct.Shift(d, src, shD)
		anyD := globalOrBools(direct, drive)

		for _, e := range engines {
			vm, err := New(n, m, h)
			if err != nil {
				t.Fatal(err)
			}
			dstV := make([]ppa.Word, n*n)
			for i := range dstV {
				dstV[i] = ppa.Word(i % 7)
			}
			e.broadcast(vm, d, open, src, dstV)
			if !reflect.DeepEqual(dstD, dstV) {
				t.Fatalf("trial %d (%s n=%d m=%d d=%v): Broadcast diverged\nopen=%v\nsrc=%v\ndirect=%v\nvirt=%v",
					trial, e.name, n, m, d, open, src, dstD, dstV)
			}

			orV := make([]bool, n*n)
			e.wiredOr(vm, d, open, drive, orV)
			if !reflect.DeepEqual(orD, orV) {
				t.Fatalf("trial %d (%s n=%d m=%d d=%v): WiredOr diverged\nopen=%v\ndrive=%v\ndirect=%v\nvirt=%v",
					trial, e.name, n, m, d, open, drive, orD, orV)
			}

			shV := make([]ppa.Word, n*n)
			vm.Shift(d, src, shV)
			if !reflect.DeepEqual(shD, shV) {
				t.Fatalf("trial %d (%s n=%d m=%d d=%v): Shift diverged", trial, e.name, n, m, d)
			}

			if anyD != e.globalOr(vm, drive) {
				t.Fatalf("trial %d (%s): GlobalOr diverged", trial, e.name)
			}
		}
	}
}

func TestOpsInPlaceAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, m, h = 6, 2, 8
	for trial := 0; trial < 40; trial++ {
		d := ppa.Direction(rng.Intn(4))
		open, _, src := randomConfig(rng, n, h)

		want := make([]ppa.Word, n*n)
		copy(want, src)
		broadcastBools(ppa.New(n, h), d, open, want, want)
		wantS := append([]ppa.Word(nil), src...)
		ppa.New(n, h).Shift(d, wantS, wantS)

		for _, e := range engines {
			vm, _ := New(n, m, h)
			got := append([]ppa.Word(nil), src...)
			e.broadcast(vm, d, open, got, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d d=%v: aliased %s Broadcast diverged", trial, d, e.name)
			}
		}

		vm, _ := New(n, m, h)
		gotS := append([]ppa.Word(nil), src...)
		vm.Shift(d, gotS, gotS)
		if !reflect.DeepEqual(gotS, wantS) {
			t.Fatalf("trial %d d=%v: aliased Shift diverged", trial, d)
		}
	}
}

// TestVirtualizationCostLaw pins the ablation's cost model on both
// engines: one logical broadcast costs exactly k physical bus cycles, one
// logical wired-OR k physical wired-OR cycles plus 2k shift steps, one
// logical shift k physical steps.
func TestVirtualizationCostLaw(t *testing.T) {
	for _, e := range engines {
		for _, c := range []struct{ n, m int }{{8, 8}, {8, 4}, {8, 2}, {8, 1}, {12, 3}} {
			k := c.n / c.m
			vm, err := New(c.n, c.m, 8)
			if err != nil {
				t.Fatal(err)
			}
			size := c.n * c.n
			open := make([]bool, size)
			open[0] = true
			src := make([]ppa.Word, size)
			drive := make([]bool, size)

			e.broadcast(vm, ppa.East, open, src, src)
			got := vm.Metrics()
			if got.BusCycles != int64(k) {
				t.Errorf("%s n=%d m=%d: Broadcast cost %d bus cycles, want k=%d", e.name, c.n, c.m, got.BusCycles, k)
			}
			vm.ResetMetrics()
			e.wiredOr(vm, ppa.South, open, drive, drive)
			got = vm.Metrics()
			if got.WiredOrCycles != int64(k) || got.ShiftSteps != int64(2*k) {
				t.Errorf("%s n=%d m=%d: WiredOr cost %d/%d, want %d wired-OR + %d shifts",
					e.name, c.n, c.m, got.WiredOrCycles, got.ShiftSteps, k, 2*k)
			}
			vm.ResetMetrics()
			vm.Shift(ppa.West, src, src)
			if got = vm.Metrics(); got.ShiftSteps != int64(k) {
				t.Errorf("n=%d m=%d: Shift cost %d steps, want k=%d", c.n, c.m, got.ShiftSteps, k)
			}
			vm.ResetMetrics()
			e.globalOr(vm, drive)
			if got = vm.Metrics(); got.GlobalOrOps != 1 {
				t.Errorf("%s: GlobalOr ops = %d", e.name, got.GlobalOrOps)
			}
		}
	}
}

func TestTrivialVirtualizationMatchesDirectCosts(t *testing.T) {
	// k = 1 must behave exactly like the direct machine, cycle for cycle.
	for _, e := range engines {
		vm, _ := New(5, 5, 8)
		direct := ppa.New(5, 8)
		open := make([]bool, 25)
		open[3] = true
		src := make([]ppa.Word, 25)
		e.broadcast(vm, ppa.North, open, src, src)
		broadcastBools(direct, ppa.North, open, src, src)
		if vm.Metrics().BusCycles != direct.Metrics().BusCycles {
			t.Errorf("%s k=1 bus cycles: virt %d, direct %d",
				e.name, vm.Metrics().BusCycles, direct.Metrics().BusCycles)
		}
	}
}

func TestLengthValidationPanics(t *testing.T) {
	vm, _ := New(4, 2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("short lane set did not panic")
		}
	}()
	vm.BroadcastBits(ppa.East, ppa.NewBitset(4), make([]ppa.Word, 16), make([]ppa.Word, 16))
}
