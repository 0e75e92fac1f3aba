package virt

import "ppamcp/internal/ppa"

// The lane-at-a-time reference path of the logical fabric: laneBroadcast,
// laneWiredOr and laneGlobalOr walk every logical lane of a block in flow
// order and stitch the blocks through the physical machine's packed
// transactions, each staged from its own freshly packed per-PE planes. It
// is the executable specification the packed engine (packed.go,
// packed_fast.go) is property-tested against: every plane pass issues the
// same physical transactions and chargeLocal calls in the same order, so
// outputs, ppa.Metrics and physical observer events must match exactly.

// laneSeq returns physical PE P's k logical flat indices on within-block
// plane t of direction d, in flow order.
func (v *Machine) laneSeq(d ppa.Direction, t, P int) []int {
	n, m, k := v.n, v.m, v.k
	R, C := P/m, P%m
	seq := make([]int, k)
	for j := range seq {
		var r, c int
		if d.Horizontal() {
			// Plane t fixes the within-block row; flow traverses
			// within-block columns.
			b := j
			if d == ppa.West {
				b = k - 1 - j
			}
			r, c = R*k+t, C*k+b
		} else {
			a := j
			if d == ppa.North {
				a = k - 1 - j
			}
			r, c = R*k+a, C*k+t
		}
		seq[j] = r*n + c
	}
	return seq
}

// laneBroadcast implements the logical segmented-bus transaction
// lane-at-a-time. Per plane: one local scan finds each physical PE's last
// logical Open lane, one physical bus cycle moves those injections
// between blocks, and one local scan walks the carry through each block.
// Cost: k physical bus cycles.
func (v *Machine) laneBroadcast(d ppa.Direction, open []bool, src, dst []ppa.Word) {
	v.checkLen("open", len(open))
	v.checkLen("src", len(src))
	v.checkLen("dst", len(dst))
	mm := v.m * v.m
	pOpen := make([]bool, mm)
	pInject := make([]ppa.Word, mm)
	pRecv := make([]ppa.Word, mm)
	for t := 0; t < v.k; t++ {
		for P := 0; P < mm; P++ {
			// pInject stays defined (zero) when the block has no Open
			// lane: a stuck-open fault makes the physical PE inject it
			// regardless of the requested configuration.
			pOpen[P] = false
			pInject[P] = 0
			for _, L := range v.laneSeq(d, t, P) {
				if open[L] {
					pOpen[P] = true
					pInject[P] = src[L]
				}
			}
			pRecv[P] = floating
		}
		v.chargeLocal(v.k)
		v.phys.BroadcastBits(d, ppa.NewBitsetFromBools(pOpen), pInject, pRecv)
		for P := 0; P < mm; P++ {
			carry := pRecv[P]
			for _, L := range v.laneSeq(d, t, P) {
				val := src[L] // read before the (possibly aliased) write
				if carry != floating {
					dst[L] = carry
				}
				if open[L] {
					carry = val
				}
			}
		}
		v.chargeLocal(v.k)
	}
}

// laneWiredOr implements the logical wired-OR lane-at-a-time. Per plane:
// a local scan splits each block's drives into head/tail/internal cluster
// contributions, a one-bit physical shift hands each block's head
// contribution to its upstream neighbour, one physical wired-OR resolves
// the clusters that span block boundaries, a second shift hands the
// result downstream for the blocks' head lanes, and a local scan
// distributes. Cost: k physical wired-OR cycles + 2k one-bit physical
// shifts.
func (v *Machine) laneWiredOr(d ppa.Direction, open, drive, dst []bool) {
	v.checkLen("open", len(open))
	v.checkLen("drive", len(drive))
	v.checkLen("dst", len(dst))
	mm := v.m * v.m
	hasOpen := make([]bool, mm)
	headDrive := make([]ppa.Word, mm) // OR of drives before the first open (as 0/1 words)
	tailDrive := make([]bool, mm)     // OR of drives from the last open onward
	fullDrive := make([]bool, mm)
	shiftedHead := make([]ppa.Word, mm)
	pDrive := make([]bool, mm)
	pOr := make([]bool, mm)
	pOrW := make([]ppa.Word, mm)
	shiftedOr := make([]ppa.Word, mm)
	for t := 0; t < v.k; t++ {
		for P := 0; P < mm; P++ {
			hasOpen[P], tailDrive[P], fullDrive[P] = false, false, false
			headDrive[P] = 0
			seenOpen := false
			for _, L := range v.laneSeq(d, t, P) {
				if open[L] {
					seenOpen = true
					tailDrive[P] = false
				}
				if drive[L] {
					fullDrive[P] = true
					if !seenOpen {
						headDrive[P] = 1
					}
					if seenOpen {
						tailDrive[P] = true
					}
				}
			}
			hasOpen[P] = seenOpen
		}
		v.chargeLocal(v.k)
		// Hand each block's head contribution to its upstream neighbour
		// (the spanning cluster it belongs to ends there).
		v.phys.Shift(d.Opposite(), headDrive, shiftedHead)
		for P := 0; P < mm; P++ {
			own := fullDrive[P]
			if hasOpen[P] {
				own = tailDrive[P]
			}
			pDrive[P] = own || shiftedHead[P] != 0
		}
		v.chargeLocal(1)
		orBits := ppa.NewBitset(mm)
		v.phys.WiredOrBits(d, ppa.NewBitsetFromBools(hasOpen), ppa.NewBitsetFromBools(pDrive), orBits)
		orBits.ToBools(pOr)
		for P := 0; P < mm; P++ {
			if pOr[P] {
				pOrW[P] = 1
			} else {
				pOrW[P] = 0
			}
		}
		v.chargeLocal(1)
		// Hand each physical cluster's OR downstream by one block, so a
		// block's pre-first-open lanes can read their (upstream) cluster.
		v.phys.Shift(d, pOrW, shiftedOr)
		for P := 0; P < mm; P++ {
			seq := v.laneSeq(d, t, P)
			if !hasOpen[P] {
				for _, L := range seq {
					dst[L] = pOr[P]
				}
				continue
			}
			// Prefix lanes belong to the upstream spanning cluster.
			j := 0
			for ; j < len(seq) && !open[seq[j]]; j++ {
				dst[seq[j]] = shiftedOr[P] != 0
			}
			// Internal clusters are fully local; the final cluster spans
			// into downstream blocks and reads the physical wired-OR.
			for j < len(seq) {
				start := j
				j++
				for j < len(seq) && !open[seq[j]] {
					j++
				}
				if j < len(seq) {
					or := false
					for q := start; q < j; q++ {
						or = or || drive[seq[q]]
					}
					for q := start; q < j; q++ {
						dst[seq[q]] = or
					}
				} else {
					for q := start; q < len(seq); q++ {
						dst[seq[q]] = pOr[P]
					}
				}
			}
		}
		v.chargeLocal(2 * v.k)
	}
}

// laneGlobalOr reduces each block locally, then uses the physical
// global-OR line once.
func (v *Machine) laneGlobalOr(pred []bool) bool {
	v.checkLen("pred", len(pred))
	mm := v.m * v.m
	k2 := v.k * v.k
	pPred := make([]bool, mm)
	n := v.n
	for P := 0; P < mm; P++ {
		R, C := P/v.m, P%v.m
		for a := 0; a < v.k; a++ {
			for b := 0; b < v.k; b++ {
				if pred[(R*v.k+a)*n+C*v.k+b] {
					pPred[P] = true
				}
			}
		}
	}
	v.chargeLocal(k2)
	return v.phys.GlobalOrBits(ppa.NewBitsetFromBools(pPred))
}
