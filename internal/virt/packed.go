package virt

// The packed virtualization engine: the Fabric's Bitset/Word entry points
// (BroadcastBits, WiredOrBits, GlobalOrBits, Shift) executed as word-level
// bit-matrix work on the packed planes directly, with no per-transaction
// unpacking and no allocation.
//
// Geometry. A logical plane is an n*n-bit row-major Bitset (or []Word).
// For a horizontal pass on within-block plane t, physical ring i (row i of
// the m x m machine) owns logical row r = i*k + t: a contiguous n-bit row
// of the plane, within which physical PE q of the ring owns the k-bit
// block [r*n + q*k, r*n + (q+1)*k). Vertical passes run through a
// once-per-transaction 64x64-tile transpose of the switch planes
// (ppa.TransposeBits), which turns logical column c = i*k + t into the
// same contiguous row shape; Word-array operands are accessed with stride
// n instead of being transposed.
//
// Cost shadowing. Each plane pass issues exactly the physical
// transactions and chargeLocal calls of the lane-at-a-time reference path
// (lanes_test.go), in the same order, so ppa.Metrics and physical
// observer event streams are byte-identical between the two
// (property-tested in packedparity_test.go) and the EXPERIMENTS.md
// virtualization ablation is unchanged by this engine.
//
// Stitching. The physical machine is driven only through its packed
// transactions. The serial stitch phase between the ring kernels packs
// the per-PE Open flags into an m*m-bit switch plane once per plane pass,
// builds the physical wired-OR drive straight into a Bitset, and the fill
// kernels read the physical wired-OR result's bits in place.
//
// Parallelism. The per-ring scan/fill kernels are fanned over the
// physical machine's persistent ring worker pool (ppa.Machine.RunRings)
// under the pool's usual grain policy. Scan kernels write only []bool and
// []Word cells indexed by physical PE, so they are always race-free;
// wired-OR fill kernels write the packed destination plane and are pooled
// only when n is a multiple of 64 (every logical row then owns whole
// words), falling back to serial execution otherwise.

import "ppamcp/internal/ppa"

// floating is the physical broadcast carry-in sentinel: a bus that no
// Open PE drives leaves pRecv unchanged. Machine words are at most
// MaxBits wide, so real operands never collide with it.
const floating = ppa.Word(-1)

func b2w(b bool) ppa.Word {
	if b {
		return 1
	}
	return 0
}

// rev reports decreasing-bit flow order (West, and North through the
// transposed planes).
func rev(d ppa.Direction) bool { return d == ppa.West || d == ppa.North }

// stageClear drops the staged operand references so an idle machine pins
// no caller storage.
func (v *Machine) stageClear() {
	v.jSrc, v.jDst = nil, nil
	v.jScan, v.jDrive, v.jWDst = nil, nil, nil
}

// transposedOpen returns the transpose of the open plane, recomputing it
// only when the plane's content differs from the last vertical pass
// (equal words transpose equally, so the content compare is always
// safe — even when the caller mutated or recycled the Bitset).
func (v *Machine) transposedOpen(open *ppa.Bitset) *ppa.Bitset {
	ow, sw := open.Words(), v.openSnap.Words()
	for i := range ow {
		if ow[i] != sw[i] {
			copy(sw, ow)
			ppa.TransposeBits(v.tOpen, open, v.n)
			break
		}
	}
	return v.tOpen
}

// blockP returns the physical flat index of block q on ring i for the
// current pass orientation: ring i is physical row i for horizontal
// passes and physical column i for vertical ones.
func (v *Machine) blockP(i, q int) int {
	if v.jVert {
		return q*v.m + i
	}
	return i*v.m + q
}

// dataIdx returns the []Word flat index of ring position p on the current
// pass's ring i: horizontal rings are contiguous rows, vertical rings
// walk a column with stride n. p is the bit position relative to the scan
// row's base.
func (v *Machine) dataIdx(i, p int) int {
	row := i*v.k + v.jt
	if v.jVert {
		return p*v.n + row
	}
	return row*v.n + p
}

// BroadcastBits is the packed logical segmented-bus transaction. Per
// within-block plane: a head scan per block finds the flow-last Open lane
// and its operand, one physical bus cycle moves those injections between
// blocks, and segment fills distribute each head's operand downstream.
// Results are those of a direct n x n machine's BroadcastBits; each
// logical bus cycle costs k physical ones. dst may alias src; it must not
// alias the packed configuration's storage.
func (v *Machine) BroadcastBits(d ppa.Direction, open *ppa.Bitset, src, dst []ppa.Word) {
	v.checkBits("open", open)
	v.checkLen("src", len(src))
	v.checkLen("dst", len(dst))
	scan := open
	vert := !d.Horizontal()
	if vert {
		scan = v.transposedOpen(open)
	}
	v.jRev, v.jVert, v.jScan, v.jSrc, v.jDst = rev(d), vert, scan, src, dst
	ww := 2 * v.m * v.n // src+dst words touched per plane pass
	for t := 0; t < v.k; t++ {
		v.jt = t
		v.phys.RunRings(ww, v.fnBcastScan)
		v.chargeLocal(v.k)
		v.pOpen.FromBools(v.pOpenB)
		v.phys.BroadcastBits(d, v.pOpen, v.pInject, v.pRecv)
		v.phys.RunRings(ww, v.fnBcastFill)
		v.chargeLocal(v.k)
	}
	v.stageClear()
}

// bcastScanRing stages ring i's per-block broadcast inputs: whether the
// block has an Open lane on the current plane, the operand of its
// flow-last Open lane, and a floating carry-in.
func (v *Machine) bcastScanRing(i int) {
	if v.wordBlocks {
		v.bcastScanRingFast(i)
		return
	}
	k, sb := v.k, (i*v.k+v.jt)*v.n
	for q := 0; q < v.m; q++ {
		P := v.blockP(i, q)
		lo, hi := sb+q*k, sb+(q+1)*k
		var h int
		if v.jRev {
			h = v.jScan.NextSet(lo, hi)
		} else {
			h = v.jScan.PrevSet(lo, hi)
		}
		if h >= 0 {
			v.pOpenB[P] = true
			v.pInject[P] = v.jSrc[v.dataIdx(i, h-sb)]
		} else {
			// Defined even with no Open lane: a stuck-open fault makes
			// the physical PE inject this operand regardless.
			v.pOpenB[P] = false
			v.pInject[P] = 0
		}
		v.pRecv[P] = floating
	}
}

// bcastFillRing distributes ring i's broadcast results: within each
// block, the segment downstream of each Open head receives that head's
// operand, and the lanes upstream of the first head receive the physical
// carry (unless the whole logical ring floats). Segments are filled in an
// order that reads every head's src operand before an aliased dst write
// can clobber it (see ppa.ringKernels.broadcastRing).
func (v *Machine) bcastFillRing(i int) {
	if v.wordBlocks {
		v.bcastFillRingFast(i)
		return
	}
	k, sb := v.k, (i*v.k+v.jt)*v.n
	src, dst := v.jSrc, v.jDst
	for q := 0; q < v.m; q++ {
		carry := v.pRecv[v.blockP(i, q)]
		lo, hi := q*k, (q+1)*k // ring positions
		if !v.jRev {
			hc := v.jScan.PrevSet(sb+lo, sb+hi)
			if hc < 0 {
				if carry != floating {
					for p := lo; p < hi; p++ {
						dst[v.dataIdx(i, p)] = carry
					}
				}
				continue
			}
			hc -= sb
			val := src[v.dataIdx(i, hc)]
			for p := hc + 1; p < hi; p++ {
				dst[v.dataIdx(i, p)] = val
			}
			cur := hc
			for {
				prev := v.jScan.PrevSet(sb+lo, sb+cur)
				if prev < 0 {
					break
				}
				prev -= sb
				val = src[v.dataIdx(i, prev)]
				for p := prev + 1; p <= cur; p++ {
					dst[v.dataIdx(i, p)] = val
				}
				cur = prev
			}
			if carry != floating {
				for p := lo; p <= cur; p++ {
					dst[v.dataIdx(i, p)] = carry
				}
			}
			continue
		}
		// Reverse flow: upstream is the higher bit position.
		hc := v.jScan.NextSet(sb+lo, sb+hi)
		if hc < 0 {
			if carry != floating {
				for p := lo; p < hi; p++ {
					dst[v.dataIdx(i, p)] = carry
				}
			}
			continue
		}
		hc -= sb
		val := src[v.dataIdx(i, hc)]
		for p := lo; p < hc; p++ {
			dst[v.dataIdx(i, p)] = val
		}
		cur := hc
		for {
			next := v.jScan.NextSet(sb+cur+1, sb+hi)
			if next < 0 {
				break
			}
			next -= sb
			val = src[v.dataIdx(i, next)]
			for p := cur; p < next; p++ {
				dst[v.dataIdx(i, p)] = val
			}
			cur = next
		}
		if carry != floating {
			for p := cur; p < hi; p++ {
				dst[v.dataIdx(i, p)] = carry
			}
		}
	}
}

// WiredOrBits is the packed logical wired-OR. Per within-block plane: a
// head scan per block splits its drives into head/tail/full
// contributions, a one-bit physical shift hands head contributions
// upstream, one physical wired-OR resolves the block-spanning clusters, a
// second shift hands results downstream, and masked range fills
// distribute — word-parallel throughout. Results are those of a direct
// n x n machine's WiredOrBits; each logical wired-OR cycle costs k
// physical wired-OR cycles and 2k one-bit physical shifts. dst may alias
// drive or open.
func (v *Machine) WiredOrBits(d ppa.Direction, open, drive, dst *ppa.Bitset) {
	v.checkBits("open", open)
	v.checkBits("drive", drive)
	v.checkBits("dst", dst)
	sOpen, sDrive, wDst := open, drive, dst
	vert := !d.Horizontal()
	if vert {
		// South rings read top-to-bottom: through the transpose that is
		// forward flow; North maps to reverse. The destination is staged
		// transposed too (every bit is written) and flipped back once.
		sOpen = v.transposedOpen(open)
		ppa.TransposeBits(v.tDrive, drive, v.n)
		sDrive, wDst = v.tDrive, v.tDst
	}
	v.jRev, v.jVert = rev(d), vert
	v.jScan, v.jDrive, v.jWDst = sOpen, sDrive, wDst
	ww := 3 * (v.m * v.n / 64) // three packed rows per ring per plane
	for t := 0; t < v.k; t++ {
		v.jt = t
		v.phys.RunRings(ww, v.fnWorScan)
		v.chargeLocal(v.k)
		// Hand each block's head contribution to its upstream neighbour
		// (the spanning cluster it belongs to ends there).
		v.phys.Shift(d.Opposite(), v.headW, v.shiftHead)
		for P, headed := range v.pOpenB {
			own := v.fullB[P]
			if headed {
				own = v.tailB[P]
			}
			v.pDrive.SetTo(P, own || v.shiftHead[P] != 0)
		}
		v.pOpen.FromBools(v.pOpenB)
		v.chargeLocal(1)
		v.phys.WiredOrBits(d, v.pOpen, v.pDrive, v.pOr)
		for P := range v.orW {
			v.orW[P] = b2w(v.pOr.Get(P))
		}
		v.chargeLocal(1)
		// Hand each physical cluster's OR downstream by one block, so a
		// block's pre-first-open lanes can read their (upstream) cluster.
		v.phys.Shift(d, v.orW, v.shiftOr)
		if v.rowsAligned {
			v.phys.RunRings(ww, v.fnWorFill)
		} else {
			// Unaligned rows can share destination words across rings;
			// run the fills serially (bypassing the pool entirely).
			for i := 0; i < v.m; i++ {
				v.worFillRing(i)
			}
		}
		v.chargeLocal(2 * v.k)
	}
	if vert {
		ppa.TransposeBits(dst, v.tDst, v.n)
	}
	v.stageClear()
}

// worScanRing stages ring i's per-block wired-OR inputs: whether the
// block has an Open lane on the current plane, and the OR of its drives
// before the first head (head), from the last head onward (tail), and
// overall (full, used only by head-less blocks).
func (v *Machine) worScanRing(i int) {
	if v.wordBlocks {
		v.worScanRingFast(i)
		return
	}
	k, sb := v.k, (i*v.k+v.jt)*v.n
	for q := 0; q < v.m; q++ {
		P := v.blockP(i, q)
		lo, hi := sb+q*k, sb+(q+1)*k
		if !v.jRev {
			first := v.jScan.NextSet(lo, hi)
			if first < 0 {
				f := v.jDrive.AnyRange(lo, hi)
				v.pOpenB[P], v.fullB[P], v.tailB[P] = false, f, false
				v.headW[P] = b2w(f)
				continue
			}
			last := v.jScan.PrevSet(lo, hi)
			v.pOpenB[P], v.fullB[P] = true, false
			v.headW[P] = b2w(v.jDrive.AnyRange(lo, first))
			v.tailB[P] = v.jDrive.AnyRange(last, hi)
			continue
		}
		// Reverse flow: the flow-first head is the highest bit.
		first := v.jScan.PrevSet(lo, hi)
		if first < 0 {
			f := v.jDrive.AnyRange(lo, hi)
			v.pOpenB[P], v.fullB[P], v.tailB[P] = false, f, false
			v.headW[P] = b2w(f)
			continue
		}
		last := v.jScan.NextSet(lo, hi)
		v.pOpenB[P], v.fullB[P] = true, false
		v.headW[P] = b2w(v.jDrive.AnyRange(first+1, hi))
		v.tailB[P] = v.jDrive.AnyRange(lo, last+1)
	}
}

// worFillRing distributes ring i's wired-OR results with masked range
// fills: head-less blocks take the physical cluster OR wholesale, lanes
// before the first head read the downstream-shifted OR of their upstream
// cluster, internal clusters reduce locally, and the final cluster (which
// spans into downstream blocks) reads the physical OR.
func (v *Machine) worFillRing(i int) {
	if v.wordBlocks {
		v.worFillRingFast(i)
		return
	}
	k, sb := v.k, (i*v.k+v.jt)*v.n
	for q := 0; q < v.m; q++ {
		P := v.blockP(i, q)
		lo, hi := sb+q*k, sb+(q+1)*k
		if !v.pOpenB[P] {
			v.jWDst.FillRange(lo, hi, v.pOr.Get(P))
			continue
		}
		if !v.jRev {
			first := v.jScan.NextSet(lo, hi)
			v.jWDst.FillRange(lo, first, v.shiftOr[P] != 0)
			start := first
			for {
				next := v.jScan.NextSet(start+1, hi)
				if next < 0 {
					v.jWDst.FillRange(start, hi, v.pOr.Get(P))
					break
				}
				v.jWDst.FillRange(start, next, v.jDrive.AnyRange(start, next))
				start = next
			}
			continue
		}
		first := v.jScan.PrevSet(lo, hi)
		v.jWDst.FillRange(first+1, hi, v.shiftOr[P] != 0)
		start := first
		for {
			next := v.jScan.PrevSet(lo, start)
			if next < 0 {
				v.jWDst.FillRange(lo, start+1, v.pOr.Get(P))
				break
			}
			v.jWDst.FillRange(next+1, start+1, v.jDrive.AnyRange(next+1, start+1))
			start = next
		}
	}
}

// Shift implements the logical one-step shift: per within-block plane,
// the lane leaving each block crosses on one physical shift and the rest
// move locally (block-contiguous copies on horizontal passes, stride-n
// walks on vertical ones). dst may alias src. Cost: k physical shift
// steps.
func (v *Machine) Shift(d ppa.Direction, src, dst []ppa.Word) {
	v.checkLen("src", len(src))
	v.checkLen("dst", len(dst))
	v.jRev, v.jVert, v.jSrc, v.jDst = rev(d), !d.Horizontal(), src, dst
	ww := 2 * v.m * v.n
	for t := 0; t < v.k; t++ {
		v.jt = t
		v.phys.RunRings(ww, v.fnShiftCollect)
		v.chargeLocal(1)
		v.phys.Shift(d, v.boundary, v.incoming)
		v.phys.RunRings(ww, v.fnShiftMove)
		v.chargeLocal(v.k)
	}
	v.stageClear()
}

// shiftCollectRing stages each block's flow-last lane for the physical
// boundary crossing.
func (v *Machine) shiftCollectRing(i int) {
	k := v.k
	for q := 0; q < v.m; q++ {
		p := q*k + k - 1
		if v.jRev {
			p = q * k
		}
		v.boundary[v.blockP(i, q)] = v.jSrc[v.dataIdx(i, p)]
	}
}

// shiftMoveRing moves each block's remaining lanes one step in flow
// order and writes the incoming boundary word at the block's flow-first
// lane. Move order reads every source lane before an aliased dst write.
func (v *Machine) shiftMoveRing(i int) {
	k := v.k
	src, dst := v.jSrc, v.jDst
	for q := 0; q < v.m; q++ {
		in := v.incoming[v.blockP(i, q)]
		base := q * k
		if !v.jRev {
			for j := k - 1; j >= 1; j-- {
				dst[v.dataIdx(i, base+j)] = src[v.dataIdx(i, base+j-1)]
			}
			dst[v.dataIdx(i, base)] = in
			continue
		}
		for j := 0; j < k-1; j++ {
			dst[v.dataIdx(i, base+j)] = src[v.dataIdx(i, base+j+1)]
		}
		dst[v.dataIdx(i, base+k-1)] = in
	}
}

// GlobalOrBits reduces each block with word-range scans into the packed
// physical predicate, then uses the physical global-OR line once.
func (v *Machine) GlobalOrBits(pred *ppa.Bitset) bool {
	v.checkBits("pred", pred)
	if v.wordBlocks {
		v.globalOrFast(pred.Words())
	} else {
		m, k, n := v.m, v.k, v.n
		for P := 0; P < m*m; P++ {
			R, C := P/m, P%m
			or := false
			for a := 0; a < k && !or; a++ {
				lo := (R*k+a)*n + C*k
				or = pred.AnyRange(lo, lo+k)
			}
			v.pOpen.SetTo(P, or)
		}
	}
	v.chargeLocal(v.k * v.k)
	return v.phys.GlobalOrBits(v.pOpen)
}
