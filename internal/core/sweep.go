package core

import (
	"context"
	"fmt"

	"ppamcp/internal/ppa"
)

// This file is the batched multi-destination sweep driver and the fused
// DP lane every sweep row runs on.
//
// SolveSweep streams the single-destination DP for a whole list of
// destinations off one warm session, paying the weight DMA and the
// session setup once. Each row runs the seeded DP (solveSeeded,
// resolve.go) from its cold seed: column d of W moved onto row d, with
// SOW[d][d] = 0.
//
// The fused lane (fusedDP) is a host execution of the paper's RMCP loop
// (statements 8-20) from any row-d seed — cold, or a retained warm row.
// What makes it cheap is liveness: between iterations the DP's only live
// machine state is row d of SOW. Every broadcast the loop issues reads
// either row d (open = ROW==d) or the diagonal (which reflects row d's
// update one statement later), and every store to rows != d is
// overwritten before it is next read. So each round is one host word
// scan: the statement-10 candidate cand(i, j) = sat(SOW[d][j] + w_ij),
// each row's minimum (statement 11) and first arg-min (statement 12),
// then the fold back into row d (statements 14-19).
//
// The lane carries PTN as the machine program does: seeded with d, and
// set to the row's first arg-min in the fold wherever SOW strictly
// improves (statements 14-19). On a cold seed that is exactly the
// oracle's PTN row, so cold rows need no host rebuild; a warm row's PTN
// follows a different trajectory and is replaced by canonicalNext
// (resolve.go).
//
// Every fabric transaction of the machine program is shadow-charged in
// the same order, with the same switch planes: ChargeBroadcast and
// ChargeWiredOr for bus transactions whose outcome the scan already
// knows, a real GlobalOrBits for the statement-20 loop test, and every
// SIMD instruction counted. The attaining-lane sets the two walks would
// leave in enable matter only to an observer's Opens counts, so they are
// rebuilt only while an observer is attached; without one a charge reads
// the plane's length alone. Metrics, observer event streams and
// iteration counts are therefore identical to the machine-program oracle
// (programDP, mcp.go). Parity with the oracle is pinned by the sweep,
// resolve and seeded-lane parity tests.
//
// The per-destination re-initialization is an incremental plane edit:
// the ROW==d / COL==d selector planes are retargeted with two stripe
// edits (FillRange / FillStride) instead of full EqConst rebuilds,
// charged as the EqConst instructions they shadow.

// sweepState is the per-session scratch of the fused lane, allocated on
// first use and reused across every destination of every sweep — the
// steady-state sweep performs O(1) allocations per destination (the
// Result it yields).
type sweepState struct {
	dest             int // current selector-plane target (-1 = none yet)
	rowBits, colBits *ppa.Bitset
	enable, pred     *ppa.Bitset
	rmin             []ppa.Word // per-row candidate minima
	rarg             []int32    // per-row first arg-min
	zero             []ppa.Word // row d's weights: its candidate is SOW[d] itself
}

// retarget repoints the cached ROW==d / COL==d selector planes at a new
// destination with two stripe edits each — the host-side move the fused
// lane charges as the EqConst rebuilds it replaces.
func (w *sweepState) retarget(dest, n int) {
	if w.dest == dest {
		return
	}
	if w.dest >= 0 {
		w.rowBits.FillRange(w.dest*n, w.dest*n+n, false)
		w.colBits.FillStride(w.dest, n, n, false)
	}
	w.rowBits.FillRange(dest*n, dest*n+n, true)
	w.colBits.FillStride(dest, n, n, true)
	w.dest = dest
}

func (s *Session) sweep() *sweepState {
	if s.sw != nil {
		return s.sw
	}
	n := s.m.N()
	size := n * n
	s.sw = &sweepState{
		dest:    -1,
		rowBits: ppa.NewBitset(size),
		colBits: ppa.NewBitset(size),
		enable:  ppa.NewBitset(size),
		pred:    ppa.NewBitset(size),
		rmin:    make([]ppa.Word, n),
		rarg:    make([]int32, n),
		zero:    make([]ppa.Word, n),
	}
	return s.sw
}

// DestError is the typed validation error SolveSweep and ResolveSweep
// report for a bad destination list: an entry out of range, or one that
// repeats an earlier entry (a sweep solves each destination exactly once;
// silently coalescing duplicates would desynchronize the caller's
// dests[i] <-> yield pairing, so they are rejected instead).
type DestError struct {
	Dest  int  // offending destination value
	Index int  // its position in the dests slice
	N     int  // the fabric side (valid destinations are [0, N))
	Dup   bool // true when the destination repeats an earlier entry
}

func (e *DestError) Error() string {
	if e.Dup {
		return fmt.Sprintf("core: duplicate destination %d at dests[%d]", e.Dest, e.Index)
	}
	return fmt.Sprintf("core: destination %d at dests[%d] out of range [0,%d)", e.Dest, e.Index, e.N)
}

// checkDests validates a sweep's destination list upfront — range and
// distinctness — so a bad list fails atomically, before any solve runs or
// any row is yielded. The duplicate bitmap is session-owned and reused.
func (s *Session) checkDests(dests []int) error {
	n := s.m.N()
	if s.destSeen == nil {
		s.destSeen = make([]uint64, (n+63)>>6)
	}
	seen := s.destSeen
	for i := range seen {
		seen[i] = 0
	}
	for i, d := range dests {
		if d < 0 || d >= n {
			return &DestError{Dest: d, Index: i, N: n}
		}
		if seen[d>>6]&(1<<(uint(d)&63)) != 0 {
			return &DestError{Dest: d, Index: i, N: n, Dup: true}
		}
		seen[d>>6] |= 1 << (uint(d) & 63)
	}
	return nil
}

// SolveSweep runs the DP for each destination in dests, in order, on the
// session's warm fabric, calling yield with each destination's Result as
// it completes — the batched all-pairs driver. Destinations must be
// distinct and in range (*DestError otherwise, before anything runs).
// Results, Iterations and Metrics of every yielded Result are identical
// to what a sequential Session.Solve loop would produce. The sweep stops
// at the first error: a failed solve (the error is returned; earlier
// yields remain valid) or a non-nil error from yield (returned unwrapped,
// so callers can use a sentinel to stop early). The context is checked
// between DP iterations, as in SolveContext.
//
// Each yielded Result is freshly allocated and remains valid after the
// sweep. A Session is still not safe for concurrent use; SolveAllPairs
// shards destinations across per-worker sessions.
func (s *Session) SolveSweep(ctx context.Context, dests []int, yield func(*Result) error) error {
	if err := s.checkDests(dests); err != nil {
		return err
	}
	for _, d := range dests {
		r, err := s.solveSeeded(ctx, d, nil, s.sweepMachine())
		if err != nil {
			return err
		}
		if err := yield(r); err != nil {
			return err
		}
	}
	return nil
}

// sweepMachine returns the plain machine the fused lane may drive, or nil
// when the machine-program oracle must run. Re-checked per destination so
// a fault injected mid-sweep (e.g. from a yield callback) demotes the
// remainder of the sweep to the oracle, mirroring fusedOn.
func (s *Session) sweepMachine() *ppa.Machine {
	if s.opt.SwitchOnlyBus || s.opt.ReferenceKernels || s.opt.PaperInit || !s.a.Fused() {
		return nil
	}
	pm, ok := s.m.(*ppa.Machine)
	if !ok || pm.Faulty() {
		return nil
	}
	return pm
}

// fusedDP is the fused DP lane (see the file comment): it iterates the
// row-d seed in rs.sow to convergence in place and returns the round
// count. A cold seed is written here and charged as the oracle's
// statements 4-7; a warm seed is the caller's, charged as the oracle's
// EqConst + Not.
func (s *Session) fusedDP(ctx context.Context, pm *ppa.Machine, dest int, cold bool, rs *resolveState, maxIter int) (int, error) {
	n := s.m.N()
	h := pm.Bits()
	hh := int(h)
	size := int64(n) * int64(n)
	inf := ppa.Infinity(h)
	w := s.sweep()
	W := s.W.Words()
	diagBits := s.diag.Bits()
	headBits := s.rowHead.Bits()
	sow := rs.sow
	// charge mirrors par.Array.instr k times: k controller instructions,
	// each executed by all n*n PEs.
	charge := func(k int) {
		for i := 0; i < k; i++ {
			pm.CountInstr()
		}
		pm.CountPE(size * int64(k))
	}
	// The enable planes below feed only the observer's Opens counts, so
	// they are rebuilt only while one is attached (checked once per row:
	// an observer set from a sweep's yield applies from the next row).
	observed := pm.Observed()

	w.retarget(dest, n)
	if cold {
		charge(2) // rowIsD = ROW.EqConst(d); colIsD = COL.EqConst(d)
		charge(1) // notD = rowIsD.Not()
		// Corrected init: column d of W moved onto row d (two bus
		// cycles), SOW[d][d] pinned to 0, PTN row d seeded with d.
		for j := 0; j < n; j++ {
			sow[j] = W[j*n+dest]
		}
		sow[dest] = 0
		for j := range rs.next {
			rs.next[j] = int32(dest)
		}
		pm.ChargeBroadcast(ppa.East, w.colBits) // acrossRows: (j, c) <- w_jd
		pm.ChargeBroadcast(ppa.South, diagBits) // ontoRowD: (r, j) <- w_jd
		charge(2)                               // SOW.Assign; PTN.AssignConst (where ROW==d)
		charge(1)                               // atDD = rowIsD.And(colIsD)
		charge(1)                               // SOW.AssignConst(0) (where atDD)
	} else {
		charge(1) // rowIsD = ROW.EqConst(d)
		charge(1) // notD = rowIsD.Not(); the seed row DMA is uncharged
	}
	w.pred.Fill(false)

	// wrow returns row i of the candidate's weight operand: W's row, or
	// zeros on row d, whose candidate is SOW[d] itself (the masked store
	// of statement 10 skips it).
	wrow := func(i int) []ppa.Word {
		if i == dest {
			return w.zero
		}
		return W[i*n : i*n+n]
	}

	iterations := 0
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		iterations++
		if iterations > maxIter {
			return 0, fmt.Errorf("core: DP did not converge within %d rounds", maxIter)
		}

		// Statement 10, then each row's candidate minimum and first
		// arg-min in one scan — the values both bus walks would extract.
		pm.ChargeBroadcast(ppa.South, w.rowBits) // down = broadcast(SOW, SOUTH, ROW==d)
		charge(2)                                // cand = down.AddSat(W); SOW.Assign (where !=d)
		for i := 0; i < n; i++ {
			w.rmin[i], w.rarg[i] = rowArgMin(sow, wrow(i), inf)
		}

		// Statement 11: Min(SOW, WEST, COL==n-1), charge-only walk.
		charge(hh) // per-plane gathers
		charge(1)  // enable = True()
		for j := 0; j < hh; j++ {
			charge(2) // Not + And(enable)
			pm.ChargeWiredOr(ppa.West, headBits)
			charge(2) // And + masked withdraw
		}
		charge(1) // result = src.Copy()
		// After the walk, enable holds every lane attaining its row
		// minimum — rebuilt so the broadcast event's Opens count matches.
		if observed {
			w.enable.Fill(false)
			for i := 0; i < n; i++ {
				mv := w.rmin[i]
				for j, wv := range wrow(i) {
					v := sow[j] + wv
					if v > inf {
						v = inf
					}
					if v == mv {
						w.enable.Set(i*n + j)
					}
				}
			}
		}
		pm.ChargeBroadcast(ppa.East, w.enable) // survivors send upstream
		pm.ChargeBroadcast(ppa.West, headBits) // heads spread the minima
		charge(1)                              // MinSOW.Assign (where !=d)
		charge(1)                              // sel = rowMin.Eq(SOW)

		// Statement 12: SelectedMin(COL, WEST, COL==n-1, sel).
		charge(hh) // gathers
		charge(1)  // enable = sel.Copy()
		for j := 0; j < hh; j++ {
			charge(2)
			pm.ChargeWiredOr(ppa.West, headBits)
			charge(2)
		}
		charge(1) // result = src.Copy()
		// The column walk leaves exactly the first attaining lane per row.
		if observed {
			w.enable.Fill(false)
			for i := 0; i < n; i++ {
				w.enable.Set(i*n + int(w.rarg[i]))
			}
		}
		pm.ChargeBroadcast(ppa.East, w.enable)
		pm.ChargeBroadcast(ppa.West, headBits)
		charge(1) // PTN.Assign (where !=d)

		// Statements 14-19: fold the per-row minima back into row d via
		// the diagonal, and PTN with them wherever SOW changed.
		pm.ChargeBroadcast(ppa.South, diagBits) // newRow
		pm.ChargeBroadcast(ppa.South, diagBits) // newPTN
		charge(4)                               // OldSOW.Assign; SOW.Assign; changed = Ne; PTN.Assign
		w.pred.FillRange(dest*n, dest*n+n, false)
		for j := 0; j < n; j++ {
			nv := w.rmin[j]
			if j == dest {
				nv = 0 // MinSOW[d][d] stays pinned to 0
			}
			if nv != sow[j] {
				w.pred.Set(dest*n + j)
				sow[j] = nv
				rs.next[j] = w.rarg[j]
			}
		}

		// Statement 20: while at least one SOW in row d has changed.
		charge(2) // ne = SOW.Ne(OldSOW); pred = rowIsD.And(ne)
		if !pm.GlobalOrBits(w.pred) {
			return iterations, nil
		}
	}
}

// rowArgMin returns min_j (sow[j] + row[j]) over lanes in [0, inf] and
// its first arg-min; when no sum is below inf the minimum is inf at
// lane 0 (every saturated lane attains it). A sum past inf never beats
// the running minimum, so the saturation needs no explicit clamp, and
// lanes hold at most Infinity(h) <= 2^62-1, so the sum cannot overflow.
// Even and odd lanes run as two independent compare chains, so the scan
// is not bound by one chain's latency; the merge keeps the lower lane on
// a tie, which makes the result the first arg-min.
func rowArgMin(sow, row []ppa.Word, inf ppa.Word) (ppa.Word, int32) {
	n := len(sow)
	row = row[:n]
	m0, a0, m1, a1 := inf, 0, inf, 0
	j := 0
	for ; j+1 < n; j += 2 {
		if v := sow[j] + row[j]; v < m0 {
			m0, a0 = v, j
		}
		if v := sow[j+1] + row[j+1]; v < m1 {
			m1, a1 = v, j+1
		}
	}
	if j < n {
		if v := sow[j] + row[j]; v < m0 {
			m0, a0 = v, j
		}
	}
	if m1 < m0 || (m1 == m0 && a1 < a0) {
		m0, a0 = m1, a1
	}
	return m0, int32(a0)
}
