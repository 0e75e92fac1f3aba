package core

import (
	"context"
	"fmt"

	"ppamcp/internal/ppa"
)

// This file is the DP half of the incremental re-solve path. Resolve is
// Solve for dynamic graphs: the first call per destination is exactly a
// cold solve (same instruction sequence, same Metrics), but the solution
// is retained, and later calls warm-start the DP from it instead of from
// the 1-edge seeds.
//
// Why warm-starting is sound: the DP round operator
// T(x)_i = min_j sat(w_ij + x_j) (the self term w_ii = 0 makes rounds
// monotone non-increasing) drives ANY pointwise upper bound of the true
// distances down to them within n-1 rounds. Old distances stay upper
// bounds across weight decreases (the recorded paths only get cheaper),
// so decrease-only deltas re-seed directly; a weight increase on edge
// (u, v) can break exactly the recorded paths that traverse it, so the
// seed entries of u's subtree in the retained shortest-path tree are
// invalidated back to MAXINT (update.go logs increases for this). The
// surviving entries quote paths that avoid every increased edge, hence
// remain valid upper bounds.
//
// The converged distances equal the from-scratch ones exactly. The next
// pointers need one more step: the cold DP's PTN is the smallest column j
// with a tight edge (w_ij + dist_j = dist_i) whose own minimal optimal
// path uses one edge less (PTN is written only on the round where SOW
// last strictly improves, and the attaining set at that round is exactly
// those j). Both lanes carry PTN through the DP, which is that choice on
// a cold seed. A warm trajectory takes different rounds, so after
// convergence solveSeeded reconstructs the canonical choice on the host
// (canonicalNext) for every warm row — a BFS from the destination over
// reversed tight edges assigns the edge-count levels, then each vertex
// picks its smallest tight successor one level down — making those
// results bit-identical to the oracle's cold ones, not just cost-equal.
//
// The warm seed runs on the same two lanes as the cold one (solveSeeded):
// the fused lane (fusedDP, sweep.go) wherever sweepMachine allows it, and
// the machine-program oracle (programDP, mcp.go) on virtualized,
// reference-kernel and switch-only fabrics. Only the seed and its init
// charges differ.

// resolveState is the host scratch of the seeded DP, allocated on the
// first solve and reused for every solve thereafter (steady state
// allocates only the yielded Result).
type resolveState struct {
	sow   []ppa.Word // working row d of SOW: seed in, converged out
	next  []int32    // next pointers out
	hops  []int32    // tight-edge BFS levels
	q     []int32    // BFS queue
	head  []int32    // shortest-path-tree children lists (invalidation)
	sib   []int32
	stack []int32
}

func (s *Session) resolveScratch() *resolveState {
	if s.rs != nil {
		return s.rs
	}
	n := s.m.N()
	s.rs = &resolveState{
		sow:   make([]ppa.Word, n),
		next:  make([]int32, n),
		hops:  make([]int32, n),
		q:     make([]int32, 0, n),
		head:  make([]int32, n),
		sib:   make([]int32, n),
		stack: make([]int32, 0, n),
	}
	return s.rs
}

// Resolve solves for dest on the session's current graph, warm-starting
// from the previous Resolve of the same destination when one is retained
// and still valid. Dist and Next are identical to a from-scratch
// Reload+Solve in every case; on the first call per destination (or after
// Reload, or when invalidated) the Metrics and Iterations are also
// byte-identical to Solve's, while a warm re-solve legitimately reports
// fewer iterations — that is the win (see DESIGN §12).
//
// Sessions on faulty fabrics and PaperInit sessions never warm-start:
// their solves are not fixpoints of the healthy DP operator, so a
// previous solution is not a safe seed. They run the cold path every
// time.
func (s *Session) Resolve(ctx context.Context, dest int) (*Result, error) {
	n := s.m.N()
	if dest < 0 || dest >= n {
		return nil, fmt.Errorf("core: destination %d out of range [0,%d)", dest, n)
	}
	return s.resolveOne(ctx, dest, false)
}

// resolveOne is the shared per-destination dispatch of Resolve and
// ResolveSweep: warm re-solve when a usable snapshot exists, cold solve
// otherwise, retaining the solution for next time. allowSkip enables
// ResolveSweep's skip-converged fast-out (resolvesweep.go); Resolve keeps
// it off so its per-call contract — the DP runs and Iterations >= 1 — is
// unchanged.
func (s *Session) resolveOne(ctx context.Context, dest int, allowSkip bool) (*Result, error) {
	w := s.warmUsable(dest)
	if w != nil && allowSkip && !s.warmAffected(dest, w) {
		return s.emitRetained(dest, w), nil
	}
	r, err := s.solveSeeded(ctx, dest, w, s.sweepMachine())
	if err != nil {
		return nil, err
	}
	if s.retainable() {
		s.retain(dest, r)
	}
	return r, nil
}

// solveSeeded runs the DP for dest from a row-d seed and builds its
// Result. The seed is cold (w == nil: the 1-edge costs of statements
// 4-7) or warm (w's retained row with applyIncreases' invalidations).
// A non-nil pm selects the fused lane (fusedDP), nil the machine-program
// oracle (programDP). A cold row reports the DP's own PTN (the machine's
// PTN row, or the fused lane's in-scan copy of it) — the reference the
// warm reconstruction is pinned to, and the only correct answer on
// faulty and PaperInit fabrics. A warm row's Next is canonicalNext's
// reconstruction.
func (s *Session) solveSeeded(ctx context.Context, dest int, w *warmDest, pm *ppa.Machine) (*Result, error) {
	n := s.m.N()
	h := s.m.Bits()
	inf := ppa.Infinity(h)
	maxIter := s.opt.MaxIterations
	if maxIter <= 0 {
		maxIter = n + 1
	}
	rs := s.resolveScratch()
	cold := w == nil
	if !cold {
		copy(rs.sow, w.sow)
		s.applyIncreases(w, rs, inf)
	}
	startMetrics := s.m.Metrics()
	var iterations int
	var err error
	if pm != nil {
		iterations, err = s.fusedDP(ctx, pm, dest, cold, rs, maxIter)
	} else {
		iterations, err = s.programDP(ctx, dest, cold, rs, maxIter)
	}
	if err != nil {
		return nil, err
	}
	if !cold {
		s.canonicalNext(dest, rs, inf)
	}
	return newResult(dest, rs.sow, rs.next, iterations, s.m.Metrics().Sub(startMetrics), h), nil
}

// retainable reports whether solutions may be retained and reused as warm
// seeds on this session.
func (s *Session) retainable() bool {
	if s.opt.PaperInit {
		return false
	}
	if f, ok := s.m.(interface{ Faulty() bool }); ok && f.Faulty() {
		return false
	}
	return true
}

// warmUsable returns the retained solution Resolve may warm-start from,
// or nil when the cold path must run.
func (s *Session) warmUsable(dest int) *warmDest {
	if s.warm == nil || !s.retainable() {
		return nil
	}
	w := s.warm[dest]
	if w == nil || w.ver < s.logFloor {
		return nil
	}
	return w
}

// applyIncreases raises to MAXINT every seed entry whose recorded path may
// traverse an edge that increased since the snapshot: for each logged
// increase (u, v) newer than the snapshot (decrease entries in the change
// log are skipped — they cannot break an upper bound) with next[u] == v,
// the whole
// subtree of u in the retained shortest-path tree (every vertex whose
// recorded path passes through u). Conservative — a survivor's recorded
// path avoids all increased edges, so its cost is unchanged and the seed
// stays an upper bound.
func (s *Session) applyIncreases(w *warmDest, rs *resolveState, inf ppa.Word) {
	applicable := false
	for _, e := range s.incLog {
		if e.ver > w.ver && e.inc {
			applicable = true
			break
		}
	}
	if !applicable {
		return
	}
	n := s.m.N()
	head, sib := rs.head, rs.sib
	for i := range head {
		head[i] = -1
	}
	for i := 0; i < n; i++ {
		if p := w.next[i]; p >= 0 {
			sib[i] = head[p]
			head[p] = int32(i)
		}
	}
	stack := rs.stack[:0]
	for _, e := range s.incLog {
		if e.ver <= w.ver || !e.inc {
			continue
		}
		u := int(e.u)
		if w.next[u] != e.v || rs.sow[u] == inf {
			continue
		}
		// Iterative subtree walk; an entry already at MAXINT was either
		// invalidated by an earlier increase or unreachable — both final.
		stack = append(stack, int32(u))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rs.sow[x] == inf {
				continue
			}
			rs.sow[x] = inf
			for c := head[x]; c >= 0; c = sib[c] {
				stack = append(stack, c)
			}
		}
	}
	rs.stack = stack[:0]
}

// canonicalNext rebuilds, from converged distances, the next pointers the
// cold DP reports: BFS from dest over reversed tight edges assigns each
// reachable vertex the minimum edge count among its optimal paths, then
// each vertex takes the smallest tight successor one level down (the
// attaining set of the round where cold SOW last strictly improved).
func (s *Session) canonicalNext(dest int, rs *resolveState, inf ppa.Word) {
	n := s.m.N()
	W := s.W.Words()
	hops := rs.hops
	for i := range hops {
		hops[i] = -1
	}
	hops[dest] = 0
	q := append(rs.q[:0], int32(dest))
	for qh := 0; qh < len(q); qh++ {
		j := int(q[qh])
		dj := rs.sow[j]
		for i := 0; i < n; i++ {
			if hops[i] >= 0 || i == j {
				continue
			}
			di := rs.sow[i]
			if di == inf {
				continue
			}
			// Words are at most Infinity(h) <= 2^62-1: no int64 overflow.
			if wij := W[i*n+j]; wij != inf && di == wij+dj {
				hops[i] = hops[j] + 1
				q = append(q, int32(i))
			}
		}
	}
	rs.q = q[:0]
	for i := 0; i < n; i++ {
		if i == dest || rs.sow[i] == inf {
			rs.next[i] = -1
			continue
		}
		di := rs.sow[i]
		target := hops[i] - 1
		rs.next[i] = -1 // a tight successor always exists; belt and braces
		for j := 0; j < n; j++ {
			if j == i || hops[j] != target {
				continue
			}
			if wij := W[i*n+j]; wij != inf && di == wij+rs.sow[j] {
				rs.next[i] = int32(j)
				break
			}
		}
	}
}
