// Package core implements the paper's contribution: the parallel Minimum
// Cost Path algorithm on the Polymorphic Processor Array (Baglietto,
// Maresca, Migliardi — IPPS 1998).
//
// The n-vertex problem maps onto an n x n PPA with PE (i, j) holding the
// weight w_ij of the edge i -> j. Each DP round broadcasts the current
// SOW row down the columns, adds W, takes the bit-serial minimum along
// each row, extracts the arg-min column index with selected_min, and
// writes the new SOW/PTN back to row d via the diagonal. The loop stops
// when the global-OR line reports that no SOW entry of row d changed —
// after p productive rounds plus one detecting round, where p is the
// maximum MCP length to the destination.
//
// Total cost: Θ(p·h) wired-OR cycles plus Θ(p) word broadcasts on an
// h-bit machine — the complexity the paper establishes and experiments
// E1/E2 measure.
package core

import (
	"context"
	"fmt"

	"ppamcp/internal/graph"
	"ppamcp/internal/par"
	"ppamcp/internal/ppa"
	"ppamcp/internal/virt"
)

// Options tunes Solve.
type Options struct {
	// Bits is the machine word width h. Zero selects the smallest width
	// that can represent every finite path cost (graph.BitsNeeded).
	Bits uint
	// Workers is the simulator's goroutine fan-out for independent bus
	// rings (results are identical for any value; see ppa.WithWorkers).
	Workers int
	// PaperInit reproduces the paper's statement 5 verbatim
	// (`where (ROW == d) SOW = W`), which loads the d-th *row* of W where
	// the DP needs the d-th *column*. It is only correct on symmetric
	// graphs; the default initialization performs the corrected
	// column-to-row move (two extra bus cycles). See DESIGN.md, deviation 2.
	PaperInit bool
	// MaxIterations bounds the DP loop; zero means n+1 (the loop provably
	// terminates within p+1 <= n rounds on non-negative weights, so
	// hitting the bound reports an internal error).
	MaxIterations int
	// SwitchOnlyBus computes the bit-serial minima with plain segmented
	// broadcasts only (par.MinViaSwitches) instead of the wired-OR bus
	// mode — the weaker hardware reading of the paper's or(), under which
	// the printed min() listing is exact (DESIGN.md deviation 3a). Each
	// min costs 2h+2 bus cycles instead of h wired-OR + 2 bus cycles;
	// results are identical (ablation E7).
	SwitchOnlyBus bool
	// PhysicalSide, when nonzero and smaller than n, runs the algorithm
	// block-mapped on a PhysicalSide x PhysicalSide machine (virt.Machine),
	// lifting the paper's one-element-per-PE assumption. n must be a
	// multiple of PhysicalSide. Results are identical; communication
	// cycles scale by k = n/PhysicalSide (the virtualization ablation).
	PhysicalSide int
	// ReferenceKernels forces the interpretive bit-serial reduction path
	// even where the fused bit-sliced kernels apply (they are on by
	// default; results and cost-model counters are identical either way —
	// this is a debugging/ablation knob, see par.Array.SetFused).
	ReferenceKernels bool
}

// Result is the outcome of a PPA MCP computation: the host-side solution
// plus the abstract machine cost of producing it.
type Result struct {
	graph.Result
	// Metrics is the simulator's cycle accounting for this solve,
	// including the corrected initialization (Session setup — coordinate
	// masks and weight loading, which cost no communication — is
	// amortized and excluded).
	Metrics ppa.Metrics
	// Bits is the word width h the machine ran with.
	Bits uint
}

// Solve runs the PPA MCP algorithm for destination dest on g.
func Solve(g *graph.Graph, dest int, opt Options) (*Result, error) {
	if dest < 0 || dest >= g.N {
		return nil, fmt.Errorf("core: destination %d out of range [0,%d)", dest, g.N)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	h := opt.Bits
	if h == 0 {
		h = g.BitsNeeded()
	}
	if h > ppa.MaxBits {
		return nil, fmt.Errorf("core: word width %d exceeds %d bits", h, ppa.MaxBits)
	}
	n := g.N
	if int64(n-1) > int64(ppa.Infinity(h)) {
		return nil, fmt.Errorf("core: %d-bit words cannot hold vertex indices up to %d", h, n-1)
	}

	var mopts []ppa.Option
	if opt.Workers > 1 {
		mopts = append(mopts, ppa.WithWorkers(opt.Workers))
	}
	var m ppa.Fabric
	if opt.PhysicalSide > 0 && opt.PhysicalSide < n {
		vm, err := virt.New(n, opt.PhysicalSide, h, mopts...)
		if err != nil {
			return nil, err
		}
		m = vm
	} else {
		m = ppa.New(n, h, mopts...)
	}
	r, err := SolveOn(m, g, dest, opt)
	// One-shot solve on an internally built machine: stop any ring
	// workers now rather than leaving them to the finalizer.
	if c, ok := m.(interface{ Close() }); ok {
		c.Close()
	}
	return r, err
}

// SolveOn runs the algorithm on a caller-supplied fabric — the entry
// point for fault-injection studies (build a ppa.Machine, InjectFault,
// then SolveOn) and for custom fabrics. The fabric's side must equal the
// vertex count and its word width must fit the problem; Options.Bits,
// Workers and PhysicalSide are ignored here (they describe fabric
// construction, which the caller has already done).
func SolveOn(m ppa.Fabric, g *graph.Graph, dest int, opt Options) (*Result, error) {
	s, err := NewSessionOn(m, g, opt)
	if err != nil {
		return nil, err
	}
	return s.Solve(dest)
}

// Session amortizes machine construction, weight loading and the
// coordinate masks across many solves on the same graph — the
// routing-table pattern, where one destination is solved per vertex. A
// Session is not safe for concurrent use (it owns one simulated machine);
// SolveAllPairs gives each worker goroutine its own.
type Session struct {
	g   *graph.Graph
	m   ppa.Fabric
	a   *par.Array
	opt Options

	row, col *par.Var
	diag     *par.Bool
	rowHead  *par.Bool
	W        *par.Var

	// wbuf is the reusable host staging buffer for Reload: converting a
	// new weight matrix to machine words must not allocate once the
	// session is warm (the session-pool hot path of internal/serve).
	wbuf []ppa.Word

	// sw is the fused lane's scratch (sweep.go), allocated on its first
	// solve and reused for every destination thereafter. It holds no
	// graph data, so Reload does not invalidate it.
	sw *sweepState

	// Incremental re-solve state (update.go / resolve.go): version counts
	// effective Update batches, warm retains per-destination solutions for
	// Resolve to warm-start from, incLog records the weight increases that
	// can invalidate them (entries older than logFloor have been
	// truncated, so snapshots from before logFloor are unusable). ownG
	// marks s.g as session-owned — Update clones the caller's graph before
	// the first mutation. rs is the seeded DP's host scratch; upIdx/upVals
	// stage the sparse weight DMA.
	version  uint64
	logFloor uint64
	incLog   []incEntry
	warm     map[int]*warmDest
	ownG     bool
	rs       *resolveState
	upIdx    []int
	upVals   []ppa.Word

	// destSeen is the reusable duplicate-destination bitmap of
	// checkDests (sweep.go) — sweep validation must not allocate on the
	// steady-state path.
	destSeen []uint64
}

// NewSession builds a session with a fresh machine (Options as in Solve).
func NewSession(g *graph.Graph, opt Options) (*Session, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	h := opt.Bits
	if h == 0 {
		h = g.BitsNeeded()
	}
	if h > ppa.MaxBits {
		return nil, fmt.Errorf("core: word width %d exceeds %d bits", h, ppa.MaxBits)
	}
	n := g.N
	if int64(n-1) > int64(ppa.Infinity(h)) {
		return nil, fmt.Errorf("core: %d-bit words cannot hold vertex indices up to %d", h, n-1)
	}
	var mopts []ppa.Option
	if opt.Workers > 1 {
		mopts = append(mopts, ppa.WithWorkers(opt.Workers))
	}
	var m ppa.Fabric
	if opt.PhysicalSide > 0 && opt.PhysicalSide < n {
		vm, err := virt.New(n, opt.PhysicalSide, h, mopts...)
		if err != nil {
			return nil, err
		}
		m = vm
	} else {
		m = ppa.New(n, h, mopts...)
	}
	return NewSessionOn(m, g, opt)
}

// NewSessionOn builds a session on a caller-supplied fabric.
func NewSessionOn(m ppa.Fabric, g *graph.Graph, opt Options) (*Session, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.N
	if m.N() != n {
		return nil, fmt.Errorf("core: fabric side %d != vertex count %d", m.N(), n)
	}
	h := m.Bits()
	if int64(n-1) > int64(ppa.Infinity(h)) {
		return nil, fmt.Errorf("core: %d-bit words cannot hold vertex indices up to %d", h, n-1)
	}
	w, err := loadWeights(g, h)
	if err != nil {
		return nil, err
	}
	a := par.New(m)
	if !opt.ReferenceKernels {
		a.SetFused(true)
	}
	s := &Session{
		g: g, m: m, a: a, opt: opt,
		row: a.Row(), col: a.Col(),
	}
	s.diag = s.row.Eq(s.col)
	s.rowHead = s.col.EqConst(ppa.Word(n - 1)) // min() clusters: whole rows
	s.W = a.FromSlice(w)
	return s, nil
}

// Fabric returns the session's machine (for metrics inspection or fault
// injection between solves).
func (s *Session) Fabric() ppa.Fabric { return s.m }

// Close releases resources tied to the session's fabric — today the
// machine's persistent ring workers (see ppa.Machine.Close). Optional:
// an abandoned session's workers are reclaimed by a finalizer; Close
// makes the shutdown deterministic (tests, session pools).
func (s *Session) Close() {
	if c, ok := s.m.(interface{ Close() }); ok {
		c.Close()
	}
}

// N returns the vertex count (= array side) the session was built for.
func (s *Session) N() int { return s.m.N() }

// Bits returns the machine word width h the session runs with.
func (s *Session) Bits() uint { return s.m.Bits() }

// Options returns the options the session was built with. Callers that
// recycle sessions (internal/serve's pool) key interchangeability on the
// fabric-relevant fields — two sessions are substitutes only when N, Bits
// and these options agree.
func (s *Session) Options() Options { return s.opt }

// Reload replaces the session's graph with a new one of the same vertex
// count, reusing the fabric, the coordinate masks and the weight plane's
// storage — no re-allocation. This is what makes pooling sessions across
// requests profitable: the expensive setup (machine construction, masks)
// survives, only the weight DMA is repeated. The new graph must fit the
// session's word width h; on error the session keeps its old graph.
func (s *Session) Reload(g *graph.Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if g.N != s.m.N() {
		return fmt.Errorf("core: Reload vertex count %d != session size %d", g.N, s.m.N())
	}
	if s.wbuf == nil {
		s.wbuf = make([]ppa.Word, g.N*g.N)
	}
	if err := loadWeightsInto(s.wbuf, g, s.m.Bits()); err != nil {
		return err
	}
	s.W.Load(s.wbuf)
	s.g = g
	s.ownG = false
	s.invalidateWarm()
	return nil
}

// Solve runs the DP for one destination. Result.Metrics covers only this
// solve (the fabric's counters keep accumulating across the session).
func (s *Session) Solve(dest int) (*Result, error) {
	return s.SolveContext(context.Background(), dest)
}

// SolveContext is Solve with cooperative cancellation: the context is
// checked between DP iterations, so a caller whose deadline has passed (or
// whose client hung up) releases the session after at most one round
// instead of pinning it for the rest of the computation. On cancellation
// all machine temporaries are returned to the session's pools and the
// context's error is returned.
func (s *Session) SolveContext(ctx context.Context, dest int) (*Result, error) {
	if dest < 0 || dest >= s.g.N {
		return nil, fmt.Errorf("core: destination %d out of range [0,%d)", dest, s.g.N)
	}
	return s.solveSeeded(ctx, dest, nil, nil)
}

// programDP runs the DP for dest as the paper's machine program — the
// oracle lane, and the only lane for virtualized, faulty, switch-only,
// reference-kernel and PaperInit fabrics. A cold run initializes row d
// with statements 4-7 and reports the converged SOW and PTN rows in
// rs.sow and rs.next; a warm run DMAs the seed row from rs.sow (two
// instructions: ROW==d and its negation) and reports SOW only. On error
// every machine temporary is back in the session's pools.
func (s *Session) programDP(ctx context.Context, dest int, cold bool, rs *resolveState, maxIter int) (int, error) {
	a := s.a
	n := s.m.N()
	rowIsD := s.row.EqConst(ppa.Word(dest))
	var colIsD *par.Bool
	if cold {
		colIsD = s.col.EqConst(ppa.Word(dest))
	}
	notD := rowIsD.Not()

	W := s.W
	SOW := a.Zeros()
	PTN := a.Zeros()
	MinSOW := a.Zeros() // zero-initialized global: keeps SOW[d][d] pinned to 0
	OldSOW := a.Zeros()

	if cold {
		// Step 1 — initialization (statements 4-7). The DP needs
		// SOW[d][j] = w_jd (cost of the 1-edge path j -> d), i.e. column d
		// of W moved onto row d.
		if s.opt.PaperInit {
			a.Where(rowIsD, func() {
				SOW.Assign(W)
				PTN.AssignConst(ppa.Word(dest))
			})
		} else {
			acrossRows := a.Broadcast(W, ppa.East, colIsD)         // (j, c) <- w_jd
			ontoRowD := a.Broadcast(acrossRows, ppa.South, s.diag) // (r, j) <- w_jd
			a.Where(rowIsD, func() {
				SOW.Assign(ontoRowD)
				PTN.AssignConst(ppa.Word(dest))
			})
			ontoRowD.Release()
			acrossRows.Release()
		}
		// SOW[d][d] = 0: the empty path from d to itself (w_dd is 0 on
		// the machine copy of W, so the paper's init gives the same).
		atDD := rowIsD.And(colIsD)
		a.Where(atDD, func() {
			SOW.AssignConst(0)
		})
		atDD.Release()
		colIsD.Release()
	} else {
		// A warm PTN's DP output is superseded by the canonical host
		// reconstruction, so its zero seed is fine: the loop only ever
		// writes it.
		SOW.LoadRow(dest, rs.sow)
	}

	// Step 2 — RMCP computation (statements 8-20).
	iterations, loopErr := s.runDP(ctx, maxIter, rowIsD, notD, SOW, PTN, MinSOW, OldSOW)
	if loopErr == nil {
		for i := 0; i < n; i++ {
			rs.sow[i] = SOW.At(dest, i)
			if cold {
				rs.next[i] = int32(PTN.At(dest, i))
			}
		}
	}
	OldSOW.Release()
	MinSOW.Release()
	PTN.Release()
	SOW.Release()
	notD.Release()
	rowIsD.Release()
	return iterations, loopErr
}

// newResult builds the host Result from a converged row d on an h-bit
// machine: machine-word distances (MAXINT for unreachable) and next
// pointers, which are read only for reachable vertices other than dest.
func newResult(dest int, sow []ppa.Word, next []int32, iterations int, m ppa.Metrics, h uint) *Result {
	n := len(sow)
	inf := ppa.Infinity(h)
	res := &Result{
		Result: graph.Result{
			Dest:       dest,
			Dist:       make([]int64, n),
			Next:       make([]int, n),
			Iterations: iterations,
		},
		Metrics: m,
		Bits:    h,
	}
	for i, v := range sow {
		switch {
		case i == dest:
			res.Dist[i] = 0
			res.Next[i] = -1
		case v == inf:
			res.Dist[i] = graph.NoEdge
			res.Next[i] = -1
		default:
			res.Dist[i] = int64(v)
			res.Next[i] = int(next[i])
		}
	}
	return res
}

// runDP runs the RMCP iteration (statements 8-20) to convergence on
// already-initialized solution planes — programDP's loop for every seed,
// cold or warm, which differ only in how SOW and PTN are seeded. Early exits (cancellation,
// non-convergence) return with the error set and all loop temporaries
// released — a cancelled request must not leak pool storage when its
// session is reused; the caller still owns the planes it passed in.
func (s *Session) runDP(ctx context.Context, maxIter int, rowIsD, notD *par.Bool, SOW, PTN, MinSOW, OldSOW *par.Var) (int, error) {
	a, opt := s.a, s.opt
	col, diag, rowHead, W := s.col, s.diag, s.rowHead, s.W
	iterations := 0
	var loopErr error
	for {
		if err := ctx.Err(); err != nil {
			loopErr = err
			break
		}
		iterations++
		if iterations > maxIter {
			loopErr = fmt.Errorf("core: DP did not converge within %d rounds", maxIter)
			break
		}

		// Statement 10: SOW = broadcast(SOW, SOUTH, ROW == d) + W,
		// assigned where ROW != d. PE (i, j) now holds SOW[j->d] + w_ij.
		down := a.Broadcast(SOW, ppa.South, rowIsD)
		cand := down.AddSat(W)
		down.Release()
		a.Where(notD, func() {
			SOW.Assign(cand)
		})
		cand.Release()

		// Statement 11: MIN_SOW = min(SOW, WEST, COL == n-1).
		var rowMin *par.Var
		if opt.SwitchOnlyBus {
			rowMin = a.MinViaSwitches(SOW, ppa.West, rowHead)
		} else {
			rowMin = a.Min(SOW, ppa.West, rowHead)
		}
		a.Where(notD, func() {
			MinSOW.Assign(rowMin)
		})
		// Statement 12: PTN = selected_min(COL, WEST, COL == n-1,
		// MIN_SOW == SOW): the smallest column index attaining the minimum.
		sel := rowMin.Eq(SOW)
		rowMin.Release()
		var argMin *par.Var
		if opt.SwitchOnlyBus {
			argMin = a.SelectedMinViaSwitches(col, ppa.West, rowHead, sel)
		} else {
			argMin = a.SelectedMin(col, ppa.West, rowHead, sel)
		}
		sel.Release()
		a.Where(notD, func() {
			PTN.Assign(argMin)
		})
		argMin.Release()

		// Statements 14-19: fold the per-row results back into row d via
		// the diagonal and update PTN only where the cost improved.
		newRow := a.Broadcast(MinSOW, ppa.South, diag)
		newPTN := a.Broadcast(PTN, ppa.South, diag)
		a.Where(rowIsD, func() {
			OldSOW.Assign(SOW)
			SOW.Assign(newRow)
			changed := SOW.Ne(OldSOW)
			a.Where(changed, func() {
				PTN.Assign(newPTN)
			})
			changed.Release()
		})
		newPTN.Release()
		newRow.Release()

		// Statement 20: while at least one SOW in row d has changed.
		ne := SOW.Ne(OldSOW)
		pred := rowIsD.And(ne)
		done := a.None(pred)
		pred.Release()
		ne.Release()
		if done {
			break
		}
	}
	return iterations, loopErr
}

// loadWeights converts the host matrix to machine words: NoEdge becomes
// the h-bit MAXINT, the diagonal becomes 0 (the standard DP convention —
// see DESIGN.md), and any finite weight or worst-case path cost that
// collides with MAXINT is an error.
func loadWeights(g *graph.Graph, h uint) ([]ppa.Word, error) {
	w := make([]ppa.Word, g.N*g.N)
	if err := loadWeightsInto(w, g, h); err != nil {
		return nil, err
	}
	return w, nil
}

// loadWeightsInto is loadWeights writing into caller-owned storage (the
// allocation-free Reload path). len(dst) must be g.N*g.N.
func loadWeightsInto(dst []ppa.Word, g *graph.Graph, h uint) error {
	n := g.N
	inf := ppa.Infinity(h)
	w := dst
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch wt := g.At(i, j); {
			case i == j:
				w[i*n+j] = 0
			case wt == graph.NoEdge:
				w[i*n+j] = inf
			case n > 1 && wt > (int64(inf)-1)/int64(n-1):
				// Overflow-safe form of (n-1)*wt >= inf: a worst-case
				// simple path could saturate and masquerade as "no path".
				return fmt.Errorf(
					"core: %d-bit words cannot distinguish worst-case path cost (%d * %d) from MAXINT; raise Options.Bits",
					h, n-1, wt)
			default:
				w[i*n+j] = ppa.Word(wt)
			}
		}
	}
	return nil
}

// PredictedCost returns the analytical cycle model of one Solve run for an
// n-vertex graph on an h-bit machine converging after iters rounds:
// experiments compare it against measured metrics to certify the Θ(p·h)
// complexity claim.
func PredictedCost(n int, h uint, iters int, paperInit bool) ppa.Metrics {
	return PredictedCostModel(h, iters, paperInit, false)
}

// PredictedCostModel extends PredictedCost with the bus-model choice:
// switchOnly selects the plain-broadcast minima (2h+2 bus cycles each).
func PredictedCostModel(h uint, iters int, paperInit, switchOnly bool) ppa.Metrics {
	wiredOrPerMin, busPerMin := par.MinCost(h)
	if switchOnly {
		wiredOrPerMin, busPerMin = par.MinSwitchCost(h)
	}
	perIter := ppa.Metrics{
		// stmt 10 broadcast + stmt 11 min + stmt 12 selected_min +
		// stmts 16/18 two diagonal broadcasts.
		BusCycles:     1 + 2*busPerMin + 2,
		WiredOrCycles: 2 * wiredOrPerMin,
		GlobalOrOps:   1,
	}
	total := ppa.Metrics{}
	for k := 0; k < iters; k++ {
		total = total.Add(perIter)
	}
	if !paperInit {
		total.BusCycles += 2 // corrected initialization's transpose move
	}
	return total
}
