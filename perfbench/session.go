package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
	"ppamcp/internal/serve"
)

// session-churn: each client holds one "dests":"all" /v1/session on its
// own graph and pushes 4-edit batches, waiting for each re-solved
// generation. The edit sequence is periodic — sessionBatches random
// batches, then their inverses in reverse order, which restore the
// original graph — so the expected table for every position is computed
// once, before timing, and the work per generation is stationary however
// long the run is. The period is long because the work a batch causes
// varies a lot from batch to batch; a short one would make every
// per-generation figure depend on the seed.
const (
	sessionBatches = 256 // forward batches per period; the period is twice this
	sessionEdits   = 4
)

type sessionChurn struct {
	cfg     config
	graphs  [clients]*graph.Graph
	batches [clients][][]graph.WeightUpdate
	bodies  [clients][][]byte  // update request per position
	tables  [clients][]*oracle // distances after the batch at each position
	origin  [clients]*oracle   // table of the original graph
	h       [clients]uint

	// Per booted stack.
	live   [clients]*liveSession
	mirror [clients]*graph.Graph // the graph each session holds
	pos    [clients]int          // generations completed since boot
}

// liveSession is one client's open session and stream.
type liveSession struct {
	id     string
	lr     *lineReader
	stream io.Closer
}

func newSessionChurn(cfg config, seed int64) (*sessionChurn, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &sessionChurn{cfg: cfg}
	for c := 0; c < clients; c++ {
		g := graph.GenRandomConnected(cfg.N, density, maxW, rng.Int63())
		w.graphs[c], w.h[c] = g, churnBits(cfg.N)
		var err error
		if w.origin[c], err = newOracle(g, nil); err != nil {
			return nil, err
		}
		mirror := g.Clone()
		for _, b := range churnBatches(rng, g) {
			ups := wireToUpdates(b)
			if err := mirror.Apply(ups); err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.SessionUpdateRequest{Updates: b})
			if err != nil {
				return nil, err
			}
			w.batches[c] = append(w.batches[c], ups)
			w.bodies[c] = append(w.bodies[c], body)
			w.tables[c] = append(w.tables[c], tableOracle(mirror).on(nil))
		}
	}
	return w, nil
}

// churnBits is the word width a session needs for the edits churnBatches
// makes: every path cost up to n-1 edges of weight 2*maxW must stay below
// MAXINT. It is rounded up to a multiple of 8 as the server rounds its
// own choice (16 at n=64, the server's default for these graphs too).
func churnBits(n int) uint {
	h := uint(bits.Len(uint((n-1)*2*maxW))) + 1
	return (h + 7) / 8 * 8
}

// churnBatches draws sessionBatches batches of distinct-edge edits —
// decreases (including inserting a missing edge), increases capped at
// 2*maxW, and deletions — followed by the batches that undo them in
// reverse order.
func churnBatches(rng *rand.Rand, g *graph.Graph) [][]serve.WireUpdate {
	n := g.N
	cur := g.Clone()
	wire := func(w int64) int64 {
		if w == graph.NoEdge {
			return -1
		}
		return w
	}
	var fwd, inv [][]serve.WireUpdate
	for b := 0; b < sessionBatches; b++ {
		seen := map[[2]int]bool{}
		var edits, undo []serve.WireUpdate
		for len(edits) < sessionEdits {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			old := cur.At(u, v)
			var nw int64
			switch k := rng.Intn(3); {
			case old == graph.NoEdge:
				nw = 1 + rng.Int63n(maxW)
			case k == 0 && old > 1:
				nw = 1 + rng.Int63n(old-1)
			case k == 2:
				nw = graph.NoEdge
			default:
				nw = old + 1 + rng.Int63n(maxW)
				if nw > 2*maxW {
					nw = 2 * maxW
				}
				if nw == old {
					nw = graph.NoEdge
				}
			}
			edits = append(edits, serve.WireUpdate{U: u, V: v, W: wire(nw)})
			undo = append(undo, serve.WireUpdate{U: u, V: v, W: wire(old)})
		}
		_ = cur.Apply(wireToUpdates(edits))
		fwd = append(fwd, edits)
		inv = append(inv, undo)
	}
	for b := len(inv) - 1; b >= 0; b-- {
		fwd = append(fwd, inv[b])
	}
	return fwd
}

func (w *sessionChurn) boot() (*stack, error) {
	st, err := bootStack(1, 0, false)
	if err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		ls, err := w.open(st, c)
		if err != nil {
			w.closeStack(st)
			return nil, err
		}
		w.live[c], w.mirror[c], w.pos[c] = ls, w.graphs[c].Clone(), 0
	}
	return st, nil
}

// open creates client c's session, opens its stream and reads
// generation 0, the cold solve of the original graph.
func (w *sessionChurn) open(st *stack, c int) (*liveSession, error) {
	gj, err := json.Marshal(w.graphs[c])
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.SessionCreateRequest{Graph: gj, AllDests: true, Bits: w.h[c]})
	if err != nil {
		return nil, err
	}
	resp, _, err := postJSON(st.client, st.url+"/v1/session", body)
	if err != nil {
		return nil, fmt.Errorf("session-churn: create: %w", err)
	}
	var sc serve.SessionCreated
	err = json.NewDecoder(resp.Body).Decode(&sc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		return nil, fmt.Errorf("session-churn: create: status %d (%v)", resp.StatusCode, err)
	}
	sresp, err := st.client.Get(st.url + "/v1/session/" + sc.SessionID + "/stream")
	if err != nil {
		return nil, fmt.Errorf("session-churn: stream: %w", err)
	}
	if sresp.StatusCode != http.StatusOK {
		drain(sresp)
		return nil, fmt.Errorf("session-churn: stream: status %d", sresp.StatusCode)
	}
	ls := &liveSession{id: sc.SessionID, lr: newLineReader(sresp.Body), stream: sresp.Body}
	if _, err := ls.lr.next(); err != nil {
		ls.stream.Close()
		return nil, fmt.Errorf("session-churn: stream header: %w", err)
	}
	rec := opRecord{}
	if err := w.readGeneration(ls, 0, w.origin[c], time.Now(), &rec, false); err != nil {
		ls.stream.Close()
		return nil, err
	}
	if !rec.ok {
		ls.stream.Close()
		return nil, errors.New("session-churn: generation 0 failed")
	}
	return ls, nil
}

// sessLine is any line of a session stream.
type sessLine struct {
	Seq uint64 `json:"seq"`
	serve.DestResult
	Rows   *int        `json:"rows"`
	Cost   ppa.Metrics `json:"cost"`
	Error  *string     `json:"error"`
	Closed *bool       `json:"closed"`
}

// readGeneration reads generation seq's rows and trailer, timing rows as
// they arrive, and verifies the rows against o once the trailer is in.
// A broken or erroring stream leaves rec.ok false.
func (w *sessionChurn) readGeneration(ls *liveSession, seq uint64, o *oracle, send time.Time, rec *opRecord, trace bool) error {
	var rows [][]byte
	var tr sessLine
	for {
		line, err := ls.lr.next()
		if err != nil {
			return nil
		}
		now := time.Now()
		head := line[:min(len(line), 32)]
		if bytes.HasPrefix(head, []byte(`{"seq":`)) && bytes.Contains(head, []byte(`"dest":`)) {
			if len(rows) == 0 {
				rec.firstRow = now.Sub(send)
			}
			rows = append(rows, append([]byte(nil), line...))
			if trace {
				rec.spans = append(rec.spans, span{Name: "client.row", Start: now, End: now, Parent: 0})
			}
			continue
		}
		if err := json.Unmarshal(line, &tr); err != nil || tr.Error != nil || tr.Closed != nil || tr.Rows == nil {
			return nil
		}
		break
	}
	rec.latency = time.Since(send)
	if tr.Seq != seq || *tr.Rows != o.g.N || len(rows) != o.g.N {
		return wrong("session-churn: trailer %d with %d rows (%d streamed), want generation %d", tr.Seq, *tr.Rows, len(rows), seq)
	}
	for k, line := range rows {
		var sl sessLine
		if err := json.Unmarshal(line, &sl); err != nil {
			return wrong("session-churn generation %d: row %d: %v", seq, k, err)
		}
		if sl.Seq != seq || sl.Dest != k {
			return wrong("session-churn generation %d: row %d is generation %d dest %d", seq, k, sl.Seq, sl.Dest)
		}
		if err := o.check(&sl.DestResult); err != nil {
			return wrong("session-churn generation %d: %v", seq, err)
		}
	}
	rec.ok, rec.rows, rec.cost, rec.iters = true, len(rows), tr.Cost, tr.Iterations
	return nil
}

func (w *sessionChurn) simPass(st *stack) (simTotals, error) {
	var s simTotals
	var mu sync.Mutex
	var fe firstErr
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < len(w.bodies[c]); k++ {
				rec, err := w.do(st, c, false)
				if err == nil && !rec.ok {
					err = fmt.Errorf("session-churn: warm-up generation failed")
				}
				if err != nil {
					fe.set(err)
					return
				}
				mu.Lock()
				s.add(rec.cost, rec.iters, rec.rows)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return s, fe.get()
}

func (w *sessionChurn) run(st *stack, dur time.Duration, trace bool) (*phase, error) {
	return closedLoop(clients, dur, func(c int) (opRecord, error) {
		rec, err := w.do(st, c, trace)
		if err == nil && !rec.ok {
			// The stream is out of step or gone; the client cannot go on.
			err = errStop
		}
		return rec, err
	})
}

// do posts client c's next batch and reads the generation it produces.
// The latency runs from the update POST to the generation's trailer.
func (w *sessionChurn) do(st *stack, c int, trace bool) (opRecord, error) {
	ls := w.live[c]
	p := w.pos[c] % len(w.bodies[c])
	send := time.Now()
	rec := opRecord{input: c, aux: w.pos[c], send: send}
	var err error
	resp, posted, perr := postJSON(st.client, st.url+"/v1/session/"+ls.id+"/update", w.bodies[c][p])
	if perr == nil {
		var ua serve.UpdateAccepted
		derr := json.NewDecoder(resp.Body).Decode(&ua)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && derr == nil {
			if err := w.mirror[c].Apply(w.batches[c][p]); err != nil {
				return rec, err
			}
			err = w.readGeneration(ls, ua.Seq, w.tables[c][p].on(w.mirror[c]), send, &rec, trace)
		}
	} else {
		posted = time.Now()
	}
	if !rec.ok {
		rec.latency = time.Since(send)
	} else {
		w.pos[c]++
	}
	if trace {
		end := send.Add(rec.latency)
		rec.spans = append([]span{
			{Name: "client.op", Start: send, End: end, Parent: -1},
			{Name: "client.update_post", Start: send, End: posted, Parent: 0},
			{Name: "client.rows", Start: posted, End: end, Parent: 0},
		}, rec.spans...)
	}
	return rec, err
}

func (w *sessionChurn) replay(ops []opRecord, rec *recorder) error {
	for c := 0; c < clients; c++ {
		var mine []int
		for i := range ops {
			if ops[i].ok && ops[i].input == c {
				mine = append(mine, i)
			}
		}
		if len(mine) == 0 {
			continue
		}
		budget := (w.cfg.Replay - len(rec.ops)) / (clients - c)
		if len(mine) > budget {
			mine = mine[:budget]
		}
		if err := w.replayClient(ops, mine, c, rec); err != nil {
			return err
		}
	}
	return nil
}

// replayClient replays client c's traced generations on a fresh session
// brought to the graph the first of them started from.
func (w *sessionChurn) replayClient(ops []opRecord, idx []int, c int, rec *recorder) error {
	period := len(w.bodies[c])
	p0 := ops[idx[0]].aux % period
	start := w.graphs[c].Clone()
	for _, b := range w.batches[c][:p0] {
		if err := start.Apply(b); err != nil {
			return err
		}
	}
	sess, err := core.NewSession(start, core.Options{Bits: w.h[c]})
	if err != nil {
		return err
	}
	defer sess.Close()
	dests := allDests(start.N)
	if err := sess.ResolveSweep(context.Background(), dests, func(*core.Result) error { return nil }); err != nil {
		return err
	}
	for k, i := range idx {
		pos := ops[i].aux
		if k > 0 && pos != ops[idx[k-1]].aux+1 {
			break // a gap would desynchronise the replayed graph
		}
		rec.begin(i)
		err := replayUpdate(rec, sess, dests, w.bodies[c][pos%period], uint64(pos+1))
		rec.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *sessionChurn) closeStack(st *stack) {
	for c, ls := range w.live {
		if ls == nil {
			continue
		}
		req, err := http.NewRequest(http.MethodDelete, st.url+"/v1/session/"+ls.id, bytes.NewReader(nil))
		if err == nil {
			if resp, err := st.client.Do(req); err == nil {
				drain(resp)
			}
		}
		ls.stream.Close()
		w.live[c] = nil
	}
	st.close()
}
