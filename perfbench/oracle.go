package main

import (
	"fmt"

	"ppamcp/internal/graph"
	"ppamcp/internal/serve"
)

// oracle holds the expected distances for one graph, computed before any
// timing starts. Every row the serving stack delivers is checked against
// it: the distances must equal the reference exactly, and every next hop
// must be an edge that is tight under them. With edge weights of at
// least 1 a tight hop strictly lowers the distance, so following Next
// from any vertex reaches the destination along a path whose cost is the
// reference distance — the guarantee graph.CheckResult certifies, at
// O(n) per row instead of O(n^2).
type oracle struct {
	g    *graph.Graph
	dist []int32 // dist[i*n+d]: cost from i to d, -1 when unreachable
	have []bool  // destinations with a computed column
}

// newOracle precomputes Bellman-Ford rows for dests (every destination
// when dests is nil).
func newOracle(g *graph.Graph, dests []int) (*oracle, error) {
	n := g.N
	o := &oracle{g: g, dist: make([]int32, n*n), have: make([]bool, n)}
	if dests == nil {
		dests = allDests(n)
	}
	for _, d := range dests {
		if o.have[d] {
			continue
		}
		r, err := graph.BellmanFord(g, d)
		if err != nil {
			return nil, err
		}
		for i, v := range r.Dist {
			o.dist[i*n+d] = wireDist(v)
		}
		o.have[d] = true
	}
	return o, nil
}

// tableOracle precomputes every destination's distances at once with
// graph.FloydWarshall, the sequential all-pairs reference; the session
// workload needs a whole table per position of its edit sequence.
func tableOracle(g *graph.Graph) *oracle {
	n := g.N
	o := &oracle{g: g, dist: make([]int32, n*n), have: make([]bool, n)}
	for k, v := range graph.FloydWarshall(g) {
		o.dist[k] = wireDist(v)
	}
	for d := range o.have {
		o.have[d] = true
	}
	return o
}

// on returns the oracle checking against graph g, which must have the
// same distances (a session mirror at the oracle's edit position).
func (o *oracle) on(g *graph.Graph) *oracle {
	c := *o
	c.g = g
	return &c
}

func wireDist(v int64) int32 {
	if v == graph.NoEdge {
		return -1
	}
	return int32(v)
}

// check verifies one delivered row.
func (o *oracle) check(dr *serve.DestResult) error {
	n, d := o.g.N, dr.Dest
	if d < 0 || d >= n || !o.have[d] {
		return fmt.Errorf("oracle: unexpected dest %d", d)
	}
	if len(dr.Dist) != n || len(dr.Next) != n {
		return fmt.Errorf("oracle: dest %d: row has %d dists, %d nexts for n=%d", d, len(dr.Dist), len(dr.Next), n)
	}
	for i, v := range dr.Dist {
		if want := int64(o.dist[i*n+d]); v != want {
			return fmt.Errorf("oracle: dest %d: dist[%d] = %d, reference says %d", d, i, v, want)
		}
	}
	for i, nx := range dr.Next {
		if i == d || dr.Dist[i] < 0 {
			if nx != -1 {
				return fmt.Errorf("oracle: dest %d: vertex %d has next %d, want -1", d, i, nx)
			}
			continue
		}
		if nx < 0 || nx >= n {
			return fmt.Errorf("oracle: dest %d: vertex %d has next %d", d, i, nx)
		}
		if w := o.g.At(i, nx); w == graph.NoEdge || w < 1 || dr.Dist[nx] < 0 || w+dr.Dist[nx] != dr.Dist[i] {
			return fmt.Errorf("oracle: dest %d: hop %d->%d is not a tight edge", d, i, nx)
		}
	}
	return nil
}

// checkRows verifies a response's rows against the requested dests, in
// order.
func (o *oracle) checkRows(rows []serve.DestResult, dests []int) error {
	if len(rows) != len(dests) {
		return fmt.Errorf("oracle: %d rows for %d dests", len(rows), len(dests))
	}
	for k := range rows {
		if rows[k].Dest != dests[k] {
			return fmt.Errorf("oracle: row %d is dest %d, want %d", k, rows[k].Dest, dests[k])
		}
		if err := o.check(&rows[k]); err != nil {
			return err
		}
	}
	return nil
}

func allDests(n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = i
	}
	return d
}
