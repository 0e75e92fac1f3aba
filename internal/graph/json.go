package graph

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// graphJSON is the wire shape of a Graph: the vertex count plus a sparse
// edge list of [from, to, weight] triples. It is the JSON twin of the
// line-oriented text format (Format/Parse) and is what the solver service
// (internal/serve) accepts and the load generator emits.
type graphJSON struct {
	N     int       `json:"n"`
	Edges [][]int64 `json:"edges"`
}

// MarshalJSON encodes the graph as {"n": <count>, "edges": [[i,j,w], ...]}
// with edges in row-major order; absent edges (NoEdge) are omitted.
func (g *Graph) MarshalJSON() ([]byte, error) {
	wire := graphJSON{N: g.N, Edges: make([][]int64, 0, g.Edges())}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if wt := g.At(i, j); wt != NoEdge {
				wire.Edges = append(wire.Edges, []int64{int64(i), int64(j), wt})
			}
		}
	}
	return json.Marshal(wire)
}

// UnmarshalJSON decodes the MarshalJSON representation; it is
// DecodeJSON with no limit below MaxParseVertices.
func (g *Graph) UnmarshalJSON(data []byte) error {
	dec, err := DecodeJSON(data, MaxParseVertices)
	if err != nil {
		return err
	}
	*g = *dec
	return nil
}

// DecodeJSON decodes the MarshalJSON representation, applying the same
// admission checks as the text Parse: the vertex count must lie in
// [1, min(maxN, MaxParseVertices)], checked before the dense n^2 matrix
// is allocated (an untrusted request must not be able to demand an
// absurd allocation), vertices must be in range, and weights must be
// non-negative. As in the text format, a repeated edge keeps the last
// weight. It accepts and rejects exactly what encoding/json decoding into
// {n int; edges [][]int64} followed by those checks does, but scans the
// edge triples straight into the matrix: its allocations do not grow
// with the edge count.
func DecodeJSON(data []byte, maxN int) (*Graph, error) {
	var wire struct {
		N     int      `json:"n"`
		Edges edgeSpan `json:"edges"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		if errors.Is(err, errEdgeType) {
			return nil, err
		}
		return nil, fmt.Errorf("graph: %v", err)
	}
	n := wire.N
	switch {
	case n < 1:
		return nil, fmt.Errorf("graph: n = %d < 1", n)
	case n > maxN && maxN < MaxParseVertices:
		return nil, fmt.Errorf("graph: n = %d exceeds server limit %d", n, maxN)
	case n > MaxParseVertices:
		return nil, fmt.Errorf("graph: n = %d exceeds MaxParseVertices (%d)", n, MaxParseVertices)
	}
	w := make([]int64, n*n)
	for i := range w {
		w[i] = NoEdge
	}
	if err := scanEdges(wire.Edges, n, w); err != nil {
		return nil, err
	}
	return &Graph{N: n, W: w}, nil
}

// edgeSpan is the raw bytes of the "edges" value. encoding/json hands
// UnmarshalJSON a sub-slice of the input it is decoding, so the span
// aliases DecodeJSON's argument and is read before DecodeJSON returns.
// A repeated "edges" key replaces the span, as it would replace a
// decoded slice; the replaced span is type-checked first, because
// decoding a mistyped value into [][]int64 fails even when a later key
// overwrites it.
type edgeSpan []byte

func (e *edgeSpan) UnmarshalJSON(b []byte) error {
	if *e != nil {
		if err := scanEdges(*e, 0, nil); err != nil {
			return err
		}
	}
	*e = b
	return nil
}

var errEdgeType = errors.New("graph: edges: want an array of [from, to, weight] integer arrays")

// scanEdges walks a valid JSON edges value (or nil: no "edges" key).
// With w == nil it only checks that the value decodes into [][]int64:
// null, or an array whose elements are null or arrays of null or integer
// literals in int64 range (null decodes as 0 in a number slot and as an
// empty triple in an edge slot). With w it also stores each triple into
// the n x n matrix w, in order, failing on the first edge of the wrong
// arity, with a vertex out of range, or with a negative weight.
func scanEdges(span []byte, n int, w []int64) error {
	p := jsonScanner{b: span}
	p.ws()
	if p.i == len(span) || p.literal("null") {
		return nil
	}
	if !p.byte('[') {
		return errEdgeType
	}
	for k := 0; ; k++ {
		if p.ws(); p.byte(']') {
			return nil
		}
		if k > 0 && !p.byte(',') {
			return errEdgeType
		}
		p.ws()
		var e [3]int64
		arity := 0
		if !p.literal("null") {
			if !p.byte('[') {
				return errEdgeType
			}
			for ; ; arity++ {
				if p.ws(); p.byte(']') {
					break
				}
				if arity > 0 && !p.byte(',') {
					return errEdgeType
				}
				p.ws()
				v, ok := p.int64()
				if !ok {
					return errEdgeType
				}
				if arity < 3 {
					e[arity] = v
				}
			}
		}
		if w == nil {
			continue
		}
		if arity != 3 {
			return fmt.Errorf("graph: edge %d: want [from, to, weight], got %d elements", k, arity)
		}
		i, j, wt := e[0], e[1], e[2]
		if i < 0 || i >= int64(n) || j < 0 || j >= int64(n) {
			return fmt.Errorf("graph: edge %d: vertex out of range", k)
		}
		if wt < 0 {
			return fmt.Errorf("graph: edge %d: negative weight %d", k, wt)
		}
		w[i*int64(n)+j] = wt
	}
}

// jsonScanner reads the few JSON tokens an edge list is made of.
type jsonScanner struct {
	b []byte
	i int
}

func (p *jsonScanner) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// byte consumes c if it is next.
func (p *jsonScanner) byte(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes s if it is next.
func (p *jsonScanner) literal(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// int64 consumes a number slot as encoding/json decodes it into an
// int64: null is 0, and a number must be an integer literal in int64
// range. A fraction or exponent stops the digit run at a byte that is
// not the ',' or ']' the caller requires next, so it is rejected there.
func (p *jsonScanner) int64() (int64, bool) {
	if p.literal("null") {
		return 0, true
	}
	neg := p.byte('-')
	start := p.i
	var u uint64
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if p.i == start {
		return 0, false
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}
