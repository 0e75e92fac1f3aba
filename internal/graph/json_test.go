package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// referenceDecodeJSON is the reflection decoder DecodeJSON replaced, kept
// as its oracle: a header probe against maxN, then encoding/json into
// graphJSON ({n int; edges [][]int64}) and the admission checks.
func referenceDecodeJSON(data []byte, maxN int) (*Graph, error) {
	var probe struct {
		N int `json:"n"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("graph: %v", err)
	}
	if probe.N > maxN {
		return nil, fmt.Errorf("graph: n = %d exceeds server limit %d", probe.N, maxN)
	}
	var wire graphJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("graph: %v", err)
	}
	if wire.N < 1 {
		return nil, fmt.Errorf("graph: n = %d < 1", wire.N)
	}
	if wire.N > MaxParseVertices {
		return nil, fmt.Errorf("graph: n = %d exceeds MaxParseVertices (%d)", wire.N, MaxParseVertices)
	}
	n := wire.N
	w := make([]int64, n*n)
	for i := range w {
		w[i] = NoEdge
	}
	for k, e := range wire.Edges {
		if len(e) != 3 {
			return nil, fmt.Errorf("graph: edge %d: want [from, to, weight], got %d elements", k, len(e))
		}
		i, j, wt := e[0], e[1], e[2]
		if i < 0 || i >= int64(n) || j < 0 || j >= int64(n) {
			return nil, fmt.Errorf("graph: edge %d: vertex out of range", k)
		}
		if wt < 0 {
			return nil, fmt.Errorf("graph: edge %d: negative weight %d", k, wt)
		}
		w[i*int64(n)+j] = wt
	}
	return &Graph{N: n, W: w}, nil
}

func graphsEqual(a, b *Graph) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			return false
		}
	}
	return true
}

// TestJSONRoundTripAgainstText is the property test for the wire codec:
// for random graphs, JSON marshal -> unmarshal and text Format -> Parse
// must both reproduce the graph exactly, so the two formats are
// interchangeable descriptions of the same object.
func TestJSONRoundTripAgainstText(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		g := GenRandom(n, rng.Float64(), 1+rng.Int63n(50), rng.Int63())
		// Sprinkle in the edge cases the generator avoids: zero-weight
		// edges and self-loops.
		if n > 1 {
			g.SetEdge(rng.Intn(n), rng.Intn(n), 0)
		}
		g.SetEdge(rng.Intn(n), rng.Intn(n), 7)

		data, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var fromJSON Graph
		if err := json.Unmarshal(data, &fromJSON); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if !graphsEqual(g, &fromJSON) {
			t.Fatalf("trial %d: JSON round trip diverged", trial)
		}

		var buf bytes.Buffer
		if err := g.Format(&buf); err != nil {
			t.Fatal(err)
		}
		fromText, err := Parse(&buf)
		if err != nil {
			t.Fatalf("trial %d: parse: %v", trial, err)
		}
		if !graphsEqual(&fromJSON, fromText) {
			t.Fatalf("trial %d: JSON and text decodings disagree", trial)
		}
	}
}

func TestJSONMarshalShape(t *testing.T) {
	g := New(3)
	g.SetEdge(0, 1, 5)
	g.SetEdge(2, 0, 0)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"n":3,"edges":[[0,1,5],[2,0,0]]}`
	if string(data) != want {
		t.Errorf("marshal = %s, want %s", data, want)
	}
	// Edgeless graph keeps an explicit empty list, not null.
	data, err = json.Marshal(New(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"n":1,"edges":[]}` {
		t.Errorf("edgeless marshal = %s", data)
	}
}

func TestJSONUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"negative weight", `{"n":2,"edges":[[0,1,-3]]}`, "negative weight"},
		{"from out of range", `{"n":2,"edges":[[2,1,3]]}`, "out of range"},
		{"to out of range", `{"n":2,"edges":[[0,5,3]]}`, "out of range"},
		{"negative vertex", `{"n":2,"edges":[[-1,0,3]]}`, "out of range"},
		{"zero n", `{"n":0,"edges":[]}`, "n = 0 < 1"},
		{"missing n", `{"edges":[[0,0,1]]}`, "n = 0 < 1"},
		{"huge n", `{"n":99999999,"edges":[]}`, "MaxParseVertices"},
		{"bad arity", `{"n":2,"edges":[[0,1]]}`, "want [from, to, weight]"},
		{"not json", `{{`, "invalid character"},
	}
	for _, c := range cases {
		var g Graph
		err := json.Unmarshal([]byte(c.in), &g)
		if err == nil {
			t.Errorf("%s: accepted %s", c.name, c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestJSONUnmarshalLastEdgeWins(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"n":2,"edges":[[0,1,5],[0,1,9]]}`), &g); err != nil {
		t.Fatal(err)
	}
	if g.At(0, 1) != 9 {
		t.Errorf("duplicate edge: At(0,1) = %d, want 9 (last wins, as in the text format)", g.At(0, 1))
	}
}

// graphJSONSeeds are inputs on the edges of encoding/json's semantics
// that DecodeJSON must reproduce: key case folding, repeated keys, null
// in every slot, non-integer and out-of-range numbers, mistyped values
// (including one a later key overwrites), arity, trailing data.
var graphJSONSeeds = []string{
	`{"n":3,"edges":[[0,1,5],[1,2,7]]}`,
	`{"n":1,"edges":[]}`,
	`{"n":1}`,
	` { "edges" : [ [ 0 , 1 , 2 ] ] , "n" : 2 } `,
	`{"N":2,"EDGES":[[0,1,2]]}`,
	`{"n":2,"edgeſ":[[0,1,3]]}`,
	`{"\u006e":2,"edges":[[1,0,4]]}`,
	`{"n":2,"edges":[[0,1,5],[0,1,9]]}`,
	`{"n":2,"edges":[[0,1,5]],"edges":[[1,0,6]]}`,
	`{"n":2,"edges":[["x"]],"edges":[]}`,
	`{"n":2,"edges":[[0,1]],"edges":[]}`,
	`{"n":2,"edges":[[0,1,2]],"n":null}`,
	`{"n":null,"edges":[]}`,
	`{"n":2,"edges":null}`,
	`{"n":2,"edges":[null]}`,
	`{"n":2,"edges":[[0,null,5]]}`,
	`{"n":2,"edges":[[0,1,2,3]]}`,
	`{"n":2,"edges":[[-0,1,9223372036854775807]]}`,
	`{"n":2,"edges":[[0,1,9223372036854775808]]}`,
	`{"n":2,"edges":[[0,1,-9223372036854775808]]}`,
	`{"n":2,"edges":[[0,1,1e2]]}`,
	`{"n":2,"edges":[[0,1,1.0]]}`,
	`{"n":2.5,"edges":[]}`,
	`{"n":"2","edges":[]}`,
	`{"n":2,"edges":{}}`,
	`{"n":2,"edges":"x"}`,
	`{"n":2,"edges":[5]}`,
	`{"n":2,"edges":[[0,1,true]]}`,
	`{"n":2,"edges":[[0,1,[2]]]}`,
	`{"n":2,"edges":[[0,1,-3]]}`,
	`{"n":2,"edges":[[2,1,3]]}`,
	`{"n":99999999,"edges":[]}`,
	`{"n":2,"edges":[]} trailing`,
	`{"n":2,"other":{"edges":[["x"]]},"edges":[]}`,
	`null`,
	`[]`,
	`7`,
	`{{`,
}

// FuzzGraphJSON is the differential check of DecodeJSON against the
// reflection oracle: on any input and limit the two must agree on
// accept/reject and, on accept, produce the same Graph. The limit stays
// small, so an accepted n never allocates more than a small matrix.
func FuzzGraphJSON(f *testing.F) {
	for i, s := range graphJSONSeeds {
		f.Add([]byte(s), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, lim uint8) {
		maxN := 1 + int(lim)%64
		got, gotErr := DecodeJSON(data, maxN)
		want, wantErr := referenceDecodeJSON(data, maxN)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("maxN %d, input %q: DecodeJSON error %v, reference error %v", maxN, data, gotErr, wantErr)
		}
		if gotErr == nil && !graphsEqual(got, want) {
			t.Fatalf("maxN %d, input %q: DecodeJSON and the reference decode different graphs", maxN, data)
		}
	})
}

// TestDecodeJSONAgreesOnSeeds runs the differential check on the fuzz
// seeds at the limit Graph.UnmarshalJSON uses, MaxParseVertices (the
// fuzzer keeps maxN small), and pins the error substrings callers match
// on.
func TestDecodeJSONAgreesOnSeeds(t *testing.T) {
	for _, s := range graphJSONSeeds {
		got, gotErr := DecodeJSON([]byte(s), MaxParseVertices)
		want, wantErr := referenceDecodeJSON([]byte(s), MaxParseVertices)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("input %s: DecodeJSON error %v, reference error %v", s, gotErr, wantErr)
		}
		if gotErr == nil && !graphsEqual(got, want) {
			t.Fatalf("input %s: graphs differ", s)
		}
	}
	for _, c := range []struct {
		in      string
		maxN    int
		wantErr string
	}{
		{`{"n":65,"edges":[]}`, 64, "exceeds server limit 64"},
		{`{"n":99999999,"edges":[]}`, MaxParseVertices, "exceeds MaxParseVertices"},
		{`{"n":2,"edges":[[0,1,"x"]]}`, 64, "graph: edges:"},
		{`{"n":2,"edges":[[0,1]]}`, 64, "edge 0: want [from, to, weight], got 2 elements"},
	} {
		_, err := DecodeJSON([]byte(c.in), c.maxN)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("DecodeJSON(%s, %d) = %v, want substring %q", c.in, c.maxN, err, c.wantErr)
		}
	}
}

// TestDecodeJSONAllocsIndependentOfEdges pins the decoder's allocation
// contract: decoding an n=64 graph costs the same number of allocations
// whether it has a handful of edges or all n^2 - n of them.
func TestDecodeJSONAllocsIndependentOfEdges(t *testing.T) {
	sparse, err := json.Marshal(GenRandom(64, 0.02, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := json.Marshal(GenComplete(64, 9, 2))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeJSON(data, 64); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(sparse), allocs(dense); a != b {
		t.Fatalf("DecodeJSON allocates %.0f objects for a sparse n=64 graph (%d bytes) but %.0f for a dense one (%d bytes)",
			a, len(sparse), b, len(dense))
	}
}
