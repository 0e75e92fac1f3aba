package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// TestSeededLaneOracleParity pins the fused seeded lane's cold seed to the
// machine-program oracle: SolveSweep on a default session (fused lane,
// Next carried by the row scan) against sequential Solve on a
// reference-kernel session (the machine program, Next read from PTN) must
// agree in every Result field and in the full observer event stream.
// Tie-heavy complete graphs exercise the smallest tight successor choice:
// with weights 1-2 every direct edge is tight, and with weights 1-3 many
// two-hop paths tie below the direct edge. The random graphs are sparse
// enough to disconnect.
// The early exits are pinned too: hitting MaxIterations reports the
// oracle's error, and a sweep cancelled from inside yield leaves the
// session exact for the next sweep.
func TestSeededLaneOracleParity(t *testing.T) {
	families := []struct {
		name string
		gen  func(n int) *graph.Graph
	}{
		{"complete-w1", func(n int) *graph.Graph { return graph.GenComplete(n, 1, 3) }},
		{"complete-w2", func(n int) *graph.Graph { return graph.GenComplete(n, 2, 4) }},
		{"complete-w3", func(n int) *graph.Graph { return graph.GenComplete(n, 3, 5) }},
		{"random-sparse", func(n int) *graph.Graph { return graph.GenRandom(n, min(1, 1.5/float64(n)), 9, 5) }},
		{"chain", func(n int) *graph.Graph { return graph.GenChain(n, 3) }},
	}
	record := func(m *ppa.Machine) *[]ppa.Event {
		var evs []ppa.Event
		m.SetObserver(func(e ppa.Event) { evs = append(evs, e) })
		return &evs
	}
	for _, fam := range families {
		for _, n := range []int{1, 2, 9, 64} {
			for _, bits := range []uint{0, 24} {
				name := fmt.Sprintf("%s/n=%d/bits=%d", fam.name, n, bits)
				g := fam.gen(n)
				h := bits
				if h == 0 {
					h = g.BitsNeeded()
				}
				mFast, mRef := ppa.New(n, h), ppa.New(n, h)
				fastEvs, refEvs := record(mFast), record(mRef)
				fast, err := NewSessionOn(mFast, g, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref, err := NewSessionOn(mRef, g, Options{ReferenceKernels: true})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				swept := sweepAll(t, fast)
				for d := 0; d < n; d++ {
					want, err := ref.Solve(d)
					if err != nil {
						t.Fatalf("%s dest %d: oracle: %v", name, d, err)
					}
					if !reflect.DeepEqual(swept[d], want) {
						t.Fatalf("%s dest %d: fused lane and oracle diverge:\nfused  %+v\noracle %+v",
							name, d, swept[d], want)
					}
				}
				if !reflect.DeepEqual(*fastEvs, *refEvs) {
					t.Fatalf("%s: event streams diverge: %d (fused) vs %d (oracle) events",
						name, len(*fastEvs), len(*refEvs))
				}
				fast.Close()
				ref.Close()
			}
		}
	}
	t.Run("errors", seededLaneErrors)
}

// TestInScanPTNMatchesCanonicalNext pins the fused lane's in-scan PTN on
// cold rows to canonicalNext, the host rebuild warm rows use: on the
// graph families of TestSeededLaneOracleParity at n=64, each swept row's
// Next must equal the rebuild from its converged distances. The oracle
// parity above checks the in-scan PTN against the machine program; this
// keeps the rebuild itself covered on cold inputs.
func TestInScanPTNMatchesCanonicalNext(t *testing.T) {
	const n = 64
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"complete-w1", graph.GenComplete(n, 1, 3)},
		{"complete-w2", graph.GenComplete(n, 2, 4)},
		{"complete-w3", graph.GenComplete(n, 3, 5)},
		{"random-sparse", graph.GenRandom(n, 1.5/n, 9, 5)},
		{"chain", graph.GenChain(n, 3)},
	}
	for _, fam := range families {
		s, err := NewSession(fam.g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		if s.sweepMachine() == nil {
			t.Fatalf("%s: default session does not run the fused lane", fam.name)
		}
		inf := ppa.Infinity(s.m.Bits())
		rows := 0
		err = s.SolveSweep(context.Background(), allDests(n), func(r *Result) error {
			rows++
			s.canonicalNext(r.Dest, s.rs, inf)
			for i, got := range r.Next {
				if i == r.Dest || s.rs.sow[i] == inf {
					continue
				}
				if want := int(s.rs.next[i]); got != want {
					t.Fatalf("%s dest %d: in-scan Next[%d] = %d, canonicalNext %d", fam.name, r.Dest, i, got, want)
				}
			}
			return nil
		})
		if err != nil || rows != n {
			t.Fatalf("%s: sweep yielded %d rows, error %v", fam.name, rows, err)
		}
		s.Close()
	}
}

func seededLaneErrors(t *testing.T) {
	g := graph.GenChain(9, 3)
	ctx := context.Background()

	fast, err := NewSession(g, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	ref, err := NewSession(g, Options{MaxIterations: 1, ReferenceKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	sweepErr := fast.SolveSweep(ctx, []int{8}, func(*Result) error {
		t.Fatal("a non-converging sweep yielded a row")
		return nil
	})
	_, refErr := ref.Solve(8)
	if sweepErr == nil || refErr == nil || sweepErr.Error() != refErr.Error() {
		t.Fatalf("MaxIterations: fused lane error %v, oracle error %v", sweepErr, refErr)
	}

	s, err := NewSession(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cctx, cancel := context.WithCancel(ctx)
	rows := 0
	err = s.SolveSweep(cctx, []int{8, 0, 4, 2}, func(*Result) error {
		rows++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) || rows != 1 {
		t.Fatalf("cancelled sweep: %d rows, error %v; want 1 row and context.Canceled", rows, err)
	}
	oracle, err := NewSession(g, Options{ReferenceKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	swept := sweepAll(t, s)
	for d := range swept {
		want, err := oracle.Solve(d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept[d], want) {
			t.Fatalf("dest %d after a cancelled sweep: fused %+v, oracle %+v", d, swept[d], want)
		}
	}
}
