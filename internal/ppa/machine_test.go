package ppa

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func words(vs ...int64) []Word {
	ws := make([]Word, len(vs))
	for i, v := range vs {
		ws[i] = Word(v)
	}
	return ws
}

// broadcastBools, wiredOrBools and globalOrBools run one transaction on
// lane sets written as []bool, packing them for the Bitset entry points,
// so tests can spell configurations out lane by lane.
func broadcastBools(m *Machine, d Direction, open []bool, src, dst []Word) {
	m.BroadcastBits(d, NewBitsetFromBools(open), src, dst)
}

func wiredOrBools(m *Machine, d Direction, open, drive, dst []bool) {
	out := NewBitset(len(dst))
	m.WiredOrBits(d, NewBitsetFromBools(open), NewBitsetFromBools(drive), out)
	out.ToBools(dst)
}

func globalOrBools(m *Machine, pred []bool) bool {
	return m.GlobalOrBits(NewBitsetFromBools(pred))
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		n int
		h uint
	}{{0, 8}, {-1, 8}, {4, 0}, {4, 63}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", c.n, c.h)
				}
			}()
			New(c.n, c.h)
		}()
	}
	m := New(5, 10)
	if m.N() != 5 || m.Size() != 25 || m.Bits() != 10 || m.Inf() != 1023 {
		t.Errorf("accessors wrong: n=%d size=%d h=%d inf=%d", m.N(), m.Size(), m.Bits(), m.Inf())
	}
}

func TestIndexRoundTrip(t *testing.T) {
	m := New(7, 8)
	for r := 0; r < 7; r++ {
		for c := 0; c < 7; c++ {
			i := m.Index(r, c)
			gr, gc := m.RowCol(i)
			if gr != r || gc != c {
				t.Fatalf("RowCol(Index(%d,%d)) = (%d,%d)", r, c, gr, gc)
			}
		}
	}
}

// TestBroadcastSingleOpenReachesAll: one Open PE per ring must deliver its
// value to every PE of the ring (torus cut-ring semantics) — this is the
// property statement 10 of the paper's algorithm depends on.
func TestBroadcastSingleOpenReachesAll(t *testing.T) {
	const n = 4
	m := New(n, 8)
	src := make([]Word, n*n)
	open := make([]bool, n*n)
	dst := make([]Word, n*n)
	// Open the PEs of row 1; broadcast South along columns.
	for c := 0; c < n; c++ {
		open[m.Index(1, c)] = true
		src[m.Index(1, c)] = Word(10 + c)
	}
	broadcastBools(m, South, open, src, dst)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if got, want := dst[m.Index(r, c)], Word(10+c); got != want {
				t.Errorf("dst[%d,%d] = %d, want %d", r, c, got, want)
			}
		}
	}
	if m.Metrics().BusCycles != 1 {
		t.Errorf("BusCycles = %d, want 1", m.Metrics().BusCycles)
	}
}

// TestBroadcastSegmentation: two Open PEs split a ring into two clusters;
// each PE must see the nearest Open strictly upstream.
func TestBroadcastSegmentation(t *testing.T) {
	const n = 6
	m := New(n, 8)
	src := make([]Word, n*n)
	open := make([]bool, n*n)
	dst := make([]Word, n*n)
	// Row 0, direction East. Opens at cols 1 and 4 with values 11 and 44.
	open[m.Index(0, 1)] = true
	src[m.Index(0, 1)] = 11
	open[m.Index(0, 4)] = true
	src[m.Index(0, 4)] = 44
	broadcastBools(m, East, open, src, dst)
	// Cols 2,3,4 read 11 (col 4 is Open: its read port hangs on the
	// upstream cluster's wire). Cols 5,0,1 read 44 (wrap).
	want := map[int]Word{2: 11, 3: 11, 4: 11, 5: 44, 0: 44, 1: 44}
	for c, w := range want {
		if got := dst[m.Index(0, c)]; got != w {
			t.Errorf("col %d: got %d, want %d", c, got, w)
		}
	}
}

func TestBroadcastFloatingRingLeavesDstUnchanged(t *testing.T) {
	const n = 3
	m := New(n, 8)
	src := make([]Word, n*n)
	open := make([]bool, n*n)
	dst := words(1, 2, 3, 4, 5, 6, 7, 8, 9)
	// Only row 0 has an open switch; rows 1 and 2 float on East broadcast.
	open[m.Index(0, 0)] = true
	src[m.Index(0, 0)] = 99
	broadcastBools(m, East, open, src, dst)
	for c := 0; c < n; c++ {
		if dst[m.Index(0, c)] != 99 {
			t.Errorf("row 0 col %d = %d, want 99", c, dst[m.Index(0, c)])
		}
	}
	for r := 1; r < n; r++ {
		for c := 0; c < n; c++ {
			if got, orig := dst[m.Index(r, c)], Word(r*n+c+1); got != orig {
				t.Errorf("floating ring row %d modified: col %d = %d, want %d", r, c, got, orig)
			}
		}
	}
}

func TestBroadcastAllDirections(t *testing.T) {
	const n = 5
	for _, d := range []Direction{North, East, South, West} {
		m := New(n, 16)
		src := make([]Word, n*n)
		open := make([]bool, n*n)
		dst := make([]Word, n*n)
		// Open the main diagonal; every ring then has exactly one head.
		for i := 0; i < n; i++ {
			open[m.Index(i, i)] = true
			src[m.Index(i, i)] = Word(100 + i)
		}
		broadcastBools(m, d, open, src, dst)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				want := Word(100 + r) // rows: head at (r,r)
				if !d.Horizontal() {
					want = Word(100 + c) // columns: head at (c,c)
				}
				if got := dst[m.Index(r, c)]; got != want {
					t.Errorf("%v: dst[%d,%d] = %d, want %d", d, r, c, got, want)
				}
			}
		}
	}
}

func TestBroadcastInPlaceAliasing(t *testing.T) {
	const n = 4
	m := New(n, 8)
	v := make([]Word, n*n)
	open := make([]bool, n*n)
	for c := 0; c < n; c++ {
		open[m.Index(2, c)] = true
		v[m.Index(2, c)] = Word(20 + c)
	}
	broadcastBools(m, South, open, v, v) // dst aliases src
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if got, want := v[m.Index(r, c)], Word(20+c); got != want {
				t.Errorf("aliased dst[%d,%d] = %d, want %d", r, c, got, want)
			}
		}
	}
}

// broadcastRef is an obviously-correct reference: for each PE walk
// upstream until an Open PE is found.
func broadcastRef(m *Machine, d Direction, open []bool, src, dst []Word) {
	n := m.N()
	out := append([]Word(nil), dst...)
	for i := 0; i < n; i++ {
		rg := m.ringFor(d, i)
		for k := 0; k < n; k++ {
			for back := 1; back <= n; back++ {
				j := ((k-back)%n + n) % n
				if open[rg.base+j*rg.stride] {
					out[rg.base+k*rg.stride] = src[rg.base+j*rg.stride]
					break
				}
			}
		}
	}
	copy(dst, out)
}

func TestBroadcastAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		m := New(n, 12)
		src := make([]Word, n*n)
		open := make([]bool, n*n)
		got := make([]Word, n*n)
		want := make([]Word, n*n)
		for i := range src {
			src[i] = Word(rng.Intn(1 << 12))
			open[i] = rng.Intn(3) == 0
			got[i] = Word(rng.Intn(1 << 12))
			want[i] = got[i]
		}
		d := Direction(rng.Intn(4))
		broadcastBools(m, d, open, src, got)
		broadcastRef(m, d, open, src, want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d n=%d d=%v:\nopen=%v\nsrc=%v\ngot=%v\nwant=%v", trial, n, d, open, src, got, want)
		}
	}
}

// wiredOrRef is a reference implementation over explicit cluster sets.
func wiredOrRef(m *Machine, d Direction, open, drive, dst []bool) {
	n := m.N()
	for i := 0; i < n; i++ {
		rg := m.ringFor(d, i)
		heads := []int{}
		for k := 0; k < n; k++ {
			if open[rg.base+k*rg.stride] {
				heads = append(heads, k)
			}
		}
		if len(heads) == 0 {
			or := false
			for k := 0; k < n; k++ {
				or = or || drive[rg.base+k*rg.stride]
			}
			for k := 0; k < n; k++ {
				dst[rg.base+k*rg.stride] = or
			}
			continue
		}
		for hi, h := range heads {
			next := heads[(hi+1)%len(heads)]
			segLen := ((next-h)%n + n) % n
			if segLen == 0 {
				segLen = n
			}
			or := false
			for t := 0; t < segLen; t++ {
				or = or || drive[rg.base+((h+t)%n)*rg.stride]
			}
			for t := 0; t < segLen; t++ {
				dst[rg.base+((h+t)%n)*rg.stride] = or
			}
		}
	}
}

func TestWiredOrAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		m := New(n, 8)
		open := make([]bool, n*n)
		drive := make([]bool, n*n)
		got := make([]bool, n*n)
		want := make([]bool, n*n)
		for i := range open {
			open[i] = rng.Intn(4) == 0
			drive[i] = rng.Intn(3) == 0
		}
		d := Direction(rng.Intn(4))
		wiredOrBools(m, d, open, drive, got)
		wiredOrRef(m, d, open, drive, want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d n=%d d=%v:\nopen=%v\ndrive=%v\ngot=%v\nwant=%v", trial, n, d, open, drive, got, want)
		}
	}
}

func TestWiredOrSingleCluster(t *testing.T) {
	const n = 4
	m := New(n, 8)
	open := make([]bool, n*n)
	drive := make([]bool, n*n)
	dst := make([]bool, n*n)
	// Head at col n-1 of every row (the min() configuration), direction West.
	for r := 0; r < n; r++ {
		open[m.Index(r, n-1)] = true
	}
	drive[m.Index(2, 0)] = true // one driver in row 2
	wiredOrBools(m, West, open, drive, dst)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			want := r == 2
			if dst[m.Index(r, c)] != want {
				t.Errorf("dst[%d,%d] = %v, want %v", r, c, dst[m.Index(r, c)], want)
			}
		}
	}
	if m.Metrics().WiredOrCycles != 1 {
		t.Errorf("WiredOrCycles = %d, want 1", m.Metrics().WiredOrCycles)
	}
}

func TestShift(t *testing.T) {
	const n = 3
	m := New(n, 8)
	src := words(
		1, 2, 3,
		4, 5, 6,
		7, 8, 9)
	dst := make([]Word, n*n)
	m.Shift(East, src, dst)
	want := words(
		3, 1, 2,
		6, 4, 5,
		9, 7, 8)
	if !reflect.DeepEqual(dst, want) {
		t.Errorf("Shift East = %v, want %v", dst, want)
	}
	m.Shift(South, src, dst)
	want = words(
		7, 8, 9,
		1, 2, 3,
		4, 5, 6)
	if !reflect.DeepEqual(dst, want) {
		t.Errorf("Shift South = %v, want %v", dst, want)
	}
	if m.Metrics().ShiftSteps != 2 {
		t.Errorf("ShiftSteps = %d, want 2", m.Metrics().ShiftSteps)
	}
}

func TestShiftRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		m := New(n, 16)
		src := make([]Word, n*n)
		for i := range src {
			src[i] = Word(rng.Intn(1 << 16))
		}
		v := append([]Word(nil), src...)
		// A shift followed by its opposite is the identity.
		for _, d := range []Direction{North, East, South, West} {
			m.Shift(d, v, v)
			m.Shift(d.Opposite(), v, v)
		}
		// n shifts in the same direction wrap to the identity.
		for k := 0; k < n; k++ {
			m.Shift(West, v, v)
		}
		return reflect.DeepEqual(v, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGlobalOr(t *testing.T) {
	const n = 4
	m := New(n, 8)
	pred := make([]bool, n*n)
	if globalOrBools(m, pred) {
		t.Error("GlobalOr of all-false = true")
	}
	pred[7] = true
	if !globalOrBools(m, pred) {
		t.Error("GlobalOr with one true = false")
	}
	if m.Metrics().GlobalOrOps != 2 {
		t.Errorf("GlobalOrOps = %d, want 2", m.Metrics().GlobalOrOps)
	}
}

// TestWorkersDeterminism: any worker count must produce bit-identical
// results to the serial machine.
func TestWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(16)
		src := make([]Word, n*n)
		open := make([]bool, n*n)
		drive := make([]bool, n*n)
		for i := range src {
			src[i] = Word(rng.Intn(256))
			open[i] = rng.Intn(4) == 0
			drive[i] = rng.Intn(2) == 0
		}
		d := Direction(rng.Intn(4))

		run := func(workers int) ([]Word, []bool, Metrics) {
			m := New(n, 8, WithWorkers(workers))
			w := make([]Word, n*n)
			b := make([]bool, n*n)
			broadcastBools(m, d, open, src, w)
			wiredOrBools(m, d, open, drive, b)
			m.Shift(d, w, w)
			return w, b, m.Metrics()
		}
		w1, b1, m1 := run(1)
		for _, workers := range []int{2, 4, 9} {
			wk, bk, mk := run(workers)
			if !reflect.DeepEqual(w1, wk) || !reflect.DeepEqual(b1, bk) || m1 != mk {
				t.Fatalf("workers=%d diverged from serial (n=%d, d=%v)", workers, n, d)
			}
		}
	}
}

func TestLengthValidationPanics(t *testing.T) {
	m := New(4, 8)
	short := make([]Word, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("Broadcast with short slice did not panic")
		}
	}()
	broadcastBools(m, East, make([]bool, 16), short, make([]Word, 16))
}

func TestMetricsAccounting(t *testing.T) {
	m := New(4, 8)
	src := make([]Word, 16)
	open := make([]bool, 16)
	open[0] = true
	b := make([]bool, 16)
	broadcastBools(m, East, open, src, src)
	wiredOrBools(m, East, open, b, b)
	m.Shift(North, src, src)
	globalOrBools(m, b)
	m.CountPE(16)
	m.CountInstr()
	got := m.Metrics()
	want := Metrics{BusCycles: 1, WiredOrCycles: 1, ShiftSteps: 1, GlobalOrOps: 1, PEOps: 16, Instructions: 1}
	if got != want {
		t.Errorf("metrics = %+v, want %+v", got, want)
	}
	if got.CommCycles() != 4 {
		t.Errorf("CommCycles = %d, want 4", got.CommCycles())
	}
	m.ResetMetrics()
	if m.Metrics() != (Metrics{}) {
		t.Error("ResetMetrics did not zero metrics")
	}
}

func TestMetricsAddSubString(t *testing.T) {
	a := Metrics{BusCycles: 1, WiredOrCycles: 2, ShiftSteps: 3, RouterCycles: 4, GlobalOrOps: 5, PEOps: 6, Instructions: 7}
	b := Metrics{BusCycles: 10, WiredOrCycles: 20, ShiftSteps: 30, RouterCycles: 40, GlobalOrOps: 50, PEOps: 60, Instructions: 70}
	sum := a.Add(b)
	if sum.Sub(b) != a || sum.Sub(a) != b {
		t.Error("Add/Sub not inverse")
	}
	if sum.CommCycles() != 11+22+33+44+55 {
		t.Errorf("CommCycles = %d", sum.CommCycles())
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

// TestChargeBroadcastMatchesBroadcastBits pins the shadow-charge contract
// of ChargeBroadcast: metrics deltas and observer events identical to a
// real BroadcastBits with the same configuration, on healthy and faulty
// machines alike — only the data movement is absent.
func TestChargeBroadcastMatchesBroadcastBits(t *testing.T) {
	const n = 6
	open := NewBitset(n * n)
	open.FillRange(2*n, 2*n+n, true)
	for _, faulty := range []bool{false, true} {
		real := New(n, 4)
		shadow := New(n, 4)
		if faulty {
			real.InjectFault(3, StuckOpen)
			shadow.InjectFault(3, StuckOpen)
		}
		var realEvs, shadowEvs []Event
		real.SetObserver(func(e Event) { realEvs = append(realEvs, e) })
		shadow.SetObserver(func(e Event) { shadowEvs = append(shadowEvs, e) })
		src := make([]Word, n*n)
		dst := make([]Word, n*n)
		for _, d := range []Direction{East, West, North, South} {
			real.BroadcastBits(d, open, src, dst)
			shadow.ChargeBroadcast(d, open)
		}
		if real.Metrics() != shadow.Metrics() {
			t.Fatalf("faulty=%v: metrics diverge: real %v, shadow %v",
				faulty, real.Metrics(), shadow.Metrics())
		}
		if len(realEvs) != len(shadowEvs) {
			t.Fatalf("faulty=%v: event counts diverge", faulty)
		}
		for i := range realEvs {
			if realEvs[i] != shadowEvs[i] {
				t.Fatalf("faulty=%v event %d: real %+v, shadow %+v",
					faulty, i, realEvs[i], shadowEvs[i])
			}
		}
	}
}

// TestChargeWiredOrMatchesWiredOrBits pins the same shadow-charge
// contract for the wired-OR counterpart used by core's warm re-solve.
func TestChargeWiredOrMatchesWiredOrBits(t *testing.T) {
	const n = 6
	open := NewBitset(n * n)
	for i := 0; i < n; i++ {
		open.Set(i*n + (n - 1))
	}
	for _, faulty := range []bool{false, true} {
		real := New(n, 4)
		shadow := New(n, 4)
		if faulty {
			real.InjectFault(3, StuckOpen)
			shadow.InjectFault(3, StuckOpen)
		}
		var realEvs, shadowEvs []Event
		real.SetObserver(func(e Event) { realEvs = append(realEvs, e) })
		shadow.SetObserver(func(e Event) { shadowEvs = append(shadowEvs, e) })
		drive := NewBitset(n * n)
		dst := NewBitset(n * n)
		for _, d := range []Direction{East, West, North, South} {
			real.WiredOrBits(d, open, drive, dst)
			shadow.ChargeWiredOr(d, open)
		}
		if real.Metrics() != shadow.Metrics() {
			t.Fatalf("faulty=%v: metrics diverge: real %v, shadow %v",
				faulty, real.Metrics(), shadow.Metrics())
		}
		if len(realEvs) != len(shadowEvs) {
			t.Fatalf("faulty=%v: event counts diverge", faulty)
		}
		for i := range realEvs {
			if realEvs[i] != shadowEvs[i] {
				t.Fatalf("faulty=%v event %d: real %+v, shadow %+v",
					faulty, i, realEvs[i], shadowEvs[i])
			}
		}
	}
}
