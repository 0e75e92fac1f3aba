package ppa

// Fabric is the communication-fabric contract the programming layers
// build on: an n x n array addressed in row-major order with segmented
// broadcast buses, a wired-OR bus mode, nearest-neighbour shifts and a
// global-OR line, all charged to a Metrics accumulator.
//
// Every bus transaction takes one switch configuration — the per-PE
// Open/Short setting of the paper's Figure 1b — as a packed Bitset (64
// lanes per machine word), the allocation-free representation the
// programming layers keep all parallel logicals in. Word operands travel
// as flat row-major []Word slices.
//
// Machine implements it directly; virt.Machine implements it by
// simulating a large logical array on a smaller physical Machine
// (block mapping), which is how the paper's one-element-per-PE assumption
// is lifted without changing any algorithm code.
type Fabric interface {
	// N is the (logical) array side; arrays passed to the ops have N*N
	// elements.
	N() int
	// Bits is the word width h.
	Bits() uint
	// Inf is the MAXINT sentinel, 2^h - 1.
	Inf() Word
	// BroadcastBits performs one segmented-bus transaction (see
	// Machine.BroadcastBits for the exact cut-ring semantics).
	BroadcastBits(d Direction, open *Bitset, src, dst []Word)
	// WiredOrBits performs one 1-bit wired-OR bus transaction (see
	// Machine.WiredOrBits for the cluster semantics).
	WiredOrBits(d Direction, open, drive, dst *Bitset)
	// Shift moves every word one PE in direction d with wrap-around.
	Shift(d Direction, src, dst []Word)
	// GlobalOrBits reports whether pred holds anywhere.
	GlobalOrBits(pred *Bitset) bool
	// CountPE charges local ALU operations; CountInstr one SIMD
	// instruction.
	CountPE(ops int64)
	CountInstr()
	// Metrics returns the accumulated cost; ResetMetrics zeroes it.
	Metrics() Metrics
	ResetMetrics()
}

// Machine satisfies Fabric.
var _ Fabric = (*Machine)(nil)
