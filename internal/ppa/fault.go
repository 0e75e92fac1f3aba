package ppa

import "fmt"

// FaultKind classifies an injected switch-box fault.
type FaultKind uint8

const (
	// StuckShort forces a PE's switch box to the Short (pass-through)
	// configuration regardless of the program: the PE can no longer
	// inject onto its buses or head a cluster.
	StuckShort FaultKind = iota
	// StuckOpen forces the Open configuration: the PE always cuts its
	// rings and injects, fragmenting every bus that crosses it.
	StuckOpen
)

func (k FaultKind) String() string {
	if k == StuckShort {
		return "stuck-short"
	}
	return "stuck-open"
}

// InjectFault forces the switch box of PE pe (flat row-major index) to a
// fixed configuration for all subsequent BroadcastBits and WiredOrBits
// transactions. Shift and GlobalOrBits use separate fabric and are
// unaffected. Fault injection exists to study how silent hardware defects
// corrupt algorithm output — and to demonstrate that the independent
// optimality checker (graph.CheckResult) catches every corruption; see
// the fault-injection tests and EXPERIMENTS.md.
func (m *Machine) InjectFault(pe int, kind FaultKind) {
	if pe < 0 || pe >= m.Size() {
		panic(fmt.Sprintf("ppa: fault PE %d out of range [0,%d)", pe, m.Size()))
	}
	if m.faults == nil {
		m.faults = make(map[int]FaultKind)
	}
	m.faults[pe] = kind
}

// ClearFaults removes all injected faults.
func (m *Machine) ClearFaults() { m.faults = nil }

// Faulty reports whether any fault is currently injected.
func (m *Machine) Faulty() bool { return len(m.faults) > 0 }

// effectiveOpenBits applies the injected faults to a requested switch
// configuration, returning the configuration the damaged hardware
// actually realizes (the input is never modified; the result is a cached
// scratch Bitset valid until the next transaction).
func (m *Machine) effectiveOpenBits(open *Bitset) *Bitset {
	if len(m.faults) == 0 {
		return open
	}
	eff := m.scratch(&m.faultBits)
	eff.CopyFrom(open)
	for pe, kind := range m.faults {
		eff.SetTo(pe, kind == StuckOpen)
	}
	return eff
}

// OpKind classifies a fabric transaction for observers.
type OpKind uint8

// Fabric transaction kinds.
const (
	OpBroadcast OpKind = iota
	OpWiredOr
	OpShift
	OpGlobalOr
)

func (k OpKind) String() string {
	switch k {
	case OpBroadcast:
		return "broadcast"
	case OpWiredOr:
		return "wired-or"
	case OpShift:
		return "shift"
	case OpGlobalOr:
		return "global-or"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Event describes one fabric transaction, delivered to the observer as it
// is issued.
type Event struct {
	Op OpKind
	// Dir is the data-movement direction (meaningless for global-OR).
	Dir Direction
	// Opens is the number of Open switch boxes in the (post-fault)
	// configuration (0 for shift/global-OR).
	Opens int
}

// SetObserver installs fn to be called synchronously for every fabric
// transaction (nil to remove). Observers see the machine as the SIMD
// controller issues instructions — the hook behind trace tooling and the
// instruction-pattern tests.
func (m *Machine) SetObserver(fn func(Event)) { m.observer = fn }

// Observed reports whether an observer is attached. Without one, the
// switch configuration passed to ChargeBroadcast and ChargeWiredOr is read
// only for its length, so host drivers may skip rebuilding planes whose
// sole consumer is the event's Opens count.
func (m *Machine) Observed() bool { return m.observer != nil }

func (m *Machine) observe(op OpKind, d Direction, opens int) {
	if m.observer != nil {
		m.observer(Event{Op: op, Dir: d, Opens: opens})
	}
}

// observeOpens delivers an event for a switch-configured transaction.
// The O(n²) Open-count (a word popcount over the packed configuration)
// and the Event build are skipped entirely unless an observer is
// attached.
func (m *Machine) observeOpens(op OpKind, d Direction, open *Bitset) {
	if m.observer != nil {
		m.observer(Event{Op: op, Dir: d, Opens: open.Count()})
	}
}
