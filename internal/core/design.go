// Package core implements the paper's primary contribution: DRAM cache
// controllers that schedule the multiple DRAM accesses a DRAM-cache
// request expands into.
//
// Three designs are provided (paper §III–§IV):
//
//   - CD, the Conventional Design: accesses are queued by access type
//     (reads to the read queue, writes to the write queue) exactly as in a
//     conventional DRAM memory controller. CD minimises bus turnarounds
//     but suffers read priority inversion and read-read conflicts because
//     tag reads of writeback requests share the read queue with the
//     latency-critical reads of cache read requests.
//
//   - ROD, the Request-Oriented Design: accesses are queued by request
//     type (all accesses of a read request to the read queue; all accesses
//     of writeback/refill requests to the write queue, with the write-tag
//     of a read request also going to the write queue). ROD avoids
//     priority inversion but mixes reads and writes inside each queue, so
//     it pays frequent bus turnarounds and longer write-queue flushes.
//
//   - DCA, the DRAM-Cache-Aware design: CD's queue mapping plus a
//     two-level read classification. Reads from cache read requests are
//     priority reads (PR); reads from writeback/refill requests are
//     low-priority reads (LR). LRs are held like writes and drained either
//     when read-queue occupancy crosses a hysteresis threshold
//     (ScheduleAll, on >85 % / off <75 %) or opportunistically (OFS) when
//     no PR is pending and the LR's bank shows no row conflict or has a
//     re-reference prediction counter (RRPC) below the flushing factor.
//
// The three designs are a fixed table of DesignSpecs carrying their
// classification hooks. The scheduling algorithm within a priority class
// is resolved by name against the policy registry in
// dcasim/internal/sched (RegisterPolicy): the paper's BLISS, FR-FCFS and
// FCFS are registered in sched's init, and additional policies (e.g.
// dcasim/internal/sched/atlas) register themselves when imported.
package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"dcasim/internal/dram"
	"dcasim/internal/sched"
)

// Design selects a controller organisation: one of the paper's three
// designs, each an index into the designs table.
type Design int

// The paper's controller designs.
const (
	CD Design = iota
	ROD
	DCA
)

// DesignSpec carries a design's identity and the classification hooks
// the controller consults, so the controller has no per-design switch
// statements.
type DesignSpec struct {
	// Name is the canonical spelling (the Config.Design JSON value),
	// matched case-insensitively on parse.
	Name string

	// RouteToWrite decides whether an access of the given DRAM kind,
	// belonging to a request of the given type, enters the write queue
	// (otherwise it is a read-queue resident). This is the queue-mapping
	// half of a design (paper Fig. 3 and Fig. 6).
	RouteToWrite func(kind dram.Kind, req RequestType) bool

	// TwoLevel enables DCA's two-level read classification: PR/LR lanes,
	// the ScheduleAll occupancy hysteresis, and opportunistic flushing
	// (OFS). Without it every read schedules equally.
	TwoLevel bool

	// Architected queue capacities for DefaultConfig; zero means the
	// Table II default of 64.
	ReadQueueCap  int
	WriteQueueCap int
}

// designs is the table of the paper's designs, indexed by Design value.
var designs = [...]DesignSpec{
	CD: {
		Name:         "CD",
		RouteToWrite: routeByAccessType,
	},
	ROD: {
		Name:         "ROD",
		RouteToWrite: routeByRequestType,
		// Table II: ROD narrows the read queue and widens the write
		// queue because whole requests land on one side.
		ReadQueueCap:  32,
		WriteQueueCap: 96,
	},
	DCA: {
		Name:         "DCA",
		RouteToWrite: routeByAccessType,
		TwoLevel:     true,
	},
}

// routeByAccessType is the CD/DCA queue mapping: writes to the write
// queue, reads to the read queue, regardless of the owning request.
func routeByAccessType(kind dram.Kind, _ RequestType) bool {
	return kind.IsWrite()
}

// routeByRequestType is the ROD mapping: every access follows its
// request, except the write-tag of a read request, which the paper's
// footnote sends to the write queue for performance.
func routeByRequestType(kind dram.Kind, req RequestType) bool {
	switch req {
	case ReadReq:
		return kind.IsWrite()
	case WritebackReq, RefillReq:
		return true
	default:
		panic(fmt.Sprintf("core: routeByRequestType: unknown request type %d", int(req)))
	}
}

// Designs returns the paper's designs in table order: CD, ROD, DCA.
func Designs() []Design { return []Design{CD, ROD, DCA} }

// Spec returns the design's table entry, or an error for a value outside
// the table.
func (d Design) Spec() (DesignSpec, error) {
	if d < 0 || int(d) >= len(designs) {
		return DesignSpec{}, fmt.Errorf("core: unknown design %d (known: %s)", int(d), designNames())
	}
	return designs[d], nil
}

func designNames() string {
	names := make([]string, len(designs))
	for i := range designs {
		names[i] = designs[i].Name
	}
	return strings.Join(names, ", ")
}

// String implements fmt.Stringer via the designs table.
func (d Design) String() string {
	if spec, err := d.Spec(); err == nil {
		return spec.Name
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// ParseDesign resolves a design name (case-insensitively).
func ParseDesign(s string) (Design, error) {
	for i := range designs {
		if strings.EqualFold(s, designs[i].Name) {
			return Design(i), nil
		}
	}
	return CD, fmt.Errorf("core: unknown design %q (known: %s)", s, designNames())
}

// MarshalJSON encodes the design as its canonical name so serialized
// configurations read "DCA" rather than an opaque enum ordinal.
func (d Design) MarshalJSON() ([]byte, error) {
	spec, err := d.Spec()
	if err != nil {
		return nil, fmt.Errorf("core: cannot marshal unknown design %d", int(d))
	}
	return quoteName(spec.Name), nil
}

// UnmarshalJSON accepts the same names ParseDesign does.
func (d *Design) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("core: design must be a JSON string: %s", b)
	}
	v, err := ParseDesign(s)
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// RequestType classifies the DRAM-cache request an access belongs to.
type RequestType uint8

const (
	ReadReq      RequestType = iota // demand read from the upper-level cache
	WritebackReq                    // dirty eviction from the upper-level cache
	RefillReq                       // fill after a DRAM-cache miss
)

// String implements fmt.Stringer.
func (t RequestType) String() string {
	switch t {
	case ReadReq:
		return "read"
	case WritebackReq:
		return "writeback"
	case RefillReq:
		return "refill"
	}
	return "?"
}

// Algorithm names the base scheduling algorithm within a priority class.
// The paper evaluates on BLISS but notes DCA "is not limited to any
// scheduling algorithm"; values are resolved by name against the policy
// registry in dcasim/internal/sched, so any imported policy package
// (e.g. dcasim/internal/sched/atlas) extends the accepted set. The zero
// value canonicalises to BLISS, the paper's baseline. Because the value
// set is open, a switch over Algorithm must always handle the default.
type Algorithm string

// The paper's three policies, registered by internal/sched.
const (
	// AlgBLISS is blacklisting + row-hit-first + direction + age.
	AlgBLISS Algorithm = "BLISS"
	// AlgFRFCFS drops the blacklisting component.
	AlgFRFCFS Algorithm = "FR-FCFS"
	// AlgFCFS is pure age order (no row-hit or direction preference).
	AlgFCFS Algorithm = "FCFS"
)

// Canonical maps the zero value to BLISS (the default algorithm) and any
// registered alias to its canonical spelling; unknown names pass through
// unchanged for the caller to reject.
func (a Algorithm) Canonical() Algorithm {
	if a == "" {
		return AlgBLISS
	}
	if r, ok := sched.Lookup(string(a)); ok {
		return Algorithm(r.Policy.Name())
	}
	return a
}

// String implements fmt.Stringer, canonicalising first so the zero value
// reads "BLISS".
func (a Algorithm) String() string { return string(a.Canonical()) }

// RegisterPolicy registers a scheduling policy (see sched.Register) and
// returns its typed Algorithm name, for policy packages that want a
// ready-made constant: Config.Algorithm accepts the returned value.
func RegisterPolicy(r sched.Registration) (Algorithm, error) {
	if err := sched.Register(r); err != nil {
		return "", err
	}
	return Algorithm(r.Policy.Name()), nil
}

// MustRegisterPolicy is RegisterPolicy that panics on error, for package
// init use.
func MustRegisterPolicy(r sched.Registration) Algorithm {
	a, err := RegisterPolicy(r)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseAlgorithm resolves a policy name or alias (case-insensitively,
// e.g. "bliss", "fr-fcfs", "frfcfs") against the policy registry.
func ParseAlgorithm(s string) (Algorithm, error) {
	if r, ok := sched.Lookup(s); ok {
		return Algorithm(r.Policy.Name()), nil
	}
	return AlgBLISS, fmt.Errorf("core: unknown scheduling algorithm %q (registered: %s)",
		s, strings.Join(sched.Names(), ", "))
}

// MarshalJSON encodes the algorithm as its canonical registered name.
func (a Algorithm) MarshalJSON() ([]byte, error) {
	c := a.Canonical()
	if _, ok := sched.Lookup(string(c)); !ok {
		return nil, fmt.Errorf("core: cannot marshal unknown algorithm %q", string(a))
	}
	return quoteName(string(c)), nil
}

// quoteName JSON-quotes an enum name in a single allocation. Design
// names and registered policy names are plain identifiers (letters,
// digits, '-', '_'), so no JSON escaping can apply; config hashing
// marshals these enums on every memoized run, making this a measured
// hot path (the bench gate pins its allocation count).
func quoteName(s string) []byte {
	b := make([]byte, 0, len(s)+2)
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// UnmarshalJSON accepts the same names ParseAlgorithm does.
func (a *Algorithm) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("core: algorithm must be a JSON string: %s", b)
	}
	v, err := ParseAlgorithm(s)
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// Config holds the per-channel queue and threshold parameters (Table II).
type Config struct {
	Design    Design
	Algorithm Algorithm // base scheduling algorithm (default BLISS)

	// AlgParams overrides the scheduling policy's declared tunables by
	// name (e.g. BLISS's "Threshold"); keys are validated against the
	// policy's ParamSpecs by Validate. Nil — the default — keeps every
	// parameter at its declared default and is omitted from the
	// canonical JSON, so existing config hashes are unchanged.
	AlgParams map[string]float64 `json:",omitempty"`

	ReadQueueCap  int
	WriteQueueCap int

	// Write-queue passive flushing thresholds as queue fractions:
	// reaching High forces a drain that stops at Low; when no reads are
	// pending a drain also starts above Low.
	WriteFlushLow  float64
	WriteFlushHigh float64

	// DCA ScheduleAll hysteresis on read-queue occupancy.
	ScheduleAllHigh float64
	ScheduleAllLow  float64

	// FlushFactor is the OFS RRPC threshold (FF; the paper uses FF-4).
	FlushFactor uint8
}

// DefaultConfig returns the Table II parameters for a design: 64-entry
// read and write queues (ROD: 32-entry read, 96-entry write, from its
// DesignSpec), write flush thresholds 50 %/85 %, DCA ScheduleAll
// thresholds 75 %/85 %, FF-4.
func DefaultConfig(d Design) Config {
	cfg := Config{
		Design:          d,
		Algorithm:       AlgBLISS,
		ReadQueueCap:    64,
		WriteQueueCap:   64,
		WriteFlushLow:   0.50,
		WriteFlushHigh:  0.85,
		ScheduleAllHigh: 0.85,
		ScheduleAllLow:  0.75,
		FlushFactor:     4,
	}
	if spec, err := d.Spec(); err == nil {
		if spec.ReadQueueCap > 0 {
			cfg.ReadQueueCap = spec.ReadQueueCap
		}
		if spec.WriteQueueCap > 0 {
			cfg.WriteQueueCap = spec.WriteQueueCap
		}
	}
	return cfg
}

// Policy resolves the configured Algorithm against the scheduling-policy
// registry, returning the registration and the fully resolved parameter
// set (declared defaults overlaid with AlgParams).
func (c Config) Policy() (*sched.Registration, sched.Params, error) {
	name := c.Algorithm.Canonical()
	r, ok := sched.Lookup(string(name))
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown scheduling algorithm %q (registered: %s)",
			string(c.Algorithm), strings.Join(sched.Names(), ", "))
	}
	p, err := r.ResolveParams(c.AlgParams)
	if err != nil {
		return nil, nil, err
	}
	return r, p, nil
}

// Validate reports a descriptive error for unusable parameters,
// including a design outside the table, an algorithm missing from the
// policy registry, and AlgParams rejected by the policy's ParamSpecs.
func (c Config) Validate() error {
	switch {
	case c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0:
		return fmt.Errorf("core: non-positive queue capacity %+v", c)
	case c.WriteFlushLow <= 0 || c.WriteFlushHigh > 1 || c.WriteFlushLow > c.WriteFlushHigh:
		return fmt.Errorf("core: bad write flush thresholds low=%v high=%v", c.WriteFlushLow, c.WriteFlushHigh)
	case c.ScheduleAllLow <= 0 || c.ScheduleAllHigh > 1 || c.ScheduleAllLow > c.ScheduleAllHigh:
		return fmt.Errorf("core: bad ScheduleAll thresholds low=%v high=%v", c.ScheduleAllLow, c.ScheduleAllHigh)
	case c.FlushFactor > 7:
		return fmt.Errorf("core: flush factor %d exceeds 3-bit RRPC range", c.FlushFactor)
	}
	if _, err := c.Design.Spec(); err != nil {
		return err
	}
	if _, _, err := c.Policy(); err != nil {
		return err
	}
	return nil
}
