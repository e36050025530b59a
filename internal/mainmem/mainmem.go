// Package mainmem models the off-chip DRAM main memory below the DRAM
// cache: a fixed 50 ns access latency (Table II) behind a 2 GHz × 64-bit
// off-chip bus that serialises block transfers at 4 ns per 64 B block.
//
// The paper's contribution is entirely inside the DRAM-cache controller;
// main memory only needs to charge a realistic, bandwidth-limited miss
// penalty, so a latency-plus-server queue is sufficient.
package mainmem

import (
	"fmt"

	"dcasim/internal/event"
	"dcasim/internal/simtime"
)

// Config parameterises the main memory model.
type Config struct {
	Latency   simtime.Time // fixed access latency
	BlockTime simtime.Time // bus serialisation per block
}

// DefaultConfig matches Table II: 50 ns latency, 64 B over a
// 2 GHz × 64-bit bus = 4 ns per block.
func DefaultConfig() Config {
	return Config{
		Latency:   50 * simtime.Nanosecond,
		BlockTime: 4 * simtime.Nanosecond,
	}
}

// Validate rejects a negative latency or bus time: either would
// schedule a completion before the current time.
func (c Config) Validate() error {
	if c.Latency < 0 || c.BlockTime < 0 {
		return fmt.Errorf("mainmem: negative latency %v or block time %v", c.Latency, c.BlockTime)
	}
	return nil
}

// Memory is the off-chip memory. Reads invoke a completion callback;
// writes are fire-and-forget but still consume bus bandwidth.
type Memory struct {
	eng *event.Engine
	cfg Config

	busFree simtime.Time

	Reads  int64
	Writes int64
	// BusyTime accumulates bus occupancy for bandwidth accounting.
	BusyTime simtime.Time
}

// New builds a main memory attached to the engine.
func New(eng *event.Engine, cfg Config) *Memory {
	return &Memory{eng: eng, cfg: cfg}
}

func (m *Memory) serve() simtime.Time {
	start := simtime.Max(m.eng.Now(), m.busFree)
	m.busFree = start + m.cfg.BlockTime
	m.BusyTime += m.cfg.BlockTime
	return start + m.cfg.Latency
}

// Read fetches a block; done fires at the completion time.
func (m *Memory) Read(done event.Callback) {
	m.Reads++
	m.eng.CallAt(m.serve(), done)
}

// Write retires a block write. It occupies the bus but completes
// asynchronously with no callback: writes below the DRAM cache are never
// on the critical path in this study.
func (m *Memory) Write() {
	m.Writes++
	m.serve()
}

// ResetStats clears counters after warm-up.
func (m *Memory) ResetStats() {
	m.Reads, m.Writes, m.BusyTime = 0, 0, 0
}
