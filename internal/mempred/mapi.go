// Package mempred implements a MAP-I-style DRAM-cache miss predictor
// (Qureshi & Loh, MICRO 2012).
//
// MAP-I keeps a small table of saturating counters indexed by a hash of
// the requesting instruction address: instructions that recently missed
// are predicted to miss again, letting the controller launch the off-chip
// fetch in parallel with the in-DRAM tag probe and hide most of the miss
// penalty. The workload generators emit stable synthetic PCs, so the
// predictor sees the same instruction-correlated behaviour the original
// hardware design exploits.
package mempred

import (
	"encoding/binary"
	"fmt"

	"dcasim/internal/binenc"
)

// TableSize is the number of counters per core; MAP-I uses a 256-entry
// table (96 bytes per core at 3 bits each).
const TableSize = 256

// MAPI is a per-core array of 3-bit saturating hit/miss counters.
// Counter semantics: 0 = strong miss ... 7 = strong hit; predictions
// above the midpoint are hits.
type MAPI struct {
	table [][]uint8

	Lookups        int64
	PredictedMiss  int64
	CorrectMiss    int64 // predicted miss, was miss
	FalseMiss      int64 // predicted miss, was hit (wasted fetch)
	MissedMiss     int64 // predicted hit, was miss (late fetch)
	CorrectHit     int64
	initialCounter uint8
}

// New builds a predictor for cores cores. Counters start weakly at hit
// (4): an empty predictor should not flood main memory with speculative
// fetches.
func New(cores int) *MAPI {
	m := &MAPI{table: make([][]uint8, cores), initialCounter: 4}
	for i := range m.table {
		row := make([]uint8, TableSize)
		for j := range row {
			row[j] = m.initialCounter
		}
		m.table[i] = row
	}
	return m
}

func index(pc uint64) int {
	// Fibonacci hashing folds the PC into the table.
	return int((pc * 0x9e3779b97f4a7c15) >> 56)
}

// PredictMiss returns true when the request from (core, pc) is predicted
// to miss in the DRAM cache.
func (m *MAPI) PredictMiss(core int, pc uint64) bool {
	m.Lookups++
	miss := m.table[core][index(pc)] < 4
	if miss {
		m.PredictedMiss++
	}
	return miss
}

// Update trains the predictor with the actual outcome and accounts
// prediction accuracy. predictedMiss must be the value PredictMiss
// returned for this request.
func (m *MAPI) Update(core int, pc uint64, predictedMiss, wasHit bool) {
	ctr := &m.table[core][index(pc)]
	if wasHit {
		if *ctr < 7 {
			*ctr++
		}
	} else {
		if *ctr > 0 {
			*ctr--
		}
	}
	switch {
	case predictedMiss && !wasHit:
		m.CorrectMiss++
	case predictedMiss && wasHit:
		m.FalseMiss++
	case !predictedMiss && !wasHit:
		m.MissedMiss++
	default:
		m.CorrectHit++
	}
}

// CopyFrom overwrites the predictor's counters and accuracy statistics
// with those of src, which must serve the same number of cores.
func (m *MAPI) CopyFrom(src *MAPI) error {
	if len(src.table) != len(m.table) {
		return fmt.Errorf("mempred: copying a %d-core predictor into a %d-core one", len(src.table), len(m.table))
	}
	table := m.table
	*m = *src
	m.table = table
	for i, row := range src.table {
		copy(table[i], row)
	}
	return nil
}

// Clone returns an independent copy of m: its counters and accuracy
// statistics.
func (m *MAPI) Clone() *MAPI {
	c := *m
	c.table = make([][]uint8, len(m.table))
	for i, row := range m.table {
		c.table[i] = append([]uint8(nil), row...)
	}
	return &c
}

// Append appends the binary form of m to b: the core count (uint32),
// each core's TableSize counters, and the six accuracy counters in
// declaration order (uint64 each), all little-endian.
func (m *MAPI) Append(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.table)))
	for _, row := range m.table {
		b = append(b, row...)
	}
	for _, v := range m.stats() {
		b = binary.LittleEndian.AppendUint64(b, uint64(*v))
	}
	return b
}

// ReadMAPI decodes a predictor that Append wrote for cores cores; any
// other core count, or a counter above the 3-bit maximum, fails r.
func ReadMAPI(r *binenc.Reader, cores int) *MAPI {
	if got := int(r.U32()); r.Err() == nil && got != cores {
		r.Failf("mempred: %d-core predictor, want %d", got, cores)
	}
	m := New(cores)
	for _, row := range m.table {
		raw := r.Bytes(TableSize)
		for _, ctr := range raw {
			if ctr > 7 {
				r.Failf("mempred: counter value %d", ctr)
			}
		}
		copy(row, raw)
	}
	for _, v := range m.stats() {
		*v = int64(r.U64())
	}
	return m
}

// stats lists the accuracy counters in their encoding order.
func (m *MAPI) stats() [6]*int64 {
	return [6]*int64{&m.Lookups, &m.PredictedMiss, &m.CorrectMiss, &m.FalseMiss, &m.MissedMiss, &m.CorrectHit}
}
