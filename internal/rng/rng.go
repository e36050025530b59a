// Package rng provides a small, fast, deterministic pseudo-random number
// generator for workload generation.
//
// The simulator must be bit-for-bit reproducible across runs and Go
// releases, so it does not use math/rand (whose stream is only stable per
// Go version for the default source). Each generator is an independent
// xoshiro256** instance seeded through splitmix64, the construction
// recommended by its authors.
package rng

import (
	"encoding/binary"

	"dcasim/internal/binenc"
)

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64. Two generators
// built from the same seed produce identical streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). n must be positive. For
// power-of-two n the modulo reduces to a mask — the identical value
// without the hardware divide.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	if n&(n-1) == 0 {
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	if n&(n-1) == 0 {
		return int64(r.Uint64() & uint64(n-1))
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Append appends the generator's position, its four state words as
// little-endian uint64s, to b.
func (r *Rand) Append(b []byte) []byte {
	for _, w := range r.s {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// Restore moves the generator to a position Append wrote. The all-zero
// state, which xoshiro never reaches, fails rd.
func (r *Rand) Restore(rd *binenc.Reader) {
	var s [4]uint64
	for i := range s {
		s[i] = rd.U64()
	}
	if rd.Err() == nil && s == [4]uint64{} {
		rd.Failf("rng: all-zero state")
	}
	r.s = s
}
