// Package cache implements the simulator's one set-associative LRU
// array and its warm-state snapshot. Every level keeps its functional
// state in a Cache: the per-core L1s and the shared L2, the DRAM cache's
// tags-in-DRAM array (internal/dcache), and the SRAM tag cache of the
// Fig. 18 study (internal/tagcache). The array is functional (hit/miss
// and replacement state); latencies are charged by its users.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"dcasim/internal/binenc"
)

// MaxWays bounds the associativity so a way's LRU rank within its set
// fits the byte a State keeps for it.
const MaxWays = 256

// Cache is a set-associative, write-back, write-allocate array with LRU
// replacement over block addresses (physical address >> log2(block)).
type Cache struct {
	sets int64
	ways int

	// Power-of-two set counts (the common case) split addresses with a
	// mask and shift instead of the int64 div/mod pair, which dominates
	// the cost of small-way accesses.
	setsPow2 bool
	setMask  int64
	setShift uint

	// Flat arrays indexed by set*ways+way. The hit scan reads only tag
	// words (the 15 of a DRAM-cache set span two CPU cache lines), with
	// emptyTag marking an invalid way; lru and dirty are loaded only for
	// the hit way or on the victim scan of a miss.
	tag   []int64
	lru   []uint32
	dirty []bool
	tick  uint32

	Hits   int64
	Misses int64
}

// emptyTag marks an invalid way. Real tags are block addresses divided by
// the set count and therefore non-negative.
const emptyTag = int64(-1)

// New builds a cache of the given total size. sizeBytes must be a
// multiple of blockBytes*ways, and ways at most MaxWays.
func New(sizeBytes int64, blockBytes, ways int) (*Cache, error) {
	sets, err := Shape(sizeBytes, blockBytes, ways)
	if err != nil {
		return nil, err
	}
	n := sets * int64(ways)
	c := &Cache{
		sets:  sets,
		ways:  ways,
		tag:   make([]int64, n),
		lru:   make([]uint32, n),
		dirty: make([]bool, n),
	}
	for i := range c.tag {
		c.tag[i] = emptyTag
	}
	if sets&(sets-1) == 0 {
		c.setsPow2 = true
		c.setMask = sets - 1
		c.setShift = uint(bits.TrailingZeros64(uint64(sets)))
	}
	return c, nil
}

// Shape returns the set count of the cache New builds from the same
// arguments, or New's error for them.
func Shape(sizeBytes int64, blockBytes, ways int) (sets int64, err error) {
	if sizeBytes <= 0 || blockBytes <= 0 || ways <= 0 {
		return 0, fmt.Errorf("cache: non-positive parameter size=%d block=%d ways=%d", sizeBytes, blockBytes, ways)
	}
	if ways > MaxWays {
		return 0, fmt.Errorf("cache: %d ways exceeds the maximum of %d", ways, MaxWays)
	}
	if sizeBytes%(int64(blockBytes)*int64(ways)) != 0 {
		return 0, fmt.Errorf("cache: %d bytes is not a whole number of %d-way sets of %d-byte blocks", sizeBytes, ways, blockBytes)
	}
	return sizeBytes / int64(blockBytes) / int64(ways), nil
}

// split maps a block address to its (set, tag) pair.
//
//dcalint:noalloc
func (c *Cache) split(blockAddr int64) (set, tag int64) {
	if c.setsPow2 {
		return blockAddr & c.setMask, blockAddr >> c.setShift
	}
	return blockAddr % c.sets, blockAddr / c.sets
}

// Sets returns the number of sets.
func (c *Cache) Sets() int64 { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// find returns the set of blockAddr, the index of its set's first way,
// and the way holding it, or -1.
//
//dcalint:noalloc
func (c *Cache) find(blockAddr int64) (set, base int64, way int) {
	set, tg := c.split(blockAddr)
	base = set * int64(c.ways)
	for w, t := range c.tag[base : base+int64(c.ways)] {
		if t == tg {
			return set, base, w
		}
	}
	return set, base, -1
}

// Result reports the outcome of an Access.
type Result struct {
	Hit         bool
	Set         int64 // the set of the accessed block
	Way         int   // the way it hit in or was filled into
	VictimAddr  int64 // block displaced by the allocation (misses only)
	VictimValid bool
	VictimDirty bool
}

// Access performs a load (write=false) or store (write=true) with
// allocate-on-miss semantics and returns where the block now lives and
// the displaced victim, if any. This is the hottest loop of the whole
// simulator: every warm-up operation and every timed memory operation
// passes through it at each level.
//
//dcalint:noalloc
func (c *Cache) Access(blockAddr int64, write bool) Result {
	c.tick++
	set, tg := c.split(blockAddr)
	base := set * int64(c.ways)
	for w, t := range c.tag[base : base+int64(c.ways)] {
		if t == tg {
			c.Hits++
			i := base + int64(w)
			c.lru[i] = c.tick
			if write {
				c.dirty[i] = true
			}
			return Result{Hit: true, Set: set, Way: w}
		}
	}
	c.Misses++
	way := c.victim(base)
	i := base + int64(way)
	old, wasDirty := c.tag[i], c.dirty[i]
	c.tag[i], c.dirty[i], c.lru[i] = tg, write, c.tick
	if old == emptyTag {
		return Result{Set: set, Way: way}
	}
	return Result{Set: set, Way: way, VictimAddr: old*c.sets + set, VictimValid: true, VictimDirty: wasDirty}
}

// victim returns the way to replace in the set starting at base: the
// first invalid way, else the least recently used one.
//
//dcalint:noalloc
func (c *Cache) victim(base int64) int {
	tags := c.tag[base : base+int64(c.ways)]
	lru := c.lru[base : base+int64(c.ways)]
	victim := 0
	for w, t := range tags {
		if t == emptyTag {
			return w
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	return victim
}

// Touch performs a read-hit check in a single way scan: on a hit it
// counts the hit, refreshes LRU state exactly as Access would, and
// returns the set and way; on a miss it returns way -1 and changes and
// counts nothing (allocation, and the miss count, happen later, when the
// caller installs the fill). It exists so no-allocate-on-miss callers
// don't pay a Probe scan plus an Access scan.
//
//dcalint:noalloc
func (c *Cache) Touch(blockAddr int64) (set int64, way int) {
	set, base, way := c.find(blockAddr)
	if way >= 0 {
		c.Hits++
		c.tick++
		c.lru[base+int64(way)] = c.tick
	}
	return set, way
}

// Probe reports presence without changing any state.
//
//dcalint:noalloc
func (c *Cache) Probe(blockAddr int64) (present, dirty bool) {
	_, base, way := c.find(blockAddr)
	if way < 0 {
		return false, false
	}
	return true, c.dirty[base+int64(way)]
}

// Clean clears the dirty bit of blockAddr if present, returning whether
// it was dirty. Used by the Lee DRAM-aware writeback policy, which
// eagerly writes row-mates back and leaves them resident clean.
//
//dcalint:noalloc
func (c *Cache) Clean(blockAddr int64) bool {
	_, base, way := c.find(blockAddr)
	if way < 0 {
		return false
	}
	i := base + int64(way)
	was := c.dirty[i]
	c.dirty[i] = false
	return was
}

// MissRate returns misses / (hits+misses), or 0 with no traffic.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// ResetStats clears hit/miss counters.
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }

// State is a copy of a Cache's replacement state taken by Snapshot, in
// the compact form a warm-up snapshot keeps while runs wait to copy it: tags
// narrowed to 32 bits when every one fits (the tag words are most of a
// snapshot), dirty bits packed 64 to a word, and each way's LRU rank
// within its set instead of its 32-bit stamp. Victim choice only
// compares the stamps of valid ways of one set, so their order within
// the set is all that must survive; a one-way set has no order, and no
// ranks are kept for it.
type State struct {
	sets  int64
	ways  int
	tag   []int64  // the tag words, when some tag needs 64 bits
	tag32 []uint32 // otherwise the tags narrowed, with empty32 for an invalid way
	dirty []uint64
	rank  []uint8 // nil when the cache is direct-mapped
}

// empty32 marks an invalid way among narrowed tags.
const empty32 = ^uint32(0)

// Snapshot copies the cache's replacement state into its compact form.
// The cache is left as it was and may go on being used.
func (c *Cache) Snapshot() State {
	s := State{sets: c.sets, ways: c.ways, dirty: make([]uint64, (len(c.tag)+63)/64)}
	narrow := true
	for _, tg := range c.tag {
		if tg >= int64(empty32) {
			narrow = false
			break
		}
	}
	if narrow {
		s.tag32 = make([]uint32, len(c.tag))
		for i, tg := range c.tag {
			if tg == emptyTag {
				s.tag32[i] = empty32
			} else {
				s.tag32[i] = uint32(tg)
			}
		}
	} else {
		s.tag = append([]int64(nil), c.tag...)
	}
	for i, d := range c.dirty {
		if d {
			s.dirty[i/64] |= 1 << (i % 64)
		}
	}
	if ways := c.ways; ways > 1 {
		// rank = how many ways of the set carry an older stamp. Valid
		// ways have distinct stamps (each access takes a fresh tick), so
		// their ranks are distinct and ordered like the stamps; a set
		// has at most MaxWays ways, so a rank fits a byte.
		s.rank = make([]uint8, len(c.lru))
		for base := 0; base < len(c.lru); base += ways {
			set := c.lru[base : base+ways]
			for w, stamp := range set {
				r := 0
				for _, other := range set {
					if other < stamp {
						r++
					}
				}
				s.rank[base+w] = uint8(r)
			}
		}
	}
	return s
}

// CopyState overwrites the cache's replacement state with a copy of s,
// which stays untouched, so any number of caches may copy one State
// concurrently. Stamps are rebuilt from the ranks and the clock restarts
// above every one of them, so each later victim choice is the one the
// cache s was taken from would have made. Hit and miss counters are
// left alone.
func (c *Cache) CopyState(s State) error {
	if s.sets != c.sets || s.ways != c.ways {
		return fmt.Errorf("cache: state of %d sets x %d ways restored into %d x %d", s.sets, s.ways, c.sets, c.ways)
	}
	if s.tag32 == nil {
		copy(c.tag, s.tag)
	} else {
		for i, tg := range s.tag32 {
			if tg == empty32 {
				c.tag[i] = emptyTag
			} else {
				c.tag[i] = int64(tg)
			}
		}
	}
	for i := range c.dirty {
		c.dirty[i] = s.dirty[i/64]&(1<<(i%64)) != 0
	}
	if s.rank == nil {
		clear(c.lru)
	} else {
		for i, r := range s.rank {
			c.lru[i] = uint32(r)
		}
	}
	c.tick = uint32(c.ways)
	return nil
}

// Append appends the binary form of s to b: the shape (sets as a
// uint64, ways as a uint32), a byte selecting 32-bit (0) or 64-bit (1)
// tags, the tags, the packed dirty words, and, unless the cache is
// direct-mapped, one rank byte per way. All integers are little-endian.
func (s State) Append(b []byte) []byte {
	b = slices.Grow(b, 13+4*len(s.tag32)+8*len(s.tag)+8*len(s.dirty)+len(s.rank))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.sets))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.ways))
	if s.tag32 != nil {
		b = append(b, 0)
		for _, tg := range s.tag32 {
			b = binary.LittleEndian.AppendUint32(b, tg)
		}
	} else {
		b = append(b, 1)
		for _, tg := range s.tag {
			b = binary.LittleEndian.AppendUint64(b, uint64(tg))
		}
	}
	for _, d := range s.dirty {
		b = binary.LittleEndian.AppendUint64(b, d)
	}
	return append(b, s.rank...)
}

// ReadState decodes a State that Append wrote for a cache of sets x
// ways; a State of any other shape, or a rank outside its set, fails r.
// The arrays are sized from the expected shape, never from the input.
func ReadState(r *binenc.Reader, sets int64, ways int) State {
	s := State{sets: sets, ways: ways}
	if gotSets, gotWays := int64(r.U64()), int(r.U32()); r.Err() == nil && (gotSets != sets || gotWays != ways) {
		r.Failf("cache: state of %d sets x %d ways, want %d x %d", gotSets, gotWays, sets, ways)
	}
	n := int(sets) * ways
	switch wide := r.U8(); {
	case r.Err() != nil:
	case wide == 0:
		if raw := r.Bytes(4 * n); raw != nil {
			s.tag32 = make([]uint32, n)
			for i := range s.tag32 {
				s.tag32[i] = binary.LittleEndian.Uint32(raw[4*i:])
			}
		}
	case wide == 1:
		if raw := r.Bytes(8 * n); raw != nil {
			s.tag = make([]int64, n)
			for i := range s.tag {
				s.tag[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
	default:
		r.Failf("cache: tag width selector %d", wide)
	}
	if raw := r.Bytes(8 * ((n + 63) / 64)); raw != nil {
		s.dirty = make([]uint64, (n+63)/64)
		for i := range s.dirty {
			s.dirty[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
	}
	if ways > 1 {
		if raw := r.Bytes(n); raw != nil {
			for _, rank := range raw {
				if int(rank) >= ways {
					r.Failf("cache: rank %d in a %d-way set", rank, ways)
					break
				}
			}
			s.rank = append([]uint8(nil), raw...)
		}
	}
	return s
}
