package dcache

import "fmt"

// tagStore is the functional (zero-time) tag state of the DRAM cache:
// which blocks are present, their dirtiness, and LRU order. Timing is
// charged separately by the access chains; the functional state advances
// when the corresponding tag accesses complete.
type tagStore struct {
	geom Geometry
	// Flat arrays indexed by set*ways+way. tag is the block tag, with
	// emptyTag marking an invalid way so the 15-way hit scan touches
	// only two cache lines of tag words; lru and dirty live separately
	// and are loaded only on the miss (victim) path or on a hit way.
	tag  []int64
	dbit []bool
	lru  []uint32
	tick uint32
}

// emptyTag marks an invalid way. Real tags are block addresses divided by
// the set count and therefore non-negative.
const emptyTag = int64(-1)

func newTagStore(g Geometry) *tagStore {
	n := g.Sets * int64(g.Ways)
	t := &tagStore{
		geom: g,
		tag:  make([]int64, n),
		dbit: make([]bool, n),
		lru:  make([]uint32, n),
	}
	for i := range t.tag {
		t.tag[i] = emptyTag
	}
	return t
}

func (t *tagStore) idx(set int64, way int) int64 { return set*int64(t.geom.Ways) + int64(way) }

// lookup returns the way holding blockAddr, or -1.
func (t *tagStore) lookup(blockAddr int64) (set int64, way int) {
	set = t.geom.SetOf(blockAddr)
	want := t.geom.TagOf(blockAddr)
	base := set * int64(t.geom.Ways)
	for w := 0; w < t.geom.Ways; w++ {
		if t.tag[base+int64(w)] == want {
			return set, w
		}
	}
	return set, -1
}

// lookupOrVictim combines lookup and victim selection for the warm-up
// fast path: way is -1 on a miss, in which case victim is the way to
// replace (the first invalid way if one exists, else LRU). The hit scan
// runs first and touches only the tag words; the victim scan runs only
// on a miss.
func (t *tagStore) lookupOrVictim(blockAddr int64) (set int64, way, victim int) {
	set = t.geom.SetOf(blockAddr)
	want := t.geom.TagOf(blockAddr)
	base := set * int64(t.geom.Ways)
	for w := 0; w < t.geom.Ways; w++ {
		if t.tag[base+int64(w)] == want {
			return set, w, -1
		}
	}
	victim = -1
	var oldest uint32
	for w := 0; w < t.geom.Ways; w++ {
		i := base + int64(w)
		if t.tag[i] == emptyTag {
			victim = w
			break
		}
		if victim < 0 || t.lru[i] < oldest {
			victim, oldest = w, t.lru[i]
		}
	}
	return set, -1, victim
}

// touch updates replacement state for a hit.
func (t *tagStore) touch(set int64, way int) {
	t.tick++
	t.lru[t.idx(set, way)] = t.tick
}

// dirty returns whether (set, way) holds a dirty block.
func (t *tagStore) dirty(set int64, way int) bool {
	return t.dbit[t.idx(set, way)]
}

// setDirty marks (set, way) dirty.
func (t *tagStore) setDirty(set int64, way int) {
	t.dbit[t.idx(set, way)] = true
}

// victim selects the replacement way in set: an invalid way if one
// exists, otherwise the LRU way.
func (t *tagStore) victim(set int64) int {
	victim, oldest := 0, uint32(0)
	first := true
	for w := 0; w < t.geom.Ways; w++ {
		i := t.idx(set, w)
		if t.tag[i] == emptyTag {
			return w
		}
		if first || t.lru[i] < oldest {
			victim, oldest, first = w, t.lru[i], false
		}
	}
	return victim
}

// victimInfo reports the block currently in (set, way).
func (t *tagStore) victimInfo(set int64, way int) (blockAddr int64, valid, dirty bool) {
	i := t.idx(set, way)
	if t.tag[i] == emptyTag {
		return 0, false, false
	}
	return t.tag[i]*t.geom.Sets + set, true, t.dbit[i]
}

// install places blockAddr into (set, way), replacing the previous
// occupant, and touches replacement state.
func (t *tagStore) install(blockAddr int64, set int64, way int, dirty bool) {
	i := t.idx(set, way)
	t.tag[i] = t.geom.TagOf(blockAddr)
	t.dbit[i] = dirty
	t.tick++
	t.lru[i] = t.tick
}

// tagState is a tagStore detached by moveState, in the compact form a
// warm-up snapshot keeps while runs wait to copy it: tags narrowed to 32
// bits when every one fits (the tag words are most of a snapshot),
// dirty bits packed 64 to a word, and each way's LRU rank within its set
// instead of its 32-bit stamp. Victim choice only compares the stamps of
// valid ways of one set, so their order within the set is all that must
// survive; a one-way set has no order, and no ranks are kept for it.
type tagState struct {
	geom  Geometry
	tag   []int64  // the store's own tag words, when some tag needs 64 bits
	tag32 []uint32 // otherwise the tags narrowed, with empty32 for an invalid way
	dirty []uint64
	rank  []uint8 // nil when the cache is direct-mapped
}

// empty32 marks an invalid way among narrowed tags.
const empty32 = ^uint32(0)

// moveState detaches the store's state into its compact form; the tag
// words are taken without copying when they cannot be narrowed. The
// store must not be used afterwards.
func (t *tagStore) moveState() tagState {
	s := tagState{geom: t.geom, dirty: make([]uint64, (len(t.tag)+63)/64)}
	narrow := true
	for _, tg := range t.tag {
		if tg >= int64(empty32) {
			narrow = false
			break
		}
	}
	if narrow {
		s.tag32 = make([]uint32, len(t.tag))
		for i, tg := range t.tag {
			if tg == emptyTag {
				s.tag32[i] = empty32
			} else {
				s.tag32[i] = uint32(tg)
			}
		}
	} else {
		s.tag = t.tag
	}
	for i, d := range t.dbit {
		if d {
			s.dirty[i/64] |= 1 << (i % 64)
		}
	}
	if ways := t.geom.Ways; ways > 1 {
		// rank = how many ways of the set carry an older stamp. Valid
		// ways have distinct stamps (each install or touch takes a fresh
		// tick), so their ranks are distinct and ordered like the
		// stamps; a set has at most saWays (15) ways, so a rank fits a
		// byte.
		s.rank = make([]uint8, len(t.lru))
		for base := 0; base < len(t.lru); base += ways {
			set := t.lru[base : base+ways]
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
	t.tag, t.dbit, t.lru = nil, nil, nil
	return s
}

// copyState overwrites the store with a copy of s, which stays
// untouched. Stamps are rebuilt from the ranks and the clock restarts
// above every one of them, so each later victim choice is the one the
// store s was moved from would have made.
func (t *tagStore) copyState(s tagState) error {
	if s.geom != t.geom {
		return fmt.Errorf("dcache: tag state of geometry %+v restored into %+v", s.geom, t.geom)
	}
	if s.tag32 == nil {
		copy(t.tag, s.tag)
	} else {
		for i, tg := range s.tag32 {
			if tg == empty32 {
				t.tag[i] = emptyTag
			} else {
				t.tag[i] = int64(tg)
			}
		}
	}
	for i := range t.dbit {
		t.dbit[i] = s.dirty[i/64]&(1<<(i%64)) != 0
	}
	if s.rank == nil {
		clear(t.lru)
	} else {
		for i, r := range s.rank {
			t.lru[i] = uint32(r)
		}
	}
	t.tick = uint32(t.geom.Ways)
	return nil
}
