package dcache

import (
	"testing"

	"dcasim/internal/rng"
)

// seen is what one functional access observed: the hit way or, on a
// miss, the victim way and the block it displaced.
type seen struct {
	hit, victim  int
	old          int64
	valid, dirty bool
}

// tagOp applies one functional access, as WarmRead/WarmWrite do.
func tagOp(t *tagStore, addr int64, write bool) seen {
	set, way, vw := t.lookupOrVictim(addr)
	if way >= 0 {
		if write {
			t.setDirty(set, way)
		}
		t.touch(set, way)
		return seen{hit: way, victim: -1}
	}
	if v := t.victim(set); v != vw {
		panic("lookupOrVictim and victim disagree")
	}
	s := seen{hit: -1, victim: vw}
	s.old, s.valid, s.dirty = t.victimInfo(set, vw)
	t.install(addr, set, vw, write)
	return s
}

// TestTagStateRestorePicksSameVictims is the differential check of the
// compact warm-state encoding: a store restored from a moved state —
// ranks instead of stamps, packed dirty bits — must see every hit and
// choose every victim exactly as an untouched twin does, in both
// organizations, with sets left partly empty, and with tags that narrow
// to 32 bits (low addresses) and tags that do not (high ones).
func TestTagStateRestorePicksSameVictims(t *testing.T) {
	for _, c := range []struct {
		org  Org
		base int64
	}{{SetAssoc, 0}, {DirectMapped, 0}, {SetAssoc, 1 << 50}, {DirectMapped, 1 << 50}} {
		org := c.org
		g, err := NewGeometry(org, 1<<20, paperDRAM())
		if err != nil {
			t.Fatal(err)
		}
		capacity := g.Sets * int64(g.Ways)
		warm, twin := newTagStore(g), newTagStore(g)
		r := rng.New(7)
		stream := func(n int) (addrs []int64, writes []bool) {
			for i := 0; i < n; i++ {
				addrs = append(addrs, c.base+r.Int63n(3*capacity))
				writes = append(writes, r.Bool(0.3))
			}
			return addrs, writes
		}
		// Fewer accesses than blocks: many sets keep invalid ways.
		addrs, writes := stream(int(capacity))
		for i, a := range addrs {
			tagOp(warm, a, writes[i])
			tagOp(twin, a, writes[i])
		}
		s := warm.moveState()
		if narrow := s.tag32 != nil; narrow != (c.base == 0) {
			t.Fatalf("%v base %d: narrowed=%v", org, c.base, narrow)
		}
		restored := []*tagStore{newTagStore(g), newTagStore(g)}
		for _, rs := range restored {
			if err := rs.copyState(s); err != nil {
				t.Fatal(err)
			}
		}
		addrs, writes = stream(4 * int(capacity))
		for i, a := range addrs {
			want := tagOp(twin, a, writes[i])
			for k, rs := range restored {
				if got := tagOp(rs, a, writes[i]); got != want {
					t.Fatalf("%v base %d: access %d (block %d) on restored store %d: got %v, untouched twin %v", org, c.base, i, a, k, got, want)
				}
			}
		}
		for k, rs := range restored {
			for i := range twin.tag {
				if rs.tag[i] != twin.tag[i] || rs.dbit[i] != twin.dbit[i] {
					t.Fatalf("%v: restored store %d diverges from its twin at way %d", org, k, i)
				}
			}
		}
	}
}

// TestWarmStateRejectsOtherShapes: a tag state only restores into a
// store of its own geometry.
func TestWarmStateRejectsOtherShapes(t *testing.T) {
	g, err := NewGeometry(SetAssoc, 1<<20, paperDRAM())
	if err != nil {
		t.Fatal(err)
	}
	small := newTagStore(g).moveState()
	g2, err := NewGeometry(SetAssoc, 2<<20, paperDRAM())
	if err != nil {
		t.Fatal(err)
	}
	if err := newTagStore(g2).copyState(small); err == nil {
		t.Fatal("tag state restored into a larger geometry")
	}
}
