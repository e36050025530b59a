package dcache

import (
	"testing"

	"dcasim/internal/rng"
)

// The tag array's replacement logic and warm-state encoding are tested
// in internal/cache; these tests check the DRAM cache's use of it: the
// geometry's set mapping, what the functional accesses install, and the
// warm state's shape check.

func present(dc *DCache, addr int64) bool {
	p, _ := dc.tags.Probe(addr)
	return p
}

func TestTagLookupInstall(t *testing.T) {
	_, dc, _ := rig(t, SetAssoc, nil)
	addr := int64(12345)
	if present(dc, addr) {
		t.Fatal("empty cache reported a hit")
	}
	dc.WarmRead(addr, 0, 1)
	if set, way := dc.tags.Touch(addr); way < 0 || set != dc.geom.SetOf(addr) {
		t.Fatalf("installed block found at (%d,%d), want set %d", set, way, dc.geom.SetOf(addr))
	}
}

func TestTagAliasesDistinguished(t *testing.T) {
	_, dc, _ := rig(t, SetAssoc, nil)
	a := int64(100)
	dc.WarmRead(a, 0, 1)
	if present(dc, a+dc.geom.Sets) { // same set, different tag
		t.Fatal("alias with different tag hit")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	_, dc, _ := rig(t, SetAssoc, nil)
	dc.WarmRead(7, 0, 1)
	dc.WarmRead(7+dc.geom.Sets, 0, 1)
	if !present(dc, 7) || !present(dc, 7+dc.geom.Sets) {
		t.Fatal("a fill displaced a block while the set had invalid ways")
	}
}

func TestVictimLRU(t *testing.T) {
	_, dc, _ := rig(t, SetAssoc, nil)
	sets := dc.geom.Sets
	for w := 0; w < dc.geom.Ways; w++ {
		dc.WarmRead(7+int64(w)*sets, 0, 1)
	}
	dc.WarmRead(7, 0, 1) // refresh the oldest; the second fill is now LRU
	dc.WarmRead(7+int64(dc.geom.Ways)*sets, 0, 1)
	if !present(dc, 7) || present(dc, 7+sets) {
		t.Fatal("the fill of a full set did not displace its LRU block")
	}
}

func TestDirtyTracking(t *testing.T) {
	_, dc, _ := rig(t, SetAssoc, nil)
	dc.WarmRead(3, 0, 1)
	if _, dirty := dc.tags.Probe(3); dirty {
		t.Fatal("clean install reported dirty")
	}
	dc.WarmWrite(3, 0)
	if _, dirty := dc.tags.Probe(3); !dirty {
		t.Fatal("a writeback hit did not dirty the block")
	}
}

// TestVictimInfoInvalid: a fill into an invalid way displaces nothing;
// only the fill of a full set reports a victim, with its dirtiness.
func TestVictimInfoInvalid(t *testing.T) {
	for _, org := range []Org{SetAssoc, DirectMapped} {
		_, dc, _ := rig(t, org, nil)
		sets := dc.geom.Sets
		for w := 0; w < dc.geom.Ways; w++ {
			if r := dc.tags.Access(5+int64(w)*sets, true); r.Hit || r.VictimValid {
				t.Fatalf("%v: fill %d of an unfilled set reported %+v", org, w, r)
			}
		}
		r := dc.tags.Access(5+int64(dc.geom.Ways)*sets, false)
		if !r.VictimValid || !r.VictimDirty || r.VictimAddr != 5 {
			t.Fatalf("%v: fill of a full set reported %+v, want dirty victim 5", org, r)
		}
	}
}

func TestInstallReplaces(t *testing.T) {
	_, dc, _ := rig(t, DirectMapped, nil)
	repl := 9 + dc.geom.Sets
	dc.WarmWrite(9, 0)
	dc.WarmRead(repl, 0, 1)
	if present(dc, 9) {
		t.Fatal("replaced block still present")
	}
	if p, dirty := dc.tags.Probe(repl); !p || dirty {
		t.Fatalf("replacement present=%v dirty=%v, want a clean resident block", p, dirty)
	}
}

// TestWarmStateRejectsOtherShapes: a warm state only restores into a
// cache of its own geometry.
func TestWarmStateRejectsOtherShapes(t *testing.T) {
	_, small, _ := rig(t, SetAssoc, nil)
	_, large, _ := rig(t, SetAssoc, func(c *Config) { c.SizeBytes = 2 << 20 })
	if err := large.CopyWarmState(small.SnapshotWarmState()); err == nil {
		t.Fatal("warm state restored into a larger geometry")
	}
}

// TestTagStateRestorePicksSameVictims is the differential check of the
// DRAM cache's warm state: a cache restored from a snapshot must see
// every hit and choose every victim exactly as an untouched twin does,
// in both organizations, with sets left partly empty, and with tags
// that narrow to 32 bits (low addresses) and tags that do not (high
// ones).
func TestTagStateRestorePicksSameVictims(t *testing.T) {
	for _, c := range []struct {
		org  Org
		base int64
	}{{SetAssoc, 0}, {DirectMapped, 0}, {SetAssoc, 1 << 50}, {DirectMapped, 1 << 50}} {
		_, warm, _ := rig(t, c.org, nil)
		_, twin, _ := rig(t, c.org, nil)
		capacity := warm.geom.Sets * int64(warm.geom.Ways)
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
			for _, dc := range []*DCache{warm, twin} {
				if writes[i] {
					dc.WarmWrite(a, 0)
				} else {
					dc.WarmRead(a, 0, 1)
				}
			}
		}
		s := warm.SnapshotWarmState()
		restored := make([]*DCache, 2)
		for k := range restored {
			_, restored[k], _ = rig(t, c.org, nil)
			if err := restored[k].CopyWarmState(s); err != nil {
				t.Fatal(err)
			}
		}
		addrs, writes = stream(4 * int(capacity))
		for i, a := range addrs {
			want := twin.tags.Access(a, writes[i])
			for k, dc := range restored {
				if got := dc.tags.Access(a, writes[i]); got != want {
					t.Fatalf("%v base %d: access %d (block %d) on restored cache %d: got %+v, untouched twin %+v", c.org, c.base, i, a, k, got, want)
				}
			}
		}
		for a := c.base; a < c.base+3*capacity; a++ {
			wp, wd := twin.tags.Probe(a)
			for k, dc := range restored {
				if p, d := dc.tags.Probe(a); p != wp || d != wd {
					t.Fatalf("%v base %d: block %d on restored cache %d: present=%v dirty=%v, twin %v %v", c.org, c.base, a, k, p, d, wp, wd)
				}
			}
		}
	}
}
