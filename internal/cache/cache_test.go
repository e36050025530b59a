package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"dcasim/internal/binenc"
)

func mustNew(t *testing.T, size int64, block, ways int) *Cache {
	t.Helper()
	c, err := New(size, block, ways)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 64, 2); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(100, 64, 2); err == nil {
		t.Error("non-divisible size accepted")
	}
	if _, err := New(30000, 64, 2); err == nil {
		t.Error("a size that is not a whole number of blocks accepted")
	}
	if _, err := New(MaxWays+1, 1, MaxWays+1); err == nil {
		t.Errorf("%d ways accepted", MaxWays+1)
	}
	mustNew(t, MaxWays, 1, MaxWays)
	c := mustNew(t, 32<<10, 64, 2)
	if c.Sets() != 256 || c.Ways() != 2 {
		t.Fatalf("32KB/2way: %d sets x %d ways, want 256x2", c.Sets(), c.Ways())
	}
}

func TestHitMiss(t *testing.T) {
	c := mustNew(t, 1024, 64, 2) // 8 sets, 2 ways
	if r := c.Access(5, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(5, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters %d/%d", c.Hits, c.Misses)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := mustNew(t, 1024, 64, 2) // 8 sets; addresses =set (mod 8) share a set
	c.Access(0, false)           // set 0
	c.Access(8, false)           // set 0, second way
	c.Access(0, false)           // refresh 0
	r := c.Access(16, false)     // evicts 8
	if r.Hit || !r.VictimValid || r.VictimAddr != 8 {
		t.Fatalf("expected victim 8, got %+v", r)
	}
	if p, _ := c.Probe(0); !p {
		t.Fatal("MRU block evicted")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Access(0, true) // dirty
	c.Access(8, false)
	r := c.Access(16, false)
	if !r.VictimValid || r.VictimAddr != 0 || !r.VictimDirty {
		t.Fatalf("dirty victim not reported: %+v", r)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Access(3, false)
	if _, d := c.Probe(3); d {
		t.Fatal("clean block reported dirty")
	}
	c.Access(3, true)
	if _, d := c.Probe(3); !d {
		t.Fatal("written block not dirty")
	}
}

func TestClean(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Access(3, true)
	if !c.Clean(3) {
		t.Fatal("Clean did not report the block was dirty")
	}
	if _, d := c.Probe(3); d {
		t.Fatal("block still dirty after Clean")
	}
	if c.Clean(3) {
		t.Fatal("Clean on a clean block reported dirty")
	}
	if c.Clean(999) {
		t.Fatal("Clean on an absent block reported dirty")
	}
}

func TestProbeDoesNotTouch(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Access(0, false)
	c.Access(8, false)
	// Probing 0 must NOT refresh it.
	c.Probe(0)
	r := c.Access(16, false)
	if r.VictimAddr != 0 {
		t.Fatalf("probe changed LRU state; victim %d, want 0", r.VictimAddr)
	}
}

// shapes are the geometries the table-driven tests run over: the L1
// (2-way) and L2 (16-way) associativities, the DRAM cache's 15 ways over
// power-of-two sets and its direct-mapped organization over a set count
// that is not one, and an 8-way tag cache over such sets too (the
// 192 KB and 384 KB points of Fig. 18). Each runs with tags that narrow
// to 32 bits in a State (base 0) and with tags that do not (base 1<<50).
var shapes = []struct {
	sets int64
	ways int
}{{16, 4}, {8, 2}, {8, 16}, {16, 15}, {12, 1}, {6, 8}}

var bases = []int64{0, 1 << 50}

// op is one access of a random stream: an Access, or a Touch when touch
// is set.
type op struct {
	addr         int64
	write, touch bool
}

// stream draws n ops over 3x the capacity of a sets x ways array.
func stream(rnd *rand.Rand, base, sets int64, ways, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{
			addr:  base + rnd.Int63n(3*sets*int64(ways)),
			write: rnd.Intn(3) == 0,
			touch: rnd.Intn(4) == 0,
		}
	}
	return ops
}

// apply runs o on c, reporting a Touch as a Result (Hit and, on a hit,
// Set and Way).
func apply(c *Cache, o op) Result {
	if o.touch {
		set, way := c.Touch(o.addr)
		if way < 0 {
			return Result{Set: set, Way: -1}
		}
		return Result{Hit: true, Set: set, Way: way}
	}
	return c.Access(o.addr, o.write)
}

// TestAgainstReferenceModel drives the cache and a brute-force reference
// (per-set LRU lists) with random traffic over every shape and requires
// identical hits, sets, ways and victims — a property check of the
// replacement logic. The first accesses meet partly empty sets, which
// must fill their lowest invalid way and report no victim.
func TestAgainstReferenceModel(t *testing.T) {
	type line struct {
		addr  int64
		way   int
		dirty bool
	}
	for _, sh := range shapes {
		for _, base := range bases {
			sets, ways := sh.sets, sh.ways
			c := mustNew(t, sets*int64(ways)*64, 64, ways)
			ref := make([][]line, sets) // MRU first
			rnd := rand.New(rand.NewSource(99))
			for i, o := range stream(rnd, base, sets, ways, 20_000) {
				set := o.addr % sets
				want := Result{Set: set, Way: -1}
				s := ref[set]
				for j, ln := range s {
					if ln.addr == o.addr {
						want.Hit, want.Way = true, ln.way
						ln.dirty = ln.dirty || (o.write && !o.touch)
						s = append(append([]line{ln}, s[:j]...), s[j+1:]...)
						break
					}
				}
				if !want.Hit && !o.touch {
					want.Way = len(s) // ways fill in order and are never invalidated
					if len(s) == ways {
						v := s[ways-1]
						want.Way = v.way
						want.VictimAddr, want.VictimValid, want.VictimDirty = v.addr, true, v.dirty
						s = s[:ways-1]
					}
					s = append([]line{{addr: o.addr, way: want.Way, dirty: o.write}}, s...)
				}
				ref[set] = s

				if got := apply(c, o); got != want {
					t.Fatalf("%d sets x %d ways, base %d: op %d %+v: got %+v, reference %+v", sets, ways, base, i, o, got, want)
				}
			}
		}
	}
}

func TestMissRate(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	if c.MissRate() != 0 {
		t.Fatal("empty cache should report 0 miss rate")
	}
	c.Access(1, false)
	c.Access(1, false)
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", got)
	}
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("ResetStats left counters")
	}
}

// TestCopyStateContinuesLikeTheOriginal is the differential check of
// the compact State encoding: caches restored from a snapshot (ranks
// instead of stamps, packed dirty bits, narrowed tags when they fit)
// must see every hit and choose every victim exactly as an untouched
// twin does, over every shape, with sets left partly empty, and the
// restores must leave the state itself unchanged for the next copy.
func TestCopyStateContinuesLikeTheOriginal(t *testing.T) {
	for _, sh := range shapes {
		for _, base := range bases {
			size, ways := sh.sets*int64(sh.ways)*64, sh.ways
			warm, twin := mustNew(t, size, 64, ways), mustNew(t, size, 64, ways)
			rnd := rand.New(rand.NewSource(5))
			// Fewer accesses than blocks: many sets keep invalid ways.
			for _, o := range stream(rnd, base, sh.sets, ways, int(sh.sets)*ways/2) {
				apply(warm, o)
				apply(twin, o)
			}
			s := warm.Snapshot()
			if narrow := s.tag32 != nil; narrow != (base == 0) {
				t.Fatalf("%d sets x %d ways, base %d: narrowed=%v", sh.sets, ways, base, narrow)
			}
			if (s.rank == nil) != (ways == 1) {
				t.Fatalf("%d sets x %d ways: ranks kept=%v", sh.sets, ways, s.rank != nil)
			}
			restored := []*Cache{mustNew(t, size, 64, ways), mustNew(t, size, 64, ways)}
			for _, c := range restored {
				if err := c.CopyState(s); err != nil {
					t.Fatal(err)
				}
			}
			for i, o := range stream(rnd, base, sh.sets, ways, 5_000) {
				want := apply(twin, o)
				for k, c := range restored {
					if got := apply(c, o); got != want {
						t.Fatalf("%d sets x %d ways, base %d: op %d %+v on restored cache %d: got %+v, twin %+v", sh.sets, ways, base, i, o, k, got, want)
					}
				}
			}
			if err := mustNew(t, 2*size, 64, ways).CopyState(s); err == nil {
				t.Fatal("state restored into a cache of another shape")
			}
		}
	}
}

// TestStateBinaryRoundTrip: ReadState returns exactly the State Append
// wrote — narrowed and 64-bit tags, direct-mapped and associative — and
// rejects the encoding for any other shape, a truncation, and a rank
// outside its set.
func TestStateBinaryRoundTrip(t *testing.T) {
	for _, sh := range shapes {
		for _, base := range bases {
			size, ways := sh.sets*int64(sh.ways)*64, sh.ways
			c := mustNew(t, size, 64, ways)
			rnd := rand.New(rand.NewSource(9))
			for _, o := range stream(rnd, base, sh.sets, ways, int(sh.sets)*ways/2) {
				apply(c, o)
			}
			s := c.Snapshot()
			enc := s.Append(nil)
			r := binenc.NewReader(enc)
			if got := ReadState(r, sh.sets, ways); r.End() != nil || !reflect.DeepEqual(got, s) {
				t.Fatalf("%d sets x %d ways, base %d: round trip differs (err %v)", sh.sets, ways, base, r.Err())
			}
			for _, bad := range []struct {
				what string
				data []byte
				sets int64
				ways int
			}{
				{"other sets", enc, 2 * sh.sets, ways},
				{"other ways", enc, sh.sets, ways + 1},
				{"truncated", enc[:len(enc)-1], sh.sets, ways},
			} {
				r := binenc.NewReader(bad.data)
				if ReadState(r, bad.sets, bad.ways); r.End() == nil {
					t.Errorf("%d sets x %d ways: %s accepted", sh.sets, ways, bad.what)
				}
			}
			if ways > 1 {
				rank := append([]byte(nil), enc...)
				rank[len(rank)-1] = byte(ways)
				r := binenc.NewReader(rank)
				if ReadState(r, sh.sets, ways); r.End() == nil {
					t.Errorf("%d sets x %d ways: rank %d accepted", sh.sets, ways, ways)
				}
			}
		}
	}
}
