package tagcache

import "testing"

func mustNew(t *testing.T, cfg Config) *TagCache {
	t.Helper()
	tc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func small(t *testing.T) *TagCache {
	// 8 blocks total, 2 ways -> 4 sets.
	return mustNew(t, Config{SizeBytes: 512, BlockBytes: 64, Ways: 2, PrefetchSiblings: 3})
}

func TestMissThenHit(t *testing.T) {
	tc := small(t)
	hit, fetches := tc.Lookup(100, nil)
	if hit || fetches != 1 {
		t.Fatalf("first lookup: hit=%v fetches=%d, want miss with 1 fetch", hit, fetches)
	}
	hit, fetches = tc.Lookup(100, nil)
	if !hit || fetches != 0 {
		t.Fatalf("second lookup: hit=%v fetches=%d, want hit with 0 fetches", hit, fetches)
	}
	if tc.Hits != 1 || tc.Misses != 1 {
		t.Fatalf("counters wrong: %+v", tc)
	}
}

func TestSpatialPrefetch(t *testing.T) {
	tc := small(t)
	siblings := []int64{100, 101, 102, 103}
	_, fetches := tc.Lookup(100, siblings)
	if fetches != 4 {
		t.Fatalf("miss with 3 siblings fetched %d blocks, want 4", fetches)
	}
	if tc.Prefetches != 3 {
		t.Fatalf("prefetch count %d, want 3", tc.Prefetches)
	}
	// The prefetched siblings must now hit.
	for _, s := range siblings[1:] {
		if hit, _ := tc.Lookup(s, nil); !hit {
			t.Fatalf("sibling %d not installed by prefetch", s)
		}
	}
}

func TestPrefetchLimit(t *testing.T) {
	tc := mustNew(t, Config{SizeBytes: 512, BlockBytes: 64, Ways: 2, PrefetchSiblings: 1})
	_, fetches := tc.Lookup(100, []int64{100, 101, 102, 103})
	if fetches != 2 {
		t.Fatalf("prefetch limit 1 fetched %d blocks, want 2", fetches)
	}
}

func TestLRUEviction(t *testing.T) {
	tc := small(t) // 4 sets, 2 ways; blocks with the same idx%4 share a set
	tc.Lookup(0, nil)
	tc.Lookup(4, nil)
	tc.Lookup(0, nil) // refresh 0
	tc.Lookup(8, nil) // evicts 4 (LRU), not 0
	if hit, _ := tc.Lookup(0, nil); !hit {
		t.Fatal("recently used block was evicted")
	}
	if hit, _ := tc.Lookup(4, nil); hit {
		t.Fatal("LRU block survived eviction")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(192 << 10)
	if cfg.SizeBytes != 192<<10 || cfg.BlockBytes != 64 || cfg.PrefetchSiblings != 3 {
		t.Fatalf("unexpected default config: %+v", cfg)
	}
	tc := mustNew(t, cfg)
	if tc.arr.Sets()*int64(cfg.Ways*cfg.BlockBytes) != int64(cfg.SizeBytes) {
		t.Fatalf("geometry does not cover the configured capacity")
	}
}

func TestResetStats(t *testing.T) {
	tc := small(t)
	tc.Lookup(1, nil)
	tc.Lookup(1, nil)
	tc.ResetStats()
	if tc.Lookups != 0 || tc.Hits != 0 || tc.Misses != 0 {
		t.Fatalf("ResetStats left counters: %+v", tc)
	}
	// State survives the reset — only counters clear.
	if hit, _ := tc.Lookup(1, nil); !hit {
		t.Fatal("ResetStats dropped cache contents")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 512, BlockBytes: 64, Ways: 0},
		{SizeBytes: 512, BlockBytes: 0, Ways: 2},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}
