// Package tagcache models an ATCache-style SRAM tag cache (Huang &
// Nagarajan, PACT 2014) in front of the tags-in-DRAM array, used by the
// paper's Fig. 18 study.
//
// The tag cache stores recently used *tag blocks*. A hit removes the DRAM
// tag probe from a request's access chain; a miss fetches the needed tag
// block from DRAM and spatially prefetches the sibling tag blocks of the
// same DRAM row (the source of ATCache's benefit — and of the extra DRAM
// tag traffic the paper measures: tag-block temporal reuse is poor because
// the tag cache is smaller than the tag footprint of the L2 working set).
package tagcache

import (
	"fmt"

	"dcasim/internal/cache"
)

// Config sizes the tag cache.
type Config struct {
	SizeBytes  int // total capacity
	BlockBytes int // one tag block (64 B, covering one DRAM-cache set group)
	Ways       int
	// PrefetchSiblings is the number of neighbouring tag blocks fetched
	// on a miss (the other tag blocks of the same DRAM row; 3 for the
	// paper's 4-tag-block rows).
	PrefetchSiblings int
}

// DefaultConfig returns an ATCache-like geometry: 64 B blocks, 8 ways,
// row-granular prefetch of the 3 sibling tag blocks.
func DefaultConfig(sizeBytes int) Config {
	return Config{SizeBytes: sizeBytes, BlockBytes: 64, Ways: 8, PrefetchSiblings: 3}
}

// TagCache is a set-associative SRAM cache over tag-block indices: its
// own state is the prefetch rule and the counters; which tag blocks are
// resident, and in what LRU order, lives in a cache.Cache whose blocks
// are tag blocks.
type TagCache struct {
	cfg Config
	arr *cache.Cache

	Lookups    int64
	Hits       int64
	Misses     int64
	Prefetches int64
}

// New builds the tag cache. Capacity rounds down to whole sets, and to
// at least one.
func New(cfg Config) (*TagCache, error) {
	if cfg.BlockBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("tagcache: non-positive block size %d or ways %d", cfg.BlockBytes, cfg.Ways)
	}
	sets := max(cfg.SizeBytes/cfg.BlockBytes/cfg.Ways, 1)
	arr, err := cache.New(int64(sets*cfg.Ways*cfg.BlockBytes), cfg.BlockBytes, cfg.Ways)
	if err != nil {
		return nil, err
	}
	return &TagCache{cfg: cfg, arr: arr}, nil
}

// Lookup probes the tag cache for a tag block and returns whether it hit.
// On a miss the block is installed together with its row siblings
// (spatial prefetch; a sibling already resident is refreshed instead)
// and the number of DRAM tag-block fetches performed (1 + prefetches) is
// returned; on a hit zero fetches are needed.
func (t *TagCache) Lookup(blockIdx int64, rowSiblings []int64) (hit bool, dramFetches int) {
	t.Lookups++
	if t.arr.Access(blockIdx, false).Hit {
		t.Hits++
		return true, 0
	}
	t.Misses++
	fetches := 1
	for _, s := range rowSiblings {
		if s == blockIdx {
			continue
		}
		if fetches > t.cfg.PrefetchSiblings {
			break
		}
		if !t.arr.Access(s, false).Hit {
			t.Prefetches++
			fetches++
		}
	}
	return false, fetches
}

// ResetStats clears the counters after warm-up.
func (t *TagCache) ResetStats() {
	t.Lookups, t.Hits, t.Misses, t.Prefetches = 0, 0, 0, 0
}
