package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/dcache"
	"dcasim/internal/sim"
)

// FuzzCacheGet feeds arbitrary bytes to the entry-envelope decode path.
// The cache shares its directory with other processes, so an entry file
// can hold anything — a torn write, bit rot, output of an older or
// newer version. The contract under fuzzing: Get never panics, and it
// reports a hit only for an envelope that independently passes every
// integrity check (schema, key binding, SHA-256 of the canonical
// payload bytes); everything else is a clean miss.
func FuzzCacheGet(f *testing.F) {
	key := config.Test().Hash()

	// A genuine entry as the structural seed.
	seedCache, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seedCache.Put(key, sampleResult()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedCache.Path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema":1,"key":"` + key + `","sha256":"00","result":{}}`))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)

	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.Path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok := c.Get(key)
		if !ok {
			return
		}
		// Get trusted the bytes: re-verify the envelope with an
		// independent oracle. Any divergence means the integrity checks
		// let a corrupt entry through.
		var e struct {
			Schema int             `json:"schema"`
			Key    string          `json:"key"`
			SHA256 string          `json:"sha256"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("Get trusted undecodable bytes: %v", err)
		}
		if e.Schema != config.SchemaVersion || e.Key != key {
			t.Fatalf("Get trusted a mismatched envelope: schema=%d key=%q", e.Schema, e.Key)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, e.Result); err != nil {
			t.Fatalf("Get trusted a non-JSON payload: %v", err)
		}
		sum := sha256.Sum256(compact.Bytes())
		if hex.EncodeToString(sum[:]) != e.SHA256 {
			t.Fatal("Get trusted an entry whose payload checksum does not match")
		}
	})
}

// fuzzWarmConfig is the smallest config the snapshot fuzzer decodes
// for: one core, a 1 KB L1, a 4 KB L2 and a 64 KB direct-mapped DRAM
// cache, so a whole snapshot is a few kilobytes.
func fuzzWarmConfig() config.Config {
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf"}
	cfg.L1Bytes, cfg.L1Ways = 1<<10, 2
	cfg.L2Bytes, cfg.L2Ways = 4<<10, 4
	cfg.Org = dcache.DirectMapped
	cfg.CacheSizeBytes = 64 << 10
	cfg.WarmMemops = 2_000
	return cfg
}

// FuzzWarmSnapshot feeds arbitrary bytes to the snapshot entry reader
// and to the warm-state decoder behind it. A .warm entry can hold
// anything a torn write, bit rot or another version left, so the
// contract is: neither ever panics, and whatever either accepts
// re-encodes to exactly the bytes it was given — nothing is accepted by
// reading less than all of it, or by reading it loosely.
func FuzzWarmSnapshot(f *testing.F) {
	cfg := fuzzWarmConfig()
	key, payload := warmSnapshot(f, cfg)
	entry := append(warmHeader(key, payload), payload...)
	f.Add(entry)
	f.Add(payload)
	f.Add(entry[:len(entry)/2])
	f.Add(payload[:len(payload)-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap := data
		if p, ok := readWarmEntry(data, key); ok {
			if again := append(warmHeader(key, p), p...); !bytes.Equal(again, data) {
				t.Fatal("the entry reader accepted bytes that do not re-encode to themselves")
			}
			snap = p
		}
		ws, err := sim.DecodeWarmState(cfg, snap)
		if err != nil {
			return
		}
		if !bytes.Equal(sim.EncodeWarmState(ws), snap) {
			t.Fatal("the decoder accepted a snapshot that does not re-encode to itself")
		}
	})
}
