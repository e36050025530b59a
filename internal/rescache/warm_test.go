package rescache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"dcasim/internal/cachefs"
	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/sched"
	_ "dcasim/internal/sched/policies"
	"dcasim/internal/sim"
)

// warmConfig is a four-core test config with budgets small enough to
// run dozens of simulations, and caches small enough that warm-up fills
// them, so the timed region evicts by the restored LRU order.
func warmConfig() config.Config {
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
	cfg.CacheSizeBytes = 512 << 10
	cfg.L2Bytes = 128 << 10
	cfg.InstrPerCore = 8_000
	cfg.WarmMemops = 12_000
	return cfg
}

// warmSnapshot warms cfg up and returns its warm key and encoded state.
func warmSnapshot(t testing.TB, cfg config.Config) (key string, payload []byte) {
	t.Helper()
	key, ok := sim.WarmKeyOf(cfg)
	if !ok {
		t.Fatal("config has no warm key")
	}
	ws, err := sim.Warmup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return key, sim.EncodeWarmState(ws)
}

// TestWarmSnapshotRunsMatchRun: for every design, organization and
// registered policy, a run from a warm state that was encoded, stored
// through the cache, read back and decoded DeepEquals sim.Run.
func TestWarmSnapshotRunsMatchRun(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range []dcache.Org{dcache.SetAssoc, dcache.DirectMapped} {
		base := warmConfig()
		base.Org = org
		key, payload := warmSnapshot(t, base)
		if err := c.PutWarm(key, payload); err != nil {
			t.Fatal(err)
		}
		stored, ok := c.GetWarm(key)
		if !ok {
			t.Fatalf("%v: stored snapshot missed", org)
		}
		for _, d := range core.Designs() {
			for _, alg := range sched.Names() {
				cfg := base
				cfg.Design, cfg.Algorithm = d, core.Algorithm(alg)
				ws, err := sim.DecodeWarmState(cfg, stored)
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", org, d, alg, err)
				}
				want, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.RunFrom(cfg, ws)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v/%v: run from the stored snapshot differs from sim.Run", org, d, alg)
				}
			}
		}
	}
}

// TestWarmEntryDamageReadsAsMiss: a flipped byte anywhere in the entry,
// a foreign schema version or snapshot format, an entry filed under
// another key, a truncation and an empty file all read as misses, and
// a re-warm's store over any of them reads back whole.
func TestWarmEntryDamageReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, payload := warmSnapshot(t, warmConfig())
	if err := c.PutWarm(key, payload); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(c.WarmPath(key))
	if err != nil {
		t.Fatal(err)
	}
	header := len(valid) - len(payload)
	patch := func(off int, f func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b[off:])
		return b
	}
	damaged := []struct {
		what string
		data []byte
	}{
		{"flipped payload byte", patch(header+len(payload)/2, func(b []byte) { b[0] ^= 0x10 })},
		{"flipped checksum byte", patch(header-1, func(b []byte) { b[0] ^= 0x01 })},
		{"flipped magic byte", patch(0, func(b []byte) { b[0] ^= 0x20 })},
		{"foreign schema", patch(8, func(b []byte) { binary.LittleEndian.PutUint32(b, uint32(config.SchemaVersion+1)) })},
		{"foreign format", patch(12, func(b []byte) { binary.LittleEndian.PutUint32(b, sim.WarmFormat+1) })},
		{"truncated", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"empty", nil},
	}
	for _, d := range damaged {
		if err := os.WriteFile(c.WarmPath(key), d.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.GetWarm(key); ok {
			t.Errorf("%s: entry trusted", d.what)
		}
	}
	// A whole entry filed under another key misses too: the envelope
	// binds the state to its address.
	other := "f" + key[1:]
	if err := os.WriteFile(c.WarmPath(other), valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetWarm(other); ok {
		t.Error("entry filed under another key trusted")
	}
	if err := c.PutWarm(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.GetWarm(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("re-stored snapshot does not read back whole")
	}
}

// checkWarmRewarm is the snapshot fault invariant: after a faulted
// store, a restarted process reads either the exact payload or a miss,
// and its re-warm's store lands and reads back whole.
func checkWarmRewarm(t *testing.T, dir, key string, payload []byte) {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after fault: %v", err)
	}
	if got, ok := c.GetWarm(key); ok && !bytes.Equal(got, payload) {
		t.Fatal("GetWarm trusted a damaged snapshot")
	}
	if err := c.PutWarm(key, payload); err != nil {
		t.Fatalf("re-warm store after fault: %v", err)
	}
	if got, ok := c.GetWarm(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("cache wedged after fault: the re-warm's snapshot does not read back")
	}
}

// TestFaultWarmEveryOp injects EIO and ENOSPC at each filesystem
// operation of a clean PutWarm+GetWarm cycle: no fault may surface a
// damaged snapshot or stop a re-warm's store from landing.
func TestFaultWarmEveryOp(t *testing.T) {
	key, payload := warmSnapshot(t, warmConfig())
	probe := cachefs.NewFault(cachefs.OS())
	pc, err := OpenFS(t.TempDir(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.PutWarm(key, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := pc.GetWarm(key); !ok {
		t.Fatal("clean GetWarm missed")
	}
	script := probe.OpLog()
	for _, errno := range []syscall.Errno{syscall.EIO, syscall.ENOSPC} {
		ordinal := map[cachefs.Op]int{}
		for _, op := range script {
			ordinal[op]++
			nth := ordinal[op]
			t.Run(fmt.Sprintf("%s/%s#%d", errno, op, nth), func(t *testing.T) {
				dir := t.TempDir()
				fault := cachefs.NewFault(cachefs.OS())
				c, err := OpenFS(dir, fault)
				if err != nil {
					t.Fatal(err)
				}
				fault.FailAt(op, nth, errno)
				perr := c.PutWarm(key, payload)
				got, ok := c.GetWarm(key)
				if ok && !bytes.Equal(got, payload) {
					t.Fatal("GetWarm trusted a damaged snapshot")
				}
				if perr != nil && ok {
					t.Log("failed store left an older whole entry (acceptable)")
				}
				checkWarmRewarm(t, dir, key, payload)
			})
		}
	}
}

// TestFaultWarmTornWrite: a store whose payload write lands only a
// prefix (torn by ENOSPC) fails, never becomes a readable snapshot, and
// leaves the key re-warmable.
func TestFaultWarmTornWrite(t *testing.T) {
	key, payload := warmSnapshot(t, warmConfig())
	for _, write := range []int{1, 2} { // the envelope header, then the payload
		dir := t.TempDir()
		fault := cachefs.NewFault(cachefs.OS())
		c, err := OpenFS(dir, fault)
		if err != nil {
			t.Fatal(err)
		}
		fault.PartialWriteAt(write, 10, syscall.ENOSPC)
		if err := c.PutWarm(key, payload); err == nil {
			t.Fatalf("write %d: store succeeded through a torn write", write)
		}
		if _, ok := c.GetWarm(key); ok {
			t.Fatalf("write %d: torn snapshot became readable", write)
		}
		checkWarmRewarm(t, dir, key, payload)
	}
}

// TestFaultWarmCrashBeforeRename: the process dies before the rename
// publishes the snapshot. Nothing is visible, the abandoned temp file
// is swept by a later Open once stale, and the key re-warms.
func TestFaultWarmCrashBeforeRename(t *testing.T) {
	key, payload := warmSnapshot(t, warmConfig())
	dir := t.TempDir()
	fault := cachefs.NewFault(cachefs.OS())
	c, err := OpenFS(dir, fault)
	if err != nil {
		t.Fatal(err)
	}
	fault.CrashAt(cachefs.OpRename, 1)
	if err := c.PutWarm(key, payload); err == nil {
		t.Fatal("store succeeded through a crash at the rename")
	}
	if _, ok := c.GetWarm(key); ok {
		t.Fatal("snapshot visible although the rename never happened")
	}
	temps, err := filepath.Glob(filepath.Join(dir, key+".warm.tmp*"))
	if err != nil || len(temps) != 1 {
		t.Fatalf("the crashed store left temp files %v (%v), want one", temps, err)
	}
	checkWarmRewarm(t, dir, key, payload)

	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(temps[0], old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(temps[0]); !os.IsNotExist(err) {
		t.Fatal("a stale snapshot temp file survived Open")
	}
	if _, err := os.Stat(c.WarmPath(key)); err != nil {
		t.Fatalf("Open swept the snapshot itself: %v", err)
	}
}
