package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"

	"dcasim/internal/cachefs"
	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/rescache"
	"dcasim/internal/sim"
	"dcasim/internal/workload"
)

// goldenFigureNames is the golden render set's figures that simulate:
// Figs. 8–19 and the three extension studies, each its own Ensure pass.
var goldenFigureNames = []string{
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
	"twtr", "sched", "bear",
}

// warmCounter is a fake simulator that counts warm-ups — each full run,
// with or without handing out its warm state — and returns results
// every figure can aggregate. Its warm states round-trip through a fake
// codec, so a stored snapshot restores without a real warm-up.
type warmCounter struct {
	mu      sync.Mutex
	warmups int
	keys    map[string]bool // warm keys of every simulated config
}

func (w *warmCounter) install(r *Runner) {
	w.keys = map[string]bool{}
	note := func(cfg config.Config, warm bool) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if warm {
			w.warmups++
		}
		if key, ok := sim.WarmKeyOf(cfg); ok {
			w.keys[key] = true
		}
	}
	r.run = func(cfg config.Config) (sim.Result, error) {
		note(cfg, true)
		return countedResult(cfg), nil
	}
	r.runSaving = func(cfg config.Config, save func(*sim.WarmState)) (sim.Result, error) {
		note(cfg, true)
		save(new(sim.WarmState))
		return countedResult(cfg), nil
	}
	r.runFrom = func(cfg config.Config, _ *sim.WarmState) (sim.Result, error) {
		note(cfg, false)
		return countedResult(cfg), nil
	}
	r.encodeWarm = func(*sim.WarmState) []byte { return []byte("fake warm state") }
	r.decodeWarm = func(config.Config, []byte) (*sim.WarmState, error) { return new(sim.WarmState), nil }
}

// countedResult is a result with a positive value for every metric a
// figure reads.
func countedResult(cfg config.Config) sim.Result {
	res := sim.Result{Benchmarks: cfg.Benchmarks, L2MissLatencyNS: 1, L2MissRate: 0.5,
		TagCacheLookups: 2, TagCacheHits: 1, DRAMTagAccesses: 1, MainMemReads: 1, MainMemWrites: 1}
	for range cfg.Benchmarks {
		res.IPC = append(res.IPC, 1)
		res.FinishNS = append(res.FinishNS, 1)
	}
	res.DCache.ReadReqs, res.DCache.ReadHits, res.DCache.ReadsCompleted, res.DCache.ReadLatency = 2, 1, 1, 1
	res.DCache.WritebackReqs, res.DCache.BEARElided = 2, 1
	res.DRAM.Accesses, res.DRAM.Turnarounds, res.DRAM.TagAccesses = 4, 1, 1
	res.DRAM.Reads, res.DRAM.ReadRowHit = 2, 1
	res.Ctrl.PRIssued, res.Ctrl.LRIssued, res.Ctrl.OFSIssues, res.Ctrl.WritesIssued, res.Ctrl.ForcedFlushes = 1, 1, 1, 1, 1
	return res
}

// renderGolden evaluates every simulating figure of the golden render
// set through a fresh runner over the given cache directory ("" for
// none) and returns the runner and its fake simulator.
func renderGolden(t *testing.T, dir string) (*Runner, *warmCounter) {
	t.Helper()
	r := NewRunner(config.Test(), workload.TableI()[:2], 2)
	if dir != "" {
		c, err := rescache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r.SetCache(c)
	}
	w := &warmCounter{}
	w.install(r)
	for _, name := range goldenFigureNames {
		if _, err := r.Figure(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := r.CacheErr(); err != nil {
		t.Fatal(err)
	}
	return r, w
}

// TestWarmSnapshotsWarmEachKeyOnce: over the golden figure set, a
// runner without a cache warms up once per warm key per figure pass
// (34 warm-ups for 18 keys); with a cache, once per key (18), because
// later passes restore the stored snapshots; and a fresh runner on that
// cache, with the result entries deleted, simulates every run again
// without a single warm-up. Snapshot hits count neither as
// simulations nor as cache hits.
func TestWarmSnapshotsWarmEachKeyOnce(t *testing.T) {
	uncached, w := renderGolden(t, "")
	if w.warmups != 34 || len(w.keys) != 18 {
		t.Fatalf("without a cache: %d warm-ups of %d warm keys, want 34 of 18", w.warmups, len(w.keys))
	}
	runs := uncached.SimRuns()

	dir := t.TempDir()
	cold, w := renderGolden(t, dir)
	if w.warmups != len(w.keys) || w.warmups != 18 {
		t.Fatalf("with a cache: %d warm-ups of %d warm keys, want one per key (18)", w.warmups, len(w.keys))
	}
	if cold.SimRuns() != runs || cold.CacheHits() != 0 {
		t.Fatalf("with a cache: %d simulations and %d cache hits, want %d and 0", cold.SimRuns(), cold.CacheHits(), runs)
	}

	results, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(results) == 0 {
		t.Fatalf("no result entries stored (%v)", err)
	}
	for _, p := range results {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	fresh, w := renderGolden(t, dir)
	if w.warmups != 0 {
		t.Fatalf("a fresh runner on the snapshots warmed up %d times, want 0", w.warmups)
	}
	if fresh.SimRuns() != runs || fresh.CacheHits() != 0 {
		t.Fatalf("restored render: %d simulations and %d cache hits, want %d and 0", fresh.SimRuns(), fresh.CacheHits(), runs)
	}
}

// snapshotConfigs returns three configs of one warm key (they differ
// only in the design and the BEAR probe) at a budget small enough for
// real simulations.
func snapshotConfigs() (a, b, c config.Config) {
	a = fakeCfg(7)
	a.CacheSizeBytes, a.L2Bytes = 512<<10, 128<<10
	a.InstrPerCore, a.WarmMemops = 8_000, 12_000
	a.Design = core.CD
	b, c = a, a
	b.Design = core.DCA
	c.Design, c.BEARProbe = core.DCA, true
	return a, b, c
}

// TestFaultWarmSnapshotRewarms: a snapshot store torn by ENOSPC or
// failed by EIO, or a stored snapshot damaged on disk afterwards, costs
// the next runner a warm-up — never a wrong result. The runs are real
// simulations, checked against sim.Run.
func TestFaultWarmSnapshotRewarms(t *testing.T) {
	a, b, c := snapshotConfigs()
	want, err := sim.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	// The store follows the claim of a's result key (one write), and
	// writes the envelope header, then the payload.
	faults := map[string]func(f *cachefs.Fault){
		"torn payload": func(f *cachefs.Fault) { f.PartialWriteAt(3, 100, syscall.ENOSPC) },
		"EIO at fsync": func(f *cachefs.Fault) { f.FailAt(cachefs.OpFileSync, 1, syscall.EIO) },
		"crash":        func(f *cachefs.Fault) { f.CrashAt(cachefs.OpRename, 1) },
	}
	for name, arm := range faults {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fault := cachefs.NewFault(cachefs.OS())
			cache, err := rescache.OpenFS(dir, fault)
			if err != nil {
				t.Fatal(err)
			}
			arm(fault)
			r := NewRunner(config.Test(), nil, 1)
			r.SetCache(cache)
			if _, err := r.Run(a); err != nil {
				t.Fatal(err)
			}
			if r.CacheErr() == nil {
				t.Fatal("the faulted store was not reported")
			}
			checkRewarm(t, dir, b, c, want)
		})
	}
	t.Run("flipped byte", func(t *testing.T) {
		dir := t.TempDir()
		cache, err := rescache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(config.Test(), nil, 1)
		r.SetCache(cache)
		if _, err := r.Run(a); err != nil {
			t.Fatal(err)
		}
		key, _ := sim.WarmKeyOf(a)
		data, err := os.ReadFile(cache.WarmPath(key))
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-7] ^= 0x02
		if err := os.WriteFile(cache.WarmPath(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkRewarm(t, dir, b, c, want)
	})
}

// checkRewarm runs cfg through a fresh runner over dir on the real
// filesystem: the run must warm up exactly once (the stored snapshot,
// if any, is damaged or missing) and return want. The re-warm stores a
// whole snapshot, which next, a third config of the key, restores.
func checkRewarm(t *testing.T, dir string, cfg, next config.Config, want sim.Result) {
	t.Helper()
	cache, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(config.Test(), nil, 1)
	r.SetCache(cache)
	warmups := 0
	r.runSaving = func(cfg config.Config, save func(*sim.WarmState)) (sim.Result, error) {
		warmups++
		return sim.RunSaving(cfg, save)
	}
	got, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmups != 1 {
		t.Fatalf("%d warm-ups, want 1 (a re-warm)", warmups)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the re-warmed run differs from sim.Run")
	}
	if err := r.CacheErr(); err != nil {
		t.Fatalf("the re-warm's store failed: %v", err)
	}
	if _, err := r.Run(next); err != nil {
		t.Fatal(err)
	}
	if warmups != 1 {
		t.Fatal("warmed up again although the re-warm stored a whole snapshot")
	}
}
