package main

import (
	"fmt"
	"time"

	"dcasim/internal/cache"
	"dcasim/internal/config"
	"dcasim/internal/cpu"
	"dcasim/internal/dcache"
	"dcasim/internal/event"
	"dcasim/internal/mainmem"
	"dcasim/internal/sim"
	"dcasim/internal/tagcache"
	"dcasim/internal/workload"
)

// countingSource counts the operations a core draws from its generator,
// so the generator can be replayed in isolation for the same count.
type countingSource struct {
	src workload.Source
	n   int64
}

func (c *countingSource) Next() workload.Op {
	c.n++
	return c.src.Next()
}

// genSpec identifies one core's generator and how many operations the
// run drew from it.
type genSpec struct {
	prof    workload.Profile
	seed    uint64
	base    int64
	wsScale float64
	ops     int64
}

// assembly is what one traced assembly measured: host time per phase,
// event-kernel steps of the timed region, and the generators it drew.
type assembly struct {
	build, warm, timed time.Duration
	steps              uint64
	gens               []genSpec
}

// add accumulates another assembly's host times and steps.
func (a *assembly) add(b assembly) {
	a.build += b.build
	a.warm += b.warm
	a.timed += b.timed
	a.steps += b.steps
}

// assemble runs cfg the way sim.Run does, through the same public
// constructors and in the same order, with spans around construction,
// each functional warm-up round and the timed event loop. Its Result
// must DeepEqual sim.Run's; the traced run and the self-tests check
// that. Trace record and replay are not part of any benchmark workload
// and are rejected.
func assemble(cfg config.Config, tr *tracer, parent int) (sim.Result, assembly, error) {
	var a assembly
	if err := cfg.Validate(); err != nil {
		return sim.Result{}, a, err
	}
	if cfg.ReplayPath() != "" || cfg.RecordPath != "" {
		return sim.Result{}, a, fmt.Errorf("assemble: trace record/replay is not assembled")
	}
	run := tr.begin("sim.run", parent)
	defer tr.end(run)

	t0 := time.Now()
	build := tr.begin("sim.build", run)
	srcs := make([]*countingSource, len(cfg.Benchmarks))
	for i, bench := range cfg.Benchmarks {
		prof, err := workload.Lookup(bench)
		if err != nil {
			return sim.Result{}, a, err
		}
		g := genSpec{prof: prof, seed: cfg.Seed*1000003 + uint64(i)*7919, base: int64(i) << 40, wsScale: cfg.WSScale}
		a.gens = append(a.gens, g)
		srcs[i] = &countingSource{src: workload.NewGen(g.prof, g.seed, g.base, g.wsScale)}
	}
	eng := &event.Engine{}
	mem := mainmem.New(eng, cfg.MainMem)
	dcCfg := dcache.Config{
		Org:       cfg.Org,
		SizeBytes: cfg.CacheSizeBytes,
		DRAM:      cfg.DRAMGeometry(),
		Timing:    cfg.Timing,
		XORRemap:  cfg.XORRemap,
		Ctrl:      cfg.CtrlConfig(),
		UseMAPI:   cfg.UseMAPI,
		BEARProbe: cfg.BEARProbe,
		Cores:     len(srcs),
	}
	if cfg.TagCacheKB > 0 {
		tc := tagcache.DefaultConfig(cfg.TagCacheKB << 10)
		dcCfg.TagCache = &tc
	}
	dc, err := dcache.New(eng, dcCfg, mem)
	if err != nil {
		return sim.Result{}, a, err
	}
	l2arr, err := cache.New(cfg.L2Bytes, dcache.BlockBytes, cfg.L2Ways)
	if err != nil {
		return sim.Result{}, a, err
	}
	l2 := cpu.NewL2(eng, l2arr, dc, cfg.L2HitLat, cfg.LeeWriteback)
	cores := make([]*cpu.Core, len(srcs))
	for i, src := range srcs {
		l1, err := cache.New(cfg.L1Bytes, dcache.BlockBytes, cfg.L1Ways)
		if err != nil {
			return sim.Result{}, a, err
		}
		cores[i] = cpu.NewCore(eng, i, cfg.CPU, src, l1, l2)
	}
	tr.end(build)
	t1 := time.Now()
	a.build = t1.Sub(t0)

	const warmRound = 1024 // sim.Run's interleaving round
	for done := int64(0); done < cfg.WarmMemops; done += warmRound {
		n := warmRound
		if cfg.WarmMemops-done < int64(n) {
			n = int(cfg.WarmMemops - done)
		}
		round := tr.begin("cpu.warm", run)
		for _, c := range cores {
			c.Warm(int64(n))
		}
		tr.end(round)
	}
	dc.ResetStats()
	l2.ResetStats()
	mem.ResetStats()
	t2 := time.Now()
	a.warm = t2.Sub(t1)

	timed := tr.begin("sim.timed", run)
	remaining := len(cores)
	for _, c := range cores {
		c.Run(cfg.InstrPerCore, func(*cpu.Core) { remaining-- })
	}
	steps0 := eng.Steps()
	for remaining > 0 {
		if !eng.Step() {
			return sim.Result{}, a, fmt.Errorf("assemble: deadlock with %d cores unfinished at %v", remaining, eng.Now())
		}
	}
	a.steps = eng.Steps() - steps0
	tr.end(timed)
	a.timed = time.Since(t2)

	res := sim.Result{
		Benchmarks:      append([]string(nil), cfg.Benchmarks...),
		DCache:          dc.Stats(),
		DRAM:            dc.DRAMStats(),
		Ctrl:            dc.CtrlStats(),
		L2MissLatencyNS: l2.AvgMissLatency().NS(),
		L2Writebacks:    l2.Writebacks,
		LeeEager:        l2.LeeEager,
		MainMemReads:    mem.Reads,
		MainMemWrites:   mem.Writes,
	}
	if l2.Reads > 0 {
		res.L2MissRate = float64(l2.ReadMisses) / float64(l2.Reads)
	}
	res.DRAMTagAccesses = res.DRAM.TagAccesses
	if tc := dc.TagCache(); tc != nil {
		res.TagCacheLookups = tc.Lookups
		res.TagCacheHits = tc.Hits
	}
	for _, c := range cores {
		res.IPC = append(res.IPC, c.IPC())
		res.FinishNS = append(res.FinishNS, c.FinishTime().NS())
	}
	for i, s := range srcs {
		a.gens[i].ops = s.n
	}
	return res, a, nil
}

// genSink keeps the replayed operations observable so the compiler
// cannot drop the generator calls.
var genSink workload.Op

// replayGens draws the same operation count from identically seeded
// fresh generators, with nothing else running, and returns the
// operation count and the host time it took.
func replayGens(gens []genSpec) (int64, time.Duration) {
	var ops int64
	t0 := time.Now()
	for _, g := range gens {
		gen := workload.NewGen(g.prof, g.seed, g.base, g.wsScale)
		for i := int64(0); i < g.ops; i++ {
			genSink = gen.Next()
		}
		ops += g.ops
	}
	return ops, time.Since(t0)
}
