package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dram"
	"dcasim/internal/exp"
	"dcasim/internal/rescache"
	"dcasim/internal/sim"
)

// job is one benchmark workload: a set-up, repeated per run, then a
// timed operation repeated for the measured seconds.
type job interface {
	// setup prepares the operation and checks one untimed output.
	setup() error
	// op performs one timed operation and checks its output; an error
	// is a failed or wrong operation. tr is nil on untraced operations.
	op(tr *tracer) error
	// instrPerOp is the simulated timed-region instructions, summed over
	// cores and runs, of the results one operation delivers.
	instrPerOp() int64
	// ipcSum is the IPC summed over every core of every delivered result.
	ipcSum() float64
	// opsPerSample is how many consecutive operations one timing sample
	// averages, so that a sample lasts long enough that a brief stall of
	// the host moves it little.
	opsPerSample() int
	// layers adds the per-layer metrics of the traced operations (ops
	// of them, recorded in tr) and of any isolated replays.
	layers(tr *tracer, ops int, m metricValues) error
}

// benchWorkers is the worker count of every figure runner: the
// machine's CPUs, at most two, so the figure workloads measure the same
// parallelism on any host with two or more CPUs.
func benchWorkers() int { return min(2, runtime.NumCPU()) }

// figJob is figures_cold (cached false) and figures_cached (cached
// true): the golden render set at the test preset over two Table I
// mixes, through a fresh runner with a persistent result cache attached.
type figJob struct {
	cached bool
	seed   uint64
	work   string // directory for the run's result caches
	want   expectation

	cfgs    []config.Config // the distinct simulations of one render
	results []sim.Result    // their results, in cfgs order
	instr   int64
	ipc     float64

	cache     *rescache.Cache // cached: the populated cache; cold: the last op's
	runner    *exp.Runner     // the last op's runner
	requested int             // configs the last traced op requested, summed over Ensure passes
	ndir      int
}

func (j *figJob) newCache() (*rescache.Cache, error) {
	j.ndir++
	return rescache.Open(filepath.Join(j.work, fmt.Sprintf("cache-%d", j.ndir)))
}

func (j *figJob) newRunner(c *rescache.Cache) *exp.Runner {
	r := exp.NewRunner(figureBase(j.seed), figureMixes(), benchWorkers())
	r.SetCache(c)
	return r
}

// setup renders once into a fresh cache (for figures_cached, the cache
// the operations then read), checks the render, and checks the config
// enumeration against the runs the runner actually executed.
func (j *figJob) setup() error {
	cfgs, err := figureConfigs(figureBase(j.seed), figureMixes())
	if err != nil {
		return err
	}
	c, err := j.newCache()
	if err != nil {
		return err
	}
	r := j.newRunner(c)
	out, err := renderFigures(r, nil)
	if err != nil {
		return err
	}
	if err := j.want.check([]byte(out)); err != nil {
		return fmt.Errorf("set-up render: %w", err)
	}
	if err := r.CacheErr(); err != nil {
		return err
	}
	runs := r.SimRuns()
	if runs != int64(len(cfgs)) {
		return fmt.Errorf("render executed %d simulations, the enumeration lists %d", runs, len(cfgs))
	}
	j.cfgs, j.results, j.instr, j.ipc = cfgs, nil, 0, 0
	for _, cfg := range cfgs {
		res, err := r.Run(cfg)
		if err != nil {
			return err
		}
		j.results = append(j.results, res)
		j.instr += cfg.InstrPerCore * int64(len(cfg.Benchmarks))
		for _, ipc := range res.IPC {
			j.ipc += ipc
		}
	}
	if r.SimRuns() != runs {
		return fmt.Errorf("the enumeration lists configs the render did not run")
	}
	j.cache, j.runner = c, r
	return nil
}

func (j *figJob) op(tr *tracer) error {
	c := j.cache
	if !j.cached {
		var err error
		if c, err = j.newCache(); err != nil {
			return err
		}
	}
	r := j.newRunner(c)
	requested := 0
	if tr != nil {
		r.SetProgress(func(p exp.Progress) {
			if p.Done == p.Total {
				requested += p.Total
			}
		})
	}
	out, err := renderFigures(r, tr)
	if err != nil {
		return err
	}
	if err := j.want.check([]byte(out)); err != nil {
		return err
	}
	if err := r.CacheErr(); err != nil {
		return err
	}
	wantRuns, wantHits := int64(len(j.cfgs)), int64(0)
	if j.cached {
		wantRuns, wantHits = 0, wantRuns
	}
	if r.SimRuns() != wantRuns || r.CacheHits() != wantHits {
		return fmt.Errorf("%d simulations and %d cache hits, want %d and %d", r.SimRuns(), r.CacheHits(), wantRuns, wantHits)
	}
	j.cache, j.runner, j.requested = c, r, requested
	return nil
}

func (j *figJob) instrPerOp() int64 { return j.instr }
func (j *figJob) ipcSum() float64   { return j.ipc }

// opsPerSample is 1 for a cold render (about 2 s) and cachedOpsPerSample
// for a cached one (about 60 ms).
func (j *figJob) opsPerSample() int {
	if j.cached {
		return cachedOpsPerSample
	}
	return 1
}

// cachedOpsPerSample makes a figures_cached sample about 0.6 s: a
// single 60 ms render put the tail percentile inside any half-second
// stall of a shared host.
const cachedOpsPerSample = 10

func (j *figJob) layers(tr *tracer, ops int, m metricValues) error {
	r := j.runner
	m["exp.sim_runs"] = float64(r.SimRuns())
	m["exp.cache_hits"] = float64(r.CacheHits())
	if j.requested > 0 {
		m["exp.dedupe_ratio"] = float64(r.SimRuns()+r.CacheHits()) / float64(j.requested)
	}
	for _, name := range figureNames {
		m["exp.figure_ms."+name] = 1e3 * tr.total("exp.figure."+name) / float64(ops)
	}
	m["stats.render_ms"] = 1e3 * tr.total("stats.render") / float64(ops)
	modelCounts(j.results, m)

	// Isolated replays of the operation's simulations and cache traffic.
	if !j.cached {
		root := tr.begin("replay.simulations", 0)
		var sum assembly
		for i, cfg := range j.cfgs {
			res, a, err := assemble(cfg, tr, root)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(res, j.results[i]) {
				return fmt.Errorf("traced assembly of %.12s… differs from sim.Run", cfg.Hash())
			}
			sum.add(a)
			sum.gens = append(sum.gens, a.gens...)
		}
		tr.end(root)
		assemblyMetrics(sum, 1, m)
	}

	t0 := time.Now()
	const hashReps = 20
	for k := 0; k < hashReps; k++ {
		for _, cfg := range j.cfgs {
			hashSink = cfg.Hash()
		}
	}
	m["config.hash_us"] = 1e6 * time.Since(t0).Seconds() / float64(hashReps*len(j.cfgs))

	t0 = time.Now()
	for _, cfg := range j.cfgs {
		if _, ok := j.cache.Get(cfg.Hash()); !ok {
			return fmt.Errorf("rescache.Get missed %.12s…", cfg.Hash())
		}
	}
	m["rescache.get_us"] = 1e6 * time.Since(t0).Seconds() / float64(len(j.cfgs))

	fresh, err := j.newCache()
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i, cfg := range j.cfgs {
		if err := fresh.Put(cfg.Hash(), j.results[i]); err != nil {
			return err
		}
	}
	m["rescache.put_ms"] = 1e3 * time.Since(t0).Seconds() / float64(len(j.cfgs))
	return nil
}

// hashSink keeps the timed config.Hash calls observable.
var hashSink string

// timedLongConfig is the timed_long run: one 4-core run at the Bench
// geometry on a store-heavy plus pointer-chasing mix under DCA/BLISS,
// with a minimal warm budget and a long timed region, so the event
// kernel, the controllers and the DRAM-cache request path do almost all
// the work.
func timedLongConfig(seed uint64) config.Config {
	c := config.Bench()
	c.Benchmarks = []string{"lbm", "mcf", "milc", "libquantum"}
	c.Design = core.DCA
	c.Algorithm = core.AlgBLISS
	c.WarmMemops = 20_000
	c.InstrPerCore = 2_000_000
	c.Seed = seed
	return c
}

// timedJob is timed_long: one sim.Run per operation; traced operations
// run the traced assembly instead.
type timedJob struct {
	cfg  config.Config
	want expectation
	res  sim.Result // sim.Run's result, from set-up

	sum assembly // traced operations, summed
}

func (j *timedJob) setup() error {
	res, err := sim.Run(j.cfg)
	if err != nil {
		return err
	}
	if err := j.want.checkResult(res); err != nil {
		return fmt.Errorf("set-up run: %w", err)
	}
	j.res = res
	return nil
}

func (j *timedJob) op(tr *tracer) error {
	if tr == nil {
		res, err := sim.Run(j.cfg)
		if err != nil {
			return err
		}
		return j.want.checkResult(res)
	}
	res, a, err := assemble(j.cfg, tr, 0)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(res, j.res) {
		return fmt.Errorf("traced assembly differs from sim.Run")
	}
	j.sum.add(a)
	j.sum.gens = a.gens // one operation's generators
	return nil
}

func (j *timedJob) instrPerOp() int64 { return j.cfg.InstrPerCore * int64(len(j.cfg.Benchmarks)) }
func (j *timedJob) opsPerSample() int { return 1 }

func (j *timedJob) ipcSum() float64 {
	s := 0.0
	for _, ipc := range j.res.IPC {
		s += ipc
	}
	return s
}

func (j *timedJob) layers(tr *tracer, ops int, m metricValues) error {
	assemblyMetrics(j.sum, ops, m)
	modelCounts([]sim.Result{j.res}, m)
	return nil
}

// assemblyMetrics reports the traced assemblies of ops operations per
// operation, and replays their generators in isolation. a.gens must be
// the generators of one operation.
func assemblyMetrics(a assembly, ops int, m metricValues) {
	n := float64(ops)
	total := (a.build + a.warm + a.timed).Seconds()
	m["sim.build_ms"] = 1e3 * a.build.Seconds() / n
	m["cpu.warm_s"] = a.warm.Seconds() / n
	m["sim.timed_s"] = a.timed.Seconds() / n
	if total > 0 {
		m["cpu.warm_share"] = a.warm.Seconds() / total
	}
	m["event.steps"] = float64(a.steps) / n
	if a.steps > 0 {
		m["event.ns_per_step"] = float64(a.timed.Nanoseconds()) / float64(a.steps)
	}
	ops64, d := replayGens(a.gens)
	m["workload.ops"] = float64(ops64)
	if ops64 > 0 {
		m["workload.ns_per_op"] = float64(d.Nanoseconds()) / float64(ops64)
	}
}

// modelCounts reports the simulated controller, DRAM-cache and DRAM
// counts of the delivered results. They depend only on the configs, so
// no performance change may move them.
func modelCounts(results []sim.Result, m metricValues) {
	var ctrl core.Stats
	var d dram.Stats
	var hits, reads int64
	for _, r := range results {
		ctrl.PRIssued += r.Ctrl.PRIssued
		ctrl.LRIssued += r.Ctrl.LRIssued
		ctrl.WritesIssued += r.Ctrl.WritesIssued
		ctrl.OFSIssues += r.Ctrl.OFSIssues
		ctrl.ScheduleAllOn += r.Ctrl.ScheduleAllOn
		d.Add(r.DRAM)
		hits += r.DCache.ReadHits
		reads += r.DCache.ReadReqs
	}
	m["core.pr_issued"] = float64(ctrl.PRIssued)
	m["core.lr_issued"] = float64(ctrl.LRIssued)
	m["core.writes_issued"] = float64(ctrl.WritesIssued)
	m["core.ofs_issues"] = float64(ctrl.OFSIssues)
	m["core.scheduleall_on"] = float64(ctrl.ScheduleAllOn)
	if reads > 0 {
		m["dcache.read_hit_rate"] = float64(hits) / float64(reads)
	}
	m["dram.read_row_hit_rate"] = d.ReadRowHitRate()
	m["dram.accesses_per_turnaround"] = d.AccessesPerTurnaround()
}

// newJob builds the named workload for a seed. work is a directory the
// job may fill; the caller removes it.
func newJob(name string, seed uint64, work string, ref reference) (job, error) {
	switch name {
	case "figures_cold", "figures_cached":
		want, err := figureExpectation(seed, ref)
		if err != nil {
			return nil, err
		}
		return &figJob{cached: name == "figures_cached", seed: seed, work: work, want: want}, nil
	case "timed_long":
		return &timedJob{
			cfg:  timedLongConfig(seed),
			want: expectation{digest: ref.TimedLong[strconv.FormatUint(seed, 10)]},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have figures_cold, figures_cached, timed_long)", name)
}

// removeAll removes a work directory, reporting a failure on stderr: a
// leftover directory under the build output costs disk, not results.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "dcabench:", err)
	}
}
