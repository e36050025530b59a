// Command dcatrace works with dcasim's workload traces. It inspects the
// synthetic generators (dump, summary, list) and drives the trace
// subsystem: recording a run's operation streams to a .dct file,
// replaying a file through the full simulator, and verifying that a
// record→replay round trip reproduces the live run bit for bit.
//
// Usage:
//
//	dcatrace -bench mcf -n 20                 # dump the first 20 operations
//	dcatrace -bench lbm -summary -n 100000    # aggregate traffic statistics
//	dcatrace -list                            # available benchmarks
//
//	dcatrace -record foo.dct -mix mcf,lbm,libquantum,omnetpp -scale test
//	dcatrace -replay foo.dct -design dca -org sa [-alg name]
//	dcatrace -verify -mix mcf,lbm,libquantum,omnetpp -scale test [-j N]
//	         [-cache dir] [-alg name]
//
// -record runs the mix live and captures every operation each core
// consumes (warm-up included). -replay simulates from the file: core
// count, benchmark names, and run budgets come from the trace header,
// while the machine under test (design, organization, …) comes from the
// flags — one recording drives any controller design and organization.
// -alg selects the base scheduling algorithm by registered policy name
// (see `dcasim -list-policies` and docs/adding-a-policy.md).
// -verify performs the round trip for every design × organization and
// fails loudly unless each replayed result is bit-identical to its live
// counterpart; the grid fans out over -j parallel workers (default: all
// CPUs) with output committed in grid order. The live halves of the
// grid are ordinary cacheable simulations, so -cache (default
// $DCASIM_CACHE) makes repeated verifications skip them; the replay
// halves always run — their input is the trace file, whose contents the
// cache key does not cover.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/exp"
	"dcasim/internal/rescache"
	"dcasim/internal/sim"
	"dcasim/internal/workload"

	// Link the full in-tree scheduling-policy set (ATLAS, ...) so -alg
	// resolves every registered name.
	_ "dcasim/internal/sched/policies"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcatrace: ")
	var (
		bench   = flag.String("bench", "mcf", "benchmark name (dump/summary modes)")
		n       = flag.Int("n", 20, "operations to generate (dump/summary modes)")
		seed    = flag.Uint64("seed", 1, "generator seed")
		scale   = flag.Float64("wsscale", 1.0, "working-set scale (dump/summary modes)")
		summary = flag.Bool("summary", false, "print aggregate statistics instead of the trace")
		list    = flag.Bool("list", false, "list available benchmarks and their profiles")

		record   = flag.String("record", "", "record a live run's operation streams to this .dct file")
		replay   = flag.String("replay", "", "replay a .dct file through the simulator")
		verify   = flag.Bool("verify", false, "record+replay round trip, compare bit for bit across all designs and organizations")
		mix      = flag.String("mix", "soplex,mcf,gcc,libquantum", "comma-separated benchmarks, one per core (record/verify modes)")
		cfgName  = flag.String("scale", "test", "configuration scale for record/replay/verify: test or bench")
		design   = flag.String("design", "dca", "controller design: cd, rod, or dca (replay/record modes)")
		alg      = flag.String("alg", "bliss", "base scheduling algorithm, a registered policy name (record/replay/verify modes)")
		org      = flag.String("org", "sa", "cache organization: sa or dm (replay/record modes)")
		workers  = flag.Int("j", runtime.NumCPU(), "parallel workers for the -verify design x organization grid")
		cacheDir = flag.String("cache", os.Getenv("DCASIM_CACHE"), "persistent result cache for the -verify live runs (default $DCASIM_CACHE; empty = no cache)")
	)
	flag.IntVar(workers, "workers", *workers, "alias for -j")
	flag.Parse()
	if err := exp.ValidateWorkers(*workers); err != nil {
		log.Fatal(err)
	}

	switch {
	case *list:
		listProfiles()
	case *record != "":
		runRecord(*record, *mix, *cfgName, *design, *alg, *org, *seed)
	case *replay != "":
		runReplay(*replay, *cfgName, *design, *alg, *org)
	case *verify:
		runVerify(*mix, *cfgName, *alg, *seed, *workers, *cacheDir)
	case *summary:
		summarize(*bench, *seed, *scale, *n)
	default:
		dump(*bench, *seed, *scale, *n)
	}
}

// baseConfig builds the simulation config for the record/replay/verify
// modes from the shared config parsing helpers.
func baseConfig(cfgName, design, alg, org string) config.Config {
	cfg, err := config.ParsePreset(cfgName)
	if err != nil || cfgName == "paper" {
		log.Fatalf("unknown scale %q (want test or bench)", cfgName)
	}
	if cfg.Design, err = core.ParseDesign(design); err != nil {
		log.Fatal(err)
	}
	if cfg.Algorithm, err = core.ParseAlgorithm(alg); err != nil {
		log.Fatal(err)
	}
	if cfg.Org, err = dcache.ParseOrg(org); err != nil {
		log.Fatal(err)
	}
	return cfg
}

func printResult(res sim.Result) {
	for i, b := range res.Benchmarks {
		fmt.Printf("core %d  %-12s IPC %.4f  finished at %.0f ns\n", i, b, res.IPC[i], res.FinishNS[i])
	}
	fmt.Printf("dram cache reads %d (hit %.1f%%), dram accesses %d, main mem reads %d\n",
		res.DCache.ReadReqs, 100*res.DCache.ReadHitRate(), res.DRAM.Accesses, res.MainMemReads)
}

func runRecord(path, mix, cfgName, design, alg, org string, seed uint64) {
	cfg := baseConfig(cfgName, design, alg, org)
	cfg.Benchmarks = strings.Split(mix, ",")
	cfg.Seed = seed
	cfg.RecordPath = path
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printResult(res)
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %s: %d cores, %d bytes\n", path, len(res.Benchmarks), info.Size())
}

func runReplay(path, cfgName, design, alg, org string) {
	cfg := baseConfig(cfgName, design, alg, org)
	cfg.TracePath = path
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %s under %v/%v\n", path, cfg.Design, cfg.Org)
	printResult(res)
}

// runVerify records the mix once, then checks that replaying the file
// reproduces a live run bit for bit under every design × organization.
// The grid cells are independent (each replay opens its own handle on
// the recorded trace), so they fan out over a bounded pool of workers;
// per-cell reports are committed by grid index, keeping the output
// byte-identical at every -j. The live halves route through an exp
// runner so a persistent cache (when configured) can satisfy them;
// replays and the recording never touch the cache — exp.Cacheable
// excludes them, since the cache key covers the trace path, not the
// trace bytes.
func runVerify(mix, cfgName, alg string, seed uint64, workers int, cacheDir string) {
	dir, err := os.MkdirTemp("", "dcatrace-verify")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "verify.dct")

	rec := baseConfig(cfgName, "cd", alg, "sa")
	rec.Benchmarks = strings.Split(mix, ",")
	rec.Seed = seed
	rec.RecordPath = path
	if _, err := sim.Run(rec); err != nil {
		log.Fatal(err)
	}

	runner := exp.NewRunner(baseConfig(cfgName, "cd", alg, "sa"), nil, workers)
	if cacheDir != "" {
		cache, err := rescache.Open(cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		runner.SetCache(cache)
	}

	type cell struct {
		d core.Design
		o dcache.Org
	}
	var cells []cell
	for _, d := range core.Designs() {
		for _, o := range []dcache.Org{dcache.SetAssoc, dcache.DirectMapped} {
			cells = append(cells, cell{d, o})
		}
	}

	reports := make([]string, len(cells))
	failures := make([]bool, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			live := baseConfig(cfgName, "cd", alg, "sa")
			live.Benchmarks = strings.Split(mix, ",")
			live.Seed = seed
			live.Design, live.Org = c.d, c.o
			want, err := runner.Run(live)
			if err != nil {
				errs[i] = err
				return
			}
			rep := baseConfig(cfgName, "cd", alg, "sa")
			rep.Design, rep.Org = c.d, c.o
			rep.TracePath = path
			got, err := sim.Run(rep)
			if err != nil {
				errs[i] = err
				return
			}
			if reflect.DeepEqual(got, want) {
				reports[i] = fmt.Sprintf("%-4v %-13v bit-identical (IPC %s)", c.d, c.o, ipcs(want.IPC))
			} else {
				failures[i] = true
				reports[i] = fmt.Sprintf("%-4v %-13v MISMATCH\n  live:   %+v\n  replay: %+v", c.d, c.o, want, got)
			}
		}(i, c)
	}
	wg.Wait()

	failed := false
	for i := range cells {
		if errs[i] != nil {
			exp.WarnCacheErr(os.Stderr, runner)
			log.Fatal(errs[i])
		}
		fmt.Println(reports[i])
		failed = failed || failures[i]
	}
	exp.WarnCacheErr(os.Stderr, runner)
	if failed {
		log.Fatal("replay verification FAILED")
	}
	fmt.Println("replay verification OK: all designs and organizations bit-identical")
}

func ipcs(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

func listProfiles() {
	fmt.Printf("%-12s %8s %7s %7s %7s %7s\n", "benchmark", "mem/1k", "stores", "seq", "hot", "WS(MB)")
	for _, name := range workload.Names() {
		p, _ := workload.Lookup(name)
		fmt.Printf("%-12s %8d %6.0f%% %6.0f%% %6.0f%% %7d\n",
			p.Name, p.MemPer1000, 100*p.StoreFrac, 100*p.SeqProb, 100*p.HotProb, p.WorkingSetMB)
	}
}

func newGen(bench string, seed uint64, scale float64) *workload.Gen {
	prof, err := workload.Lookup(bench)
	if err != nil {
		log.Fatal(err)
	}
	return workload.NewGen(prof, seed, 0, scale)
}

func dump(bench string, seed uint64, scale float64, n int) {
	g := newGen(bench, seed, scale)
	fmt.Printf("# %s: gap store block-address pc\n", bench)
	for i := 0; i < n; i++ {
		op := g.Next()
		kind := "LD"
		if op.Store {
			kind = "ST"
		}
		fmt.Printf("%4d %s 0x%010x pc=0x%x\n", op.Gap, kind, op.Addr, op.PC)
	}
}

func summarize(bench string, seed uint64, scale float64, n int) {
	g := newGen(bench, seed, scale)
	var instrs, stores, seq int64
	touched := make(map[int64]struct{})
	prev := int64(-10)
	for i := 0; i < n; i++ {
		op := g.Next()
		instrs += int64(op.Gap) + 1
		if op.Store {
			stores++
		}
		if op.Addr == prev+1 {
			seq++
		}
		prev = op.Addr
		touched[op.Addr] = struct{}{}
	}
	ops := int64(n)
	fmt.Printf("benchmark        %s\n", bench)
	fmt.Printf("operations       %d over %d instructions\n", ops, instrs)
	fmt.Printf("memory intensity %.1f per 1000 instructions\n", float64(ops)/float64(instrs)*1000)
	fmt.Printf("store fraction   %.1f%%\n", 100*float64(stores)/float64(ops))
	fmt.Printf("sequential frac  %.1f%%\n", 100*float64(seq)/float64(ops))
	fmt.Printf("distinct blocks  %d (%.1f MB touched of %.1f MB footprint)\n",
		len(touched), float64(len(touched))*64/1024/1024,
		float64(g.WorkingSetBlocks())*64/1024/1024)
}
