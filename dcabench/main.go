// Command dcabench is the dcasim benchmark. It runs one named workload
// for a fixed number of seconds from a single process, checks every
// output against the repo's goldens or the digests recorded with the
// benchmark, and prints each metric by name and unit, marked as host
// time or simulated quantity. The last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics.
//
// Run it from the repo root (see dcabench/README.md):
//
//	bash dcabench/run.sh --workload figures_cold --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run measures per-layer metrics instead: half the
// time untraced, half traced (spans in memory plus a CPU profile), then
// isolated replays of the traced layers. Spans, the per-package profile
// shares and the host fingerprint are written once at exit under
// .bench_build/dcabench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run writes, relative to the repo root.
const outDir = ".bench_build/dcabench"

// setups is how many times an untraced run sets up; setup_s is their
// median.
const setups = 3

// metricDef declares one emitted metric.
type metricDef struct {
	name, unit string
	kind       string // "host" (measured on the host) or "simulated" (a modelled quantity)
}

// endToEnd are the metrics of an untraced run (BENCHMARK.json
// "end_to_end"); every workload reports all of them.
var endToEnd = []metricDef{
	{"wall_s", "s", "host"},
	{"wall_s_tail", "s", "host"},
	{"setup_s", "s", "host"},
	{"sim_minstr_per_s", "Minstr/s", "host"},
	{"peak_rss_mb", "MB", "host"},
	{"allocs_per_op", "count", "host"},
	{"ok_frac", "ratio", "host"},
	{"sim_ipc_sum", "IPC", "simulated"},
}

// perLayer are the metrics of a traced run (BENCHMARK.json "per_layer").
// A metric of a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.ops", "count", "simulated"},
		{"workload.ns_per_op", "ns", "host"},
		{"cpu.warm_s", "s", "host"},
		{"cpu.warm_share", "ratio", "host"},
		{"sim.build_ms", "ms", "host"},
		{"sim.timed_s", "s", "host"},
		{"event.steps", "count", "simulated"},
		{"event.ns_per_step", "ns", "host"},
	}
	for _, p := range append(append([]string(nil), sharePkgs...), "other") {
		defs = append(defs, metricDef{"share." + p, "ratio", "host"})
	}
	defs = append(defs,
		metricDef{"exp.sim_runs", "count", "host"},
		metricDef{"exp.cache_hits", "count", "host"},
		metricDef{"exp.dedupe_ratio", "ratio", "host"},
		metricDef{"config.hash_us", "us", "host"},
		metricDef{"rescache.get_us", "us", "host"},
		metricDef{"rescache.put_ms", "ms", "host"},
		metricDef{"stats.render_ms", "ms", "host"},
	)
	for _, f := range figureNames {
		defs = append(defs, metricDef{"exp.figure_ms." + f, "ms", "host"})
	}
	return append(defs,
		metricDef{"gc.count", "count/op", "host"},
		metricDef{"gc.pause_ms", "ms/op", "host"},
		metricDef{"core.pr_issued", "count", "simulated"},
		metricDef{"core.lr_issued", "count", "simulated"},
		metricDef{"core.writes_issued", "count", "simulated"},
		metricDef{"core.ofs_issues", "count", "simulated"},
		metricDef{"core.scheduleall_on", "count", "simulated"},
		metricDef{"dcache.read_hit_rate", "ratio", "simulated"},
		metricDef{"dram.read_row_hit_rate", "ratio", "simulated"},
		metricDef{"dram.accesses_per_turnaround", "ratio", "simulated"},
		metricDef{"trace.overhead", "ratio", "host"},
	)
}()

type metricValues map[string]float64

// summary is the last line of standard output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies the host a record was measured on, so numbers
// from different machines are never compared unawares.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func hostFingerprint() fingerprint {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fingerprint{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), model}
}

func main() {
	workloadName := flag.String("workload", "", "figures_cold, figures_cached or timed_long")
	seed := flag.Uint64("seed", goldenSeed, "workload seed (the config seed of every simulation)")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 measures per-layer metrics in a traced run")
	writeRef := flag.Bool("write-reference", false, "record "+referencePath+" for seeds 0.."+fmt.Sprint(referenceSeeds-1)+" and exit")
	flag.Parse()

	if *writeRef {
		if err := writeReference(referencePath); err != nil {
			fmt.Fprintln(os.Stderr, "dcabench:", err)
			os.Exit(1)
		}
		return
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "dcabench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	os.Exit(run(*workloadName, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1))
}

// run measures one workload and prints the report; it returns the exit
// code: 0 only when every operation succeeded with a correct output.
func run(name string, seed uint64, budget time.Duration, traced bool) int {
	fp := hostFingerprint()
	fmt.Printf("# dcabench workload=%s seed=%d seconds=%g trace=%t\n", name, seed, budget.Seconds(), traced)
	fmt.Printf("# host go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n", fp.GoVersion, fp.GOMAXPROCS, fp.NumCPU, fp.CPUModel)

	fail := func(attempted, failed int, err error) int {
		fmt.Fprintln(os.Stderr, "dcabench:", err)
		fmt.Printf("fail_frac = %d/%d\n", failed, attempted)
		line, _ := json.Marshal(summary{Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}})
		fmt.Println(string(line)) // a summary of plain values always marshals
		return 1
	}
	ref, err := loadReference(referencePath)
	if err != nil {
		return fail(1, 1, err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(1, 1, err)
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return fail(1, 1, err)
	}
	defer removeAll(work)
	j, err := newJob(name, seed, work, ref)
	if err != nil {
		return fail(1, 1, err)
	}

	nSetups := setups
	if traced {
		nSetups = 1
	}
	var setupS []float64
	for i := 0; i < nSetups; i++ {
		settle()
		t0 := time.Now()
		if err := j.setup(); err != nil {
			return fail(1, 1, fmt.Errorf("set-up: %w", err))
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	m := metricValues{}
	defs := endToEnd
	var attempted, failed int
	if !traced {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var samples []float64
		samples, _, attempted, failed = measure(j, nil, budget)
		runtime.ReadMemStats(&ms1)
		endToEndMetrics(j, samples, setupS, ms1.Mallocs-ms0.Mallocs, attempted, failed, m)
	} else {
		defs = perLayer
		attempted, failed, err = tracedRun(j, name, seed, fp, budget, m)
		if err != nil {
			return fail(attempted+1, failed+1, err)
		}
	}
	if failed > 0 {
		return fail(attempted, failed, fmt.Errorf("%d of %d operations failed", failed, attempted))
	}

	fmt.Printf("fail_frac = %d/%d\n", failed, attempted)
	s := summary{Correct: true, Attempted: attempted, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := m[d.name] // 0 for a layer this workload does not exercise
		fmt.Printf("%-32s %14.6g %-9s %s\n", d.name, v, d.unit, d.kind)
		s.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return fail(attempted, failed+1, err)
	}
	fmt.Println(string(line))
	return 0
}

// measure repeats the operation until the budget is spent (at least
// once). It groups consecutive operations j.opsPerSample() at a time
// and returns, for each group that succeeded whole, the mean host
// seconds of its operations; ops counts the operations in those groups.
func measure(j job, tr *tracer, budget time.Duration) (samples []float64, ops, attempted, failed int) {
	k := j.opsPerSample()
	start := time.Now()
	for attempted == 0 || time.Since(start) < budget {
		var sum float64
		ok := true
		for i := 0; i < k; i++ {
			attempted++
			settle()
			t0 := time.Now()
			err := j.op(tr)
			sum += time.Since(t0).Seconds()
			if err != nil {
				failed++
				ok = false
				fmt.Fprintf(os.Stderr, "dcabench: operation %d: %v\n", attempted, err)
			}
		}
		if ok {
			samples = append(samples, sum/float64(k))
			ops += k
		}
	}
	return samples, ops, attempted, failed
}

// settle collects the heap and returns free memory to the OS before each
// set-up and operation, so every one starts from the same heap state.
// Otherwise whether the previous one's garbage is still held when the
// next one allocates depends on GC and scavenger timing, and
// peak_rss_mb flips between modes run to run.
func settle() { debug.FreeOSMemory() }

func endToEndMetrics(j job, samples, setupS []float64, mallocs uint64, attempted, failed int, m metricValues) {
	sort.Float64s(samples)
	sort.Float64s(setupS)
	if n := len(samples); n > 0 {
		wall := median(samples)
		i := tailIndex(n)
		fmt.Printf("# %d samples of %d operations each, median %.4fs, tail p%.0f = %.4fs (%d samples above it)\n",
			n, j.opsPerSample(), wall, 100*float64(i)/float64(max(1, n-1)), samples[i], n-1-i)
		m["wall_s"] = wall
		m["wall_s_tail"] = samples[i]
		m["sim_minstr_per_s"] = float64(j.instrPerOp()) / 1e6 / wall
	}
	m["setup_s"] = median(setupS)
	m["peak_rss_mb"] = peakRSSMB()
	m["allocs_per_op"] = float64(mallocs) / float64(attempted)
	m["ok_frac"] = float64(attempted-failed) / float64(attempted)
	m["sim_ipc_sum"] = j.ipcSum()
}

// tracedRun measures half the budget untraced and half traced, with
// spans and a CPU profile, then has the job replay its layers in
// isolation. It writes the trace record once, at the end.
func tracedRun(j job, name string, seed uint64, fp fingerprint, budget time.Duration, m metricValues) (attempted, failed int, err error) {
	plain, _, a0, f0 := measure(j, nil, budget/2)

	tr := newTracer()
	profPath := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", name, seed))
	pf, err := os.Create(profPath)
	if err != nil {
		return a0, f0, err
	}
	defer pf.Close()
	if err := pprof.StartCPUProfile(pf); err != nil {
		return a0, f0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced, ops, a1, f1 := measure(j, tr, budget/2)
	runtime.ReadMemStats(&ms1)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return a0 + a1, f0 + f1, err
	}
	attempted, failed = a0+a1, f0+f1
	if failed > 0 {
		return attempted, failed, nil
	}

	m["gc.count"] = float64(ms1.NumGC-ms0.NumGC) / float64(ops)
	m["gc.pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(ops)
	sort.Float64s(plain)
	sort.Float64s(traced)
	m["trace.overhead"] = median(traced) / median(plain)
	if err := j.layers(tr, ops, m); err != nil {
		return attempted, failed, fmt.Errorf("layers: %w", err)
	}
	shares, err := profileShares(profPath)
	if err != nil {
		fmt.Printf("# share.* not measured: %v\n", err)
	}
	for p, v := range shares {
		m["share."+p] = v
	}

	record := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Host     fingerprint        `json:"host"`
		Metrics  map[string]float64 `json:"metrics"`
		Shares   map[string]float64 `json:"profile_shares"`
		Spans    []span             `json:"spans"`
	}{name, seed, fp, m, shares, tr.spans}
	data, err := json.Marshal(record)
	if err != nil {
		return attempted, failed, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return attempted, failed, err
	}
	fmt.Printf("# trace record: %s (%d spans)\n", path, len(tr.spans))
	return attempted, failed, nil
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailIndex is the index in n sorted samples of the highest percentile
// with at least ten samples above it. Below eleven samples no percentile
// qualifies and the minimum, the one with the most samples above it,
// stands in, so the value does not jump as the sample count crosses 11.
func tailIndex(n int) int { return max(0, n-11) }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
