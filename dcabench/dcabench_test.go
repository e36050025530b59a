package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/exp"
	"dcasim/internal/sim"
)

// The benchmark reads its inputs relative to the repo root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// tiny shrinks a config's budgets so every workload config assembles in
// milliseconds.
func tiny(c config.Config) config.Config {
	c.InstrPerCore = 3000
	c.WarmMemops = 2500 // crosses a warm-round boundary
	return c
}

// TestAssembleMatchesSimRun: the traced assembly must produce sim.Run's
// exact Result for every config of every workload.
func TestAssembleMatchesSimRun(t *testing.T) {
	cfgs, err := figureConfigs(figureBase(3), figureMixes())
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, timedLongConfig(3))
	for _, cfg := range cfgs {
		cfg = tiny(cfg)
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, a, err := assemble(cfg, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v %v %v: traced assembly differs from sim.Run:\n got %+v\nwant %+v", cfg.Design, cfg.Org, cfg.Benchmarks, got, want)
		}
		if a.steps == 0 || len(a.gens) != len(cfg.Benchmarks) || a.gens[0].ops == 0 {
			t.Fatalf("assembly counted nothing: %+v", a)
		}
		if tr.total("cpu.warm") <= 0 || tr.total("sim.timed") <= 0 {
			t.Fatal("assembly recorded no warm or timed span")
		}
	}
}

// TestEnumerationMatchesRunner: the figure workloads' config list is
// exactly the set of simulations a render executes.
func TestEnumerationMatchesRunner(t *testing.T) {
	base := tiny(figureBase(5))
	cfgs, err := figureConfigs(base, figureMixes())
	if err != nil {
		t.Fatal(err)
	}
	r := exp.NewRunner(base, figureMixes(), benchWorkers())
	if _, err := renderFigures(r, nil); err != nil {
		t.Fatal(err)
	}
	if r.SimRuns() != int64(len(cfgs)) {
		t.Fatalf("render ran %d simulations, enumeration lists %d", r.SimRuns(), len(cfgs))
	}
	for _, cfg := range cfgs {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if r.SimRuns() != int64(len(cfgs)) {
		t.Fatal("enumeration lists configs the render did not run")
	}
}

// TestCheckRejectsPerturbedOutput: the golden and reference checks
// accept the seed's own output and reject the output of seed+1.
func TestCheckRejectsPerturbedOutput(t *testing.T) {
	ref, err := loadReference(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Figures["1"] != digest(golden) {
		t.Fatalf("reference digest of seed 1 is not the golden file's")
	}
	want, err := figureExpectation(goldenSeed, ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.check(golden); err != nil {
		t.Fatalf("golden render rejected: %v", err)
	}
	out, err := renderFigures(exp.NewRunner(figureBase(goldenSeed+1), figureMixes(), benchWorkers()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.check([]byte(out)); err == nil {
		t.Fatal("figure check accepted the render of seed+1")
	}
	next, err := figureExpectation(goldenSeed+1, ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.check([]byte(out)); err != nil {
		t.Fatalf("seed+1 render rejected against its own reference: %v", err)
	}

	res, err := sim.Run(timedLongConfig(goldenSeed + 1))
	if err != nil {
		t.Fatal(err)
	}
	timed := expectation{digest: ref.TimedLong[fmt.Sprint(goldenSeed)]}
	if err := timed.checkResult(res); err == nil {
		t.Fatal("timed_long check accepted the result of seed+1")
	}
	timed = expectation{digest: ref.TimedLong[fmt.Sprint(goldenSeed+1)]}
	if err := timed.checkResult(res); err != nil {
		t.Fatalf("seed+1 result rejected against its own reference: %v", err)
	}
}

// TestMetricNames: every emitted metric name is well formed, unique, and
// declared in BENCHMARK.json with the same unit.
func TestMetricNames(t *testing.T) {
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, set := range []struct {
		defs     []metricDef
		declared []struct{ Name, Unit string }
	}{{endToEnd, bm.EndToEnd}, {perLayer, bm.PerLayer}} {
		if len(set.defs) != len(set.declared) {
			t.Errorf("%d metrics emitted, %d declared", len(set.defs), len(set.declared))
			continue
		}
		for i, d := range set.defs {
			if !valid.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is malformed or repeated", d.name)
			}
			seen[d.name] = true
			if dd := set.declared[i]; dd.Name != d.name || dd.Unit != d.unit {
				t.Errorf("metric %d: emitted %s [%s], declared %s [%s]", i, d.name, d.unit, dd.Name, dd.Unit)
			}
		}
	}
}

func TestShareKey(t *testing.T) {
	for fn, want := range map[string]string{
		"dcasim/internal/cache.(*Cache).Access":        "cache",
		"dcasim/internal/sched/atlas.(*inst).Phase":    "sched",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"encoding/json.(*decodeState).object":          "other",
		"dcasim/internal/sim.Run":                      "other",
	} {
		if got := shareKey(fn); got != want {
			t.Errorf("shareKey(%q) = %q, want %q", fn, got, want)
		}
	}
}
