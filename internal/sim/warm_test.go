package sim

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/sched"
	_ "dcasim/internal/sched/policies"
)

// warmProjection is every Config field functional warm-up reads — the
// fields WarmKeyOf must cover, and the only ones.
var warmProjection = map[string]bool{
	"Benchmarks": true, "Seed": true, "WSScale": true, "WarmMemops": true,
	"L1Bytes": true, "L1Ways": true, "L2Bytes": true, "L2Ways": true,
	"CacheSizeBytes": true, "Org": true,
	"Channels": true, "Ranks": true, "Banks": true, "RowBytes": true,
	"UseMAPI": true,
}

// keylessFields name trace files: a config setting either has no warm
// key at all.
var keylessFields = map[string]bool{"TracePath": true, "RecordPath": true}

// validPerturbation replaces the generic perturbation of a field whose
// generic change the config contract rejects, so that every field
// outside the projection still gets a run-equivalence check.
var validPerturbation = map[string]func(*config.Config){
	"Design":    func(c *config.Config) { c.Design = core.CD },
	"Algorithm": func(c *config.Config) { c.Algorithm = "FR-FCFS" },
	"AlgParams": func(c *config.Config) { c.AlgParams = map[string]float64{"Threshold": 2} },
	"Ctrl": func(c *config.Config) {
		cc := c.CtrlConfig()
		cc.ReadQueueCap /= 2
		c.Ctrl = &cc
	},
	"TagCacheKB": func(c *config.Config) { c.TagCacheKB = 64 },
}

// tinyConfig is a four-core test config with budgets small enough to
// run dozens of simulations, and caches small enough that warm-up fills
// them, so the timed region evicts by the restored LRU order.
func tinyConfig() config.Config {
	cfg := testConfig()
	cfg.CacheSizeBytes = 512 << 10
	cfg.L2Bytes = 128 << 10
	cfg.InstrPerCore = 8_000
	cfg.WarmMemops = 12_000
	return cfg
}

// leaf is one scalar (or slice, map, pointer) inside Config: its dotted
// path, the top-level field it belongs to, and how to reach it.
type leaf struct {
	path, top string
	index     []int
}

func configLeaves() []leaf {
	var out []leaf
	var walk func(t reflect.Type, prefix, top string, index []int)
	walk = func(t reflect.Type, prefix, top string, index []int) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			idx := append(append([]int(nil), index...), i)
			path, tp := prefix+f.Name, top
			if tp == "" {
				tp = f.Name
			}
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, path+".", tp, idx)
				continue
			}
			out = append(out, leaf{path: path, top: tp, index: idx})
		}
	}
	walk(reflect.TypeOf(config.Config{}), "", "", nil)
	return out
}

// perturb changes v to a different value of its type.
func perturb(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(s, v)
		if s.Len() == 0 {
			t.Fatalf("%s: cannot perturb an empty slice", path)
		}
		perturb(t, path, s.Index(0))
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(reflect.ValueOf("x"), reflect.Zero(v.Type().Elem()))
		v.Set(m)
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	default:
		t.Fatalf("%s: no perturbation for kind %v", path, v.Kind())
	}
}

// TestWarmKeyIsTheWarmProjection perturbs every Config field through
// reflection: WarmKeyOf must change exactly for the projected fields
// and vanish for the trace fields, and for every other field a run
// restored from the unperturbed config's warm state must DeepEqual a
// fresh run of the perturbed config.
func TestWarmKeyIsTheWarmProjection(t *testing.T) {
	base := tinyConfig()
	baseKey, ok := WarmKeyOf(base)
	if !ok {
		t.Fatal("a synthetic config has no warm key")
	}
	ws, err := Warmup(base)
	if err != nil {
		t.Fatal(err)
	}
	for name := range warmProjection {
		if _, ok := reflect.TypeOf(base).FieldByName(name); !ok {
			t.Fatalf("projection names %s, which Config no longer has", name)
		}
	}
	for _, lf := range configLeaves() {
		cfg := base
		cfg.Benchmarks = append([]string(nil), base.Benchmarks...)
		perturb(t, lf.path, reflect.ValueOf(&cfg).Elem().FieldByIndex(lf.index))
		key, ok := WarmKeyOf(cfg)
		switch {
		case keylessFields[lf.top]:
			if ok {
				t.Errorf("%s set: config still has a warm key", lf.path)
			}
			continue
		case !ok:
			t.Errorf("%s perturbed: config lost its warm key", lf.path)
			continue
		case warmProjection[lf.top] && key == baseKey:
			t.Errorf("%s is read by warm-up but does not change the warm key", lf.path)
			continue
		case !warmProjection[lf.top] && key != baseKey:
			t.Errorf("%s is not read by warm-up but changes the warm key", lf.path)
			continue
		case warmProjection[lf.top]:
			continue
		}
		if cfg.Validate() != nil {
			fix, ok := validPerturbation[lf.top]
			if !ok {
				t.Errorf("%s: generic perturbation is invalid (%v) and no valid one is listed", lf.path, cfg.Validate())
				continue
			}
			cfg = base
			fix(&cfg)
		}
		checkRestored(t, lf.path, cfg, ws)
	}
}

// TestRunFromMatchesRunAcrossDesigns checks restored runs against fresh
// ones across designs, organizations, every registered policy, the tag
// cache, Lee writeback, the BEAR probe and XOR remapping — one warm
// state per organization, shared by every variant.
func TestRunFromMatchesRunAcrossDesigns(t *testing.T) {
	for _, org := range []dcache.Org{dcache.SetAssoc, dcache.DirectMapped} {
		base := tinyConfig()
		base.Org = org
		ws, err := Warmup(base)
		if err != nil {
			t.Fatal(err)
		}
		var variants []config.Config
		for _, d := range core.Designs() {
			for _, alg := range sched.Names() {
				cfg := base
				cfg.Design, cfg.Algorithm = d, core.Algorithm(alg)
				variants = append(variants, cfg)
			}
		}
		for _, f := range []func(*config.Config){
			func(c *config.Config) { c.LeeWriteback = true },
			func(c *config.Config) { c.BEARProbe = true },
			func(c *config.Config) { c.XORRemap = true },
			func(c *config.Config) { c.Design = core.CD; c.Benchmarks = c.Benchmarks[:1] },
		} {
			cfg := base
			f(&cfg)
			variants = append(variants, cfg)
		}
		if org == dcache.SetAssoc {
			cfg := base
			cfg.TagCacheKB = 64
			variants = append(variants, cfg)
		}
		baseKey, _ := WarmKeyOf(base)
		for _, cfg := range variants {
			from := ws
			if key, _ := WarmKeyOf(cfg); key != baseKey {
				// The single-core alone run has a warm state of its own.
				if from, err = Warmup(cfg); err != nil {
					t.Fatal(err)
				}
			}
			checkRestored(t, fmt.Sprintf("%v/%v/%v %v tag=%d lee=%v bear=%v xor=%v", org, cfg.Design, cfg.Algorithm,
				cfg.Benchmarks, cfg.TagCacheKB, cfg.LeeWriteback, cfg.BEARProbe, cfg.XORRemap), cfg, from)
		}
	}
}

func checkRestored(t *testing.T, what string, cfg config.Config, ws *WarmState) {
	t.Helper()
	want, err := Run(cfg)
	if err != nil {
		t.Errorf("%s: Run: %v", what, err)
		return
	}
	got, err := RunFrom(cfg, ws)
	if err != nil {
		t.Errorf("%s: RunFrom: %v", what, err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: restored run differs from a fresh run:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestRunFromRejectsForeignState: a warm state only seeds configs with
// its own warm key, and trace runs have no warm state at all.
func TestRunFromRejectsForeignState(t *testing.T) {
	cfg := tinyConfig()
	ws, err := Warmup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if _, err := RunFrom(other, ws); err == nil {
		t.Error("RunFrom accepted the warm state of another seed")
	}
	if _, err := RunFrom(cfg, nil); err == nil {
		t.Error("RunFrom accepted a nil warm state")
	}
	rec := cfg
	rec.RecordPath = filepath.Join(t.TempDir(), "x.dct")
	if _, err := Warmup(rec); err == nil {
		t.Error("Warmup accepted a recording run")
	}
	if _, err := RunFrom(rec, ws); err == nil {
		t.Error("RunFrom accepted a recording run")
	}
}

// TestWarmStateBinaryRoundTrip: DecodeWarmState rebuilds exactly the
// state Warmup left, in both organizations, with and without MAP-I.
func TestWarmStateBinaryRoundTrip(t *testing.T) {
	for _, org := range []dcache.Org{dcache.SetAssoc, dcache.DirectMapped} {
		for _, mapi := range []bool{true, false} {
			cfg := tinyConfig()
			cfg.Org, cfg.UseMAPI = org, mapi
			ws, err := Warmup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			enc := EncodeWarmState(ws)
			got, err := DecodeWarmState(cfg, enc)
			if err != nil {
				t.Fatalf("%v mapi=%v: %v", org, mapi, err)
			}
			if !reflect.DeepEqual(got, ws) {
				t.Fatalf("%v mapi=%v: decoded warm state differs from Warmup's", org, mapi)
			}
			if again := EncodeWarmState(got); !bytes.Equal(again, enc) {
				t.Fatalf("%v mapi=%v: re-encoding differs", org, mapi)
			}
		}
	}
}

// TestDecodeWarmStateRejectsMismatches: a snapshot decodes only for a
// config of its own warm key and shapes, and only whole.
func TestDecodeWarmStateRejectsMismatches(t *testing.T) {
	cfg := tinyConfig()
	ws, err := Warmup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeWarmState(ws)
	for what, mutate := range map[string]func(*config.Config){
		"another seed":      func(c *config.Config) { c.Seed++ },
		"another L2 size":   func(c *config.Config) { c.L2Bytes *= 2 },
		"another org":       func(c *config.Config) { c.Org = dcache.DirectMapped },
		"MAP-I off":         func(c *config.Config) { c.UseMAPI = !c.UseMAPI },
		"one core fewer":    func(c *config.Config) { c.Benchmarks = c.Benchmarks[:3] },
		"a recording run":   func(c *config.Config) { c.RecordPath = "x.dct" },
		"an invalid config": func(c *config.Config) { c.L1Ways = 0 },
	} {
		other := cfg
		other.Benchmarks = append([]string(nil), cfg.Benchmarks...)
		mutate(&other)
		if _, err := DecodeWarmState(other, enc); err == nil {
			t.Errorf("%s: snapshot accepted", what)
		}
	}
	// The same shapes under a forged key: the shape checks alone must
	// catch a snapshot of one core fewer.
	fewer := cfg
	fewer.Benchmarks = cfg.Benchmarks[:3]
	fewerKey, _ := WarmKeyOf(fewer)
	forged := append([]byte(fewerKey), enc[len(fewerKey):]...)
	if _, err := DecodeWarmState(fewer, forged); err == nil {
		t.Error("a 4-core snapshot decoded for a 3-core config")
	}
	for _, bad := range [][]byte{nil, enc[:len(enc)/2], enc[:len(enc)-1], append(append([]byte(nil), enc...), 0)} {
		if _, err := DecodeWarmState(cfg, bad); err == nil {
			t.Errorf("a snapshot of %d bytes (whole: %d) decoded", len(bad), len(enc))
		}
	}
}

// TestRunSavingIsRunPlusWarmup: RunSaving returns Run's result and hands
// out exactly the state Warmup returns, in both organizations; it
// refuses a recording run, which has no warm key.
func TestRunSavingIsRunPlusWarmup(t *testing.T) {
	for _, org := range []dcache.Org{dcache.SetAssoc, dcache.DirectMapped} {
		cfg := tinyConfig()
		cfg.Org = org
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantWS, err := Warmup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var saved *WarmState
		got, err := RunSaving(cfg, func(ws *WarmState) { saved = ws })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: RunSaving's result differs from Run's", org)
		}
		if !reflect.DeepEqual(saved, wantWS) {
			t.Errorf("%v: RunSaving handed out a state other than Warmup's", org)
		}
	}
	rec := tinyConfig()
	rec.RecordPath = filepath.Join(t.TempDir(), "x.dct")
	if _, err := RunSaving(rec, func(*WarmState) {}); err == nil {
		t.Error("RunSaving accepted a recording run")
	}
}
