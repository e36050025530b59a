package exp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/sim"
)

// keyGroup returns n configs that share fakeCfg(seed)'s warm key but
// hash apart (they differ in the design and the BEAR probe only).
func keyGroup(seed uint64, n int) []config.Config {
	var out []config.Config
	for i := 0; i < n; i++ {
		cfg := fakeCfg(seed)
		cfg.Design = core.Designs()[i%3]
		cfg.BEARProbe = i >= 3
		out = append(out, cfg)
	}
	return out
}

// poolSim is a fake simulator that counts the calls of each path and
// lets a test fail the first warm-up.
type poolSim struct {
	mu                   sync.Mutex
	warmups, runs, froms int
	order                []string // "warm"/"run"/"from" + config hash, in call order
	owner                string   // hash of the config whose warm-up ran first
	failFirstWarm        func() error // called instead of the first warm-up's work; nil warms normally
	failRun              func(config.Config) error
}

func (p *poolSim) note(kind string, cfg config.Config) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.order = append(p.order, kind+" "+cfg.Hash())
	switch kind {
	case "warm":
		p.warmups++
	case "run":
		p.runs++
	case "from":
		p.froms++
	}
}

func (p *poolSim) install(r *Runner) {
	result := func(cfg config.Config) (sim.Result, error) {
		if p.failRun != nil {
			if err := p.failRun(cfg); err != nil {
				return sim.Result{}, err
			}
		}
		return sim.Result{IPC: []float64{float64(cfg.Seed)}}, nil
	}
	r.run = func(cfg config.Config) (sim.Result, error) {
		p.note("run", cfg)
		return result(cfg)
	}
	r.runSaving = func(cfg config.Config, save func(*sim.WarmState)) (sim.Result, error) {
		p.mu.Lock()
		first := p.owner == ""
		if first {
			p.owner = cfg.Hash()
		}
		p.mu.Unlock()
		p.note("warm", cfg)
		if first && p.failFirstWarm != nil {
			if err := p.failFirstWarm(); err != nil {
				return sim.Result{}, err
			}
		}
		save(new(sim.WarmState))
		p.note("from", cfg)
		return result(cfg)
	}
	r.runFrom = func(cfg config.Config, ws *sim.WarmState) (sim.Result, error) {
		if ws == nil {
			panic("runFrom without a warm state")
		}
		p.note("from", cfg)
		return result(cfg)
	}
}

// ensureWithin runs Ensure and fails the test if it does not return in
// time — a waiter left hanging on a failed warm-up.
func ensureWithin(t *testing.T, r *Runner, cfgs []config.Config) error {
	t.Helper()
	ch := make(chan error, 1)
	go func() { ch <- r.Ensure(cfgs) }()
	select {
	case err := <-ch:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Ensure hung")
		return nil
	}
}

// TestWarmPoolSharesWarmUp: each warm key with two or more runs warms up
// once, its other runs restore, and single-run keys and keyless configs
// run in full; dispatch follows the warm-key groups at every worker
// count.
func TestWarmPoolSharesWarmUp(t *testing.T) {
	a, b := keyGroup(1, 3), keyGroup(2, 4)
	single := fakeCfg(3)
	keyless := fakeCfg(4)
	keyless.RecordPath = "never-written.dct"
	cfgs := []config.Config{a[0], b[0], single, a[1], keyless, b[1], a[2], b[2], b[3], a[0]}
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(config.Test(), nil, workers)
		p := &poolSim{}
		p.install(r)
		if err := ensureWithin(t, r, cfgs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if p.warmups != 2 || p.froms != 7 || p.runs != 2 {
			t.Errorf("workers=%d: %d warm-ups, %d restored runs, %d full runs; want 2, 7, 2", workers, p.warmups, p.froms, p.runs)
		}
		if got := r.SimRuns(); got != 9 {
			t.Errorf("workers=%d: %d simulations counted, want 9 (a restored run is a simulation)", workers, got)
		}
		if workers == 1 {
			var got []string
			for _, o := range p.order {
				if !strings.HasPrefix(o, "warm") {
					got = append(got, o[strings.Index(o, " ")+1:])
				}
			}
			var want []string
			for _, cfg := range []config.Config{a[0], a[1], a[2], b[0], b[1], b[2], b[3], single, keyless} {
				want = append(want, cfg.Hash())
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("dispatch order is not grouped by warm key in first-occurrence order")
			}
		}
		// A second pass finds everything memoized: no pool, no runs.
		p2 := &poolSim{}
		p2.install(r)
		if err := r.Ensure(cfgs); err != nil || p2.warmups+p2.runs+p2.froms != 0 {
			t.Errorf("workers=%d: memoized pass simulated again (%v)", workers, err)
		}
	}
}

// checkOwnerAlone asserts the pool's failure contract: only the
// warm-up's owner recorded a failure, every waiter warmed up for itself
// and succeeded.
func checkOwnerAlone(t *testing.T, workers int, r *Runner, p *poolSim, cfgs []config.Config, err error, want func(error) bool) {
	t.Helper()
	if err == nil {
		t.Fatalf("workers=%d: the owner's failed warm-up was not reported", workers)
	}
	if n := strings.Count(err.Error(), "exp: run "); n != 1 {
		t.Fatalf("workers=%d: %d failures reported, want the owner's alone:\n%v", workers, n, err)
	}
	if !want(err) {
		t.Fatalf("workers=%d: unexpected failure %v", workers, err)
	}
	if !strings.Contains(err.Error(), p.owner[:12]) {
		t.Fatalf("workers=%d: failure %v is not the owner's (%.12s)", workers, err, p.owner)
	}
	for _, cfg := range cfgs {
		if cfg.Hash() == p.owner {
			continue
		}
		if _, err := r.Run(cfg); err != nil {
			t.Fatalf("workers=%d: waiter %.12s failed: %v", workers, cfg.Hash(), err)
		}
	}
	if p.runs != len(cfgs)-1 || p.froms != 0 {
		t.Fatalf("workers=%d: %d full and %d restored waiter runs, want %d full", workers, p.runs, p.froms, len(cfgs)-1)
	}
}

// TestWarmPoolFaultPanic: a panicking shared warm-up fails its owner
// with a *RunPanicError, and releases every waiter to warm up alone.
func TestWarmPoolFaultPanic(t *testing.T) {
	cfgs := keyGroup(1, 5)
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(config.Test(), nil, workers)
		r.SetKeepGoing(true)
		p := &poolSim{failFirstWarm: func() error {
			// Widen the window in which waiters block on the slot; the
			// assertions hold whether they arrive before or after.
			time.Sleep(10 * time.Millisecond)
			panic("injected warm-up panic")
		}}
		p.install(r)
		err := ensureWithin(t, r, cfgs)
		checkOwnerAlone(t, workers, r, p, cfgs, err, func(err error) bool {
			var pe *RunPanicError
			return errors.As(err, &pe) && strings.Contains(pe.Value, "injected warm-up panic")
		})
	}
}

// TestWarmPoolFaultError: a shared warm-up that returns an error fails
// its owner alone.
func TestWarmPoolFaultError(t *testing.T) {
	cfgs := keyGroup(1, 5)
	injected := errors.New("injected warm-up error")
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(config.Test(), nil, workers)
		r.SetKeepGoing(true)
		p := &poolSim{failFirstWarm: func() error {
			time.Sleep(10 * time.Millisecond)
			return injected
		}}
		p.install(r)
		err := ensureWithin(t, r, cfgs)
		checkOwnerAlone(t, workers, r, p, cfgs, err, func(err error) bool { return errors.Is(err, injected) })
	}
}

// TestWarmPoolTimeoutInWarmUp: a shared warm-up that hangs trips its
// owner's watchdog, and the waiters, released by it, warm up alone.
func TestWarmPoolTimeoutInWarmUp(t *testing.T) {
	cfgs := keyGroup(1, 5)
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) }) // frees the abandoned warm-ups
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(config.Test(), nil, workers)
		r.SetKeepGoing(true)
		r.SetRunTimeout(100 * time.Millisecond)
		p := &poolSim{failFirstWarm: func() error { <-hang; return nil }}
		p.install(r)
		err := ensureWithin(t, r, cfgs)
		p.mu.Lock()
		checkOwnerAlone(t, workers, r, p, cfgs, err, func(err error) bool {
			var te *RunTimeoutError
			return errors.As(err, &te)
		})
		p.mu.Unlock()
	}
}

// TestWarmPoolFaultFailFastDispatchOrder: with failing configs in two
// warm groups, fail-fast reports the first failure in dispatch order —
// the group that occurs first — byte-identically at every worker count,
// even though the other group's failure comes first in spec order.
func TestWarmPoolFaultFailFastDispatchOrder(t *testing.T) {
	a, b := keyGroup(1, 3), keyGroup(2, 3)
	cfgs := []config.Config{a[0], b[0], a[1], b[1], a[2], b[2]}
	failing := map[string]bool{b[1].Hash(): true, a[2].Hash(): true}
	var msgs []string
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(config.Test(), nil, workers)
		p := &poolSim{failRun: func(cfg config.Config) error {
			if failing[cfg.Hash()] {
				return fmt.Errorf("injected failure of %v seed %d", cfg.Design, cfg.Seed)
			}
			return nil
		}}
		p.install(r)
		err := ensureWithin(t, r, cfgs)
		if err == nil {
			t.Fatalf("workers=%d: failures swallowed", workers)
		}
		if !strings.Contains(err.Error(), a[2].Hash()[:12]) {
			t.Fatalf("workers=%d: reported %v, want the first failure in dispatch order (%.12s)", workers, err, a[2].Hash())
		}
		msgs = append(msgs, err.Error())
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i] != msgs[0] {
			t.Fatalf("fail-fast error text diverges across worker counts:\n%s\n%s", msgs[0], msgs[i])
		}
	}
}

// TestWarmSlotDropsSnapshot: the slot holds the snapshot only while a
// user has yet to take it.
func TestWarmSlotDropsSnapshot(t *testing.T) {
	s := newWarmSlot(3)
	if !s.claim() || s.claim() {
		t.Fatal("claim must succeed exactly once")
	}
	ws := new(sim.WarmState)
	s.publish(ws)
	s.publish(nil) // a late second publish changes nothing
	if s.take() != ws {
		t.Fatal("first waiter did not get the snapshot")
	}
	if s.ws == nil {
		t.Fatal("snapshot dropped while a user still needs it")
	}
	if s.take() != ws {
		t.Fatal("last waiter did not get the snapshot")
	}
	if s.ws != nil {
		t.Fatal("snapshot kept after its last user took it")
	}

	failed := newWarmSlot(2)
	failed.claim()
	failed.publish(nil)
	if failed.take() != nil {
		t.Fatal("a failed warm-up handed out a snapshot")
	}
}
