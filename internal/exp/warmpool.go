package exp

import (
	"sync"

	"dcasim/internal/config"
	"dcasim/internal/sim"
)

// warmSlot shares one functional warm-up among the runs of an Ensure
// pass whose configs have the same warm key (sim.WarmKeyOf). The first
// of them to need a simulation owns the warm-up; the others wait for it
// (singleflight) and then run their timed regions from a copy of the
// snapshot. The pass holds a slot only for keys with two or more runs
// still to compute.
type warmSlot struct {
	mu      sync.Mutex
	users   int            // runs of the key that have not yet copied, or passed on, the snapshot
	claimed bool           // a run owns the warm-up
	ended   bool           // the warm-up has ended, either way
	done    chan struct{}  // closed when ended is set
	ws      *sim.WarmState // the snapshot while a user still needs it; nil otherwise
}

func newWarmSlot(users int) *warmSlot {
	return &warmSlot{users: users, done: make(chan struct{})}
}

// claim reports whether the caller is the first run to need the
// snapshot, and so must warm up and publish.
func (s *warmSlot) claim() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.claimed {
		return false
	}
	s.claimed = true
	return true
}

// publish ends the warm-up with its snapshot, or with nil when it
// failed, and counts the owner's own use (the owner runs on in the
// system it warmed up). Only the first call counts: a watchdog that gave up on the
// owner publishes nil, and the abandoned warm-up's late publish is then
// ignored.
func (s *warmSlot) publish(ws *sim.WarmState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.users--
	if s.users > 0 {
		s.ws = ws
	}
	close(s.done)
}

// take waits for the warm-up to end and returns the snapshot, or nil if
// the warm-up failed. The slot drops the snapshot once its last user has
// taken it; that user drops it in turn as soon as it has copied it.
func (s *warmSlot) take() *sim.WarmState {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.ws
	s.release()
	return ws
}

// skip counts a run of the key that did not need the snapshot: its
// result was memoized, in the persistent cache, or its config invalid.
func (s *warmSlot) skip() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release()
}

func (s *warmSlot) release() {
	s.users--
	if s.users <= 0 {
		s.ws = nil
	}
}

// simulate computes cfg's result. A run with a warm slot goes through
// the slot. Any other run with a warm key, on a runner with a cache,
// starts from the cached snapshot of its warm state (warming up and
// storing one on a miss). Every other run is a full sim.Run.
func (r *Runner) simulate(cfg config.Config, slot *warmSlot) (sim.Result, error) {
	if slot != nil {
		return r.executePooled(cfg, slot)
	}
	if r.cache == nil || !Cacheable(cfg) {
		return r.execute(cfg, r.run)
	}
	return r.execute(cfg, func(cfg config.Config) (sim.Result, error) { return r.runWarmed(cfg, nil) })
}

// executePooled computes cfg's result through its warm slot. The owner
// runs through runWarmed, which publishes the warm state to the slot,
// inside one watchdog, then ends the warm-up for the waiters whatever
// happened — a panic, an error or a timeout is recorded for the owner's
// config alone. A waiter whose warm-up failed runs in full, warming up
// for itself.
func (r *Runner) executePooled(cfg config.Config, s *warmSlot) (sim.Result, error) {
	if s.claim() {
		res, err := r.execute(cfg, func(cfg config.Config) (sim.Result, error) { return r.runWarmed(cfg, s.publish) })
		s.publish(nil)
		return res, err
	}
	ws := s.take()
	if ws == nil {
		return r.execute(cfg, r.run)
	}
	return r.execute(cfg, func(cfg config.Config) (sim.Result, error) { return r.runFrom(cfg, ws) })
}

// runWarmed computes cfg's result from its warm state, handing the state
// to publish (when not nil) as soon as it is ready. On a runner with a
// cache the state is the cache's snapshot for cfg's warm key when one
// verifies, and the run's timed region starts from it. Otherwise cfg
// warms up and runs on in the same system (runSaving), and the snapshot
// is stored in the cache after publish, so that waiting runs do not
// wait for the write. A failed store is recorded like a failed result
// write and costs later passes a warm-up, nothing more.
func (r *Runner) runWarmed(cfg config.Config, publish func(*sim.WarmState)) (sim.Result, error) {
	if publish == nil {
		publish = func(*sim.WarmState) {}
	}
	var key string
	cached := false
	if r.cache != nil {
		key, cached = sim.WarmKeyOf(cfg)
	}
	if cached {
		if data, ok := r.cache.GetWarm(key); ok {
			if ws, err := r.decodeWarm(cfg, data); err == nil {
				publish(ws)
				return r.runFrom(cfg, ws)
			}
		}
	}
	return r.runSaving(cfg, func(ws *sim.WarmState) {
		publish(ws)
		if cached {
			r.noteCacheErr(r.cache.PutWarm(key, r.encodeWarm(ws)))
		}
	})
}
