// Package rescache is the persistent, content-addressed result cache of
// the evaluation harness. A simulation run is a pure function of its
// config (PR 3's replay verification pins this down to the bit), so a
// result can be stored on disk keyed by config.Config.Hash() and reused
// by any later process — a warm cache makes a full evaluation pass cost
// approximately zero simulations.
//
// Layout: one JSON file per entry, <dir>/<key>.json, holding a small
// envelope {schema, key, sha256, result}. An entry is trusted only when
// the envelope decodes, the schema and key match, and the SHA-256 of the
// embedded result bytes matches — anything else (truncation, bit rot,
// a file from an older schema) reads as a miss and is recomputed and
// overwritten, never trusted. Writes go through a temp file that is
// fsynced and then renamed, so concurrent processes sharing a directory
// see whole entries or none, and a machine crash shortly after the
// rename cannot surface a zero-length entry.
//
// A second kind of entry, <dir>/<warmkey>.warm, keeps the encoded warm
// state of one warm key (sim.WarmKeyOf) in a binary envelope under the
// same rules: verified whole or read as a miss, written through the
// same fsync-then-rename path, its temp files swept by Open (warm.go).
//
// Concurrency: within a process, writes to the same key serialize on a
// per-key lock. Across processes, <dir>/<key>.claim files coordinate who
// computes a missing entry: TryClaim takes the claim with an exclusive
// create and keeps it visibly alive with a heartbeat goroutine that
// refreshes the file's mtime, losers can WaitForClaim (bounded, with
// jittered exponential backoff) until the winner's entry lands or the
// claim goes stale because its owner died. Claims are purely advisory —
// duplicated computation is wasted work, never wrong results, because
// entry writes stay atomic either way. Open sweeps out temp and claim
// files abandoned by killed processes so they cannot pin a key forever.
//
// Every filesystem operation goes through the cachefs.FS seam, so the
// fault-injection suite can prove those invariants under EIO, ENOSPC,
// torn writes, and simulated crashes.
package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dcasim/internal/cachefs"
	"dcasim/internal/config"
	"dcasim/internal/sim"
)

// FS is the filesystem seam every cache operation goes through; the
// default is the real filesystem (cachefs.OS), and tests substitute
// cachefs.Fault to inject EIO/ENOSPC/torn-write/crash faults.
type FS = cachefs.FS

// claimStale is the default for Tuning.StaleAfter: how old a claim file
// may grow before any process may break it. A live claimant's heartbeat
// refreshes the file's mtime far more often than this, so only a dead
// owner's claim ever ages out — a run longer than the window no longer
// loses its claim.
const claimStale = 10 * time.Minute

// staleTempAge is how old an orphaned temp file must be before Open
// deletes it. Fresh temp files belong to live writers mid-Put and must
// survive; anything this old was abandoned by a killed process.
const staleTempAge = time.Hour

// Tuning groups the liveness timing knobs of the claim protocol. Zero
// fields keep their current values; tests (and the kill-recovery suite)
// shrink them to make staleness observable in milliseconds.
type Tuning struct {
	// StaleAfter is the claim staleness window: a claim whose mtime is
	// older than this belongs to a dead process and may be broken.
	// Default 10 minutes.
	StaleAfter time.Duration
	// Heartbeat is how often a claim owner refreshes its claim file's
	// mtime. Default StaleAfter/4.
	Heartbeat time.Duration
	// Poll is WaitForClaim's initial backoff between entry checks; the
	// backoff doubles (with jitter) up to 32×Poll. Default 50 ms.
	Poll time.Duration
	// WaitMax bounds how long WaitForClaim blocks on a live claim
	// before giving up and letting the caller recompute (claims are
	// advisory: a stuck-but-heartbeating owner must not stall a waiter
	// forever). Default 2×StaleAfter.
	WaitMax time.Duration
}

// Cache is a directory of content-addressed simulation results.
type Cache struct {
	dir string
	fs  cachefs.FS

	staleAfter time.Duration // claim staleness window
	hbEvery    time.Duration // claim heartbeat interval
	pollEvery  time.Duration // WaitForClaim initial backoff
	waitMax    time.Duration // WaitForClaim deadline

	mu       sync.Mutex
	keys     map[string]*sync.Mutex // per-key write locks
	rngState uint64                 // backoff jitter (xorshift, seeded per cache)
}

// entry is the on-disk envelope around one result.
type entry struct {
	Schema int             `json:"schema"`
	Key    string          `json:"key"`
	SHA256 string          `json:"sha256"`
	Result json.RawMessage `json:"result"`
}

// Open returns a cache rooted at dir, creating the directory if needed.
// It also removes temp, claim, and breaker-lock files left behind by
// killed processes: a partially-written <key>.tmp* never becomes
// visible (writes are rename-atomic) but used to sit in the directory
// forever, and a stale <key>.claim would make other processes wait out
// the staleness window for an owner that no longer exists.
func Open(dir string) (*Cache, error) { return OpenFS(dir, cachefs.OS()) }

// OpenFS is Open over an explicit filesystem implementation — the
// fault-injection seam. A nil fsys selects the real filesystem.
func OpenFS(dir string, fsys cachefs.FS) (*Cache, error) {
	if fsys == nil {
		fsys = cachefs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rescache: %w", err)
	}
	c := &Cache{
		dir:        dir,
		fs:         fsys,
		staleAfter: claimStale,
		hbEvery:    claimStale / 4,
		pollEvery:  50 * time.Millisecond,
		waitMax:    2 * claimStale,
		keys:       make(map[string]*sync.Mutex),
		rngState:   uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano()) | 1,
	}
	c.cleanStale()
	return c, nil
}

// Tune overrides the claim-liveness timing knobs; zero fields keep
// their current values. Call it before the cache is shared between
// goroutines (it does not lock).
func (c *Cache) Tune(t Tuning) {
	if t.StaleAfter > 0 {
		c.staleAfter = t.StaleAfter
		c.hbEvery = t.StaleAfter / 4
		c.waitMax = 2 * t.StaleAfter
	}
	if t.Heartbeat > 0 {
		c.hbEvery = t.Heartbeat
	}
	if t.Poll > 0 {
		c.pollEvery = t.Poll
	}
	if t.WaitMax > 0 {
		c.waitMax = t.WaitMax
	}
}

// cleanStale removes abandoned temp files and expired claim and breaker
// files. Best effort: a cleanup failure never fails Open — the worst
// case is the status quo ante (a little garbage in the directory).
func (c *Cache) cleanStale() {
	entries, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return
	}
	now := time.Now()
	for _, e := range entries {
		name := e.Name()
		var maxAge time.Duration
		switch {
		case strings.Contains(name, ".tmp"):
			maxAge = staleTempAge
		case strings.HasSuffix(name, ".claim"), strings.HasSuffix(name, ".claim.break"):
			maxAge = claimStale
		default:
			continue // entry files and anything unrecognized are left alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if now.Sub(info.ModTime()) > maxAge {
			c.removeQuiet(filepath.Join(c.dir, name))
		}
	}
}

// removeQuiet deletes path, tolerating failure by design: every caller
// is cleaning up a scratch, claim, or breaker file whose survival costs
// at most a later sweep or staleness break, never wrong results.
func (c *Cache) removeQuiet(path string) {
	err := c.fs.Remove(path)
	_ = err // best effort: a file that refuses to die goes stale and is swept later
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Path returns the file an entry for key lives at (whether or not it
// exists yet).
func (c *Cache) Path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// claimPath returns the claim file guarding key's computation.
func (c *Cache) claimPath(key string) string {
	return filepath.Join(c.dir, key+".claim")
}

// keyLock returns the per-key mutex, creating it on first use.
func (c *Cache) keyLock(key string) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.keys[key]
	if m == nil {
		m = &sync.Mutex{}
		c.keys[key] = m
	}
	return m
}

// jitter returns a pseudo-random duration in [0, d/2): claim waiters
// desynchronize their polls so a released claim is not hammered by
// every waiter in the same instant. The stream is a per-cache xorshift
// — deliberately not math/rand's process-global state, and irrelevant
// to result determinism (it only shifts when a waiter looks, never what
// it reads).
func (c *Cache) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return 0
	}
	c.mu.Lock()
	x := c.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rngState = x
	c.mu.Unlock()
	return time.Duration(x % uint64(d/2))
}

// validKey reports whether key is a hex digest — the only file names the
// cache will touch, so a corrupted or hostile key cannot escape the
// cache directory.
func validKey(key string) bool {
	if len(key) == 0 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

// Get returns the cached result for key. ok is false on a miss or on any
// integrity failure; the caller recomputes either way.
func (c *Cache) Get(key string) (res sim.Result, ok bool) {
	if !validKey(key) {
		return sim.Result{}, false
	}
	data, err := c.fs.ReadFile(c.Path(key))
	if err != nil {
		return sim.Result{}, false
	}
	var e entry
	if json.Unmarshal(data, &e) != nil {
		return sim.Result{}, false
	}
	if e.Schema != config.SchemaVersion || e.Key != key {
		return sim.Result{}, false
	}
	// The envelope is written indented, which re-indents the embedded
	// payload; the checksum is over the canonical compact bytes, so
	// compact before comparing.
	var compact bytes.Buffer
	if json.Compact(&compact, e.Result) != nil {
		return sim.Result{}, false
	}
	sum := sha256.Sum256(compact.Bytes())
	if hex.EncodeToString(sum[:]) != e.SHA256 {
		return sim.Result{}, false
	}
	if json.Unmarshal(e.Result, &res) != nil {
		return sim.Result{}, false
	}
	return res, true
}

// Put stores a result under key, atomically replacing any existing
// entry. Concurrent in-process writers to the same key serialize;
// concurrent processes are already safe through the sync-temp-then-
// rename protocol. The temp file is fsynced before the rename — without
// that barrier a machine crash after the rename could leave a
// zero-length entry under the final name on journaled filesystems — and
// the directory is synced best-effort afterwards so the rename itself
// survives a crash (its loss costs one recompute, never a torn entry).
func (c *Cache) Put(key string, res sim.Result) error {
	if !validKey(key) {
		return fmt.Errorf("rescache: invalid key %q", key)
	}
	lock := c.keyLock(key)
	lock.Lock()
	defer lock.Unlock()
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("rescache: encode result: %w", err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.MarshalIndent(entry{
		Schema: config.SchemaVersion,
		Key:    key,
		SHA256: hex.EncodeToString(sum[:]),
		Result: payload,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("rescache: encode entry: %w", err)
	}
	return c.write(key+".tmp*", c.Path(key), append(data, '\n'))
}

// write publishes the concatenated chunks at path through a temp file named by the
// CreateTemp pattern (which must contain ".tmp", so that Open sweeps it
// up if the writer dies). The temp file is fsynced and then renamed
// over path, so readers see the whole file or none. The temp file is removed on failure; the directory is
// synced best-effort afterwards so the rename itself survives a crash
// (its loss costs one recompute, never a torn entry).
func (c *Cache) write(pattern, path string, chunks ...[]byte) error {
	tmp, err := c.fs.CreateTemp(c.dir, pattern)
	if err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	var werr error
	for _, data := range chunks {
		if _, werr = tmp.Write(data); werr != nil {
			break
		}
	}
	var serr error
	if werr == nil {
		serr = tmp.Sync()
	}
	cerr := tmp.Close()
	if err := firstErr(werr, serr, cerr); err != nil {
		c.removeQuiet(tmp.Name())
		return fmt.Errorf("rescache: write entry: %w", err)
	}
	if err := c.fs.Rename(tmp.Name(), path); err != nil {
		c.removeQuiet(tmp.Name())
		return fmt.Errorf("rescache: %w", err)
	}
	derr := c.fs.SyncDir(c.dir)
	_ = derr // best effort: an unsynced rename costs at most a recompute after a machine crash
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TryClaim attempts to mark key as "being computed by this process" so
// sibling processes sharing the directory can wait instead of
// duplicating the run. ok reports whether the claim was taken; release
// must be called exactly once (after the entry is Put, so waiters wake
// to a hit) and is never nil. While the claim is held, a heartbeat
// goroutine refreshes the claim file's mtime every Tuning.Heartbeat, so
// a run longer than the staleness window keeps its claim; release stops
// the heartbeat and removes the file. A claim whose mtime has outlived
// Tuning.StaleAfter is presumed orphaned and broken (under a per-key
// breaker lock, so racing breakers cannot delete each other's fresh
// replacement claims — at most one claimant wins a breaking episode).
//
// Claims are advisory: on any unexpected filesystem error the caller is
// told to proceed (ok=true with a no-op release) — duplicate computation
// is wasted work, not a correctness hazard.
func (c *Cache) TryClaim(key string) (release func(), ok bool) {
	noop := func() {}
	if !validKey(key) {
		return noop, true
	}
	path := c.claimPath(key)
	for attempt := 0; attempt < 3; attempt++ {
		f, err := c.fs.CreateExclusive(path)
		if err == nil {
			_, werr := fmt.Fprintf(f, "pid %d\n", os.Getpid())
			cerr := f.Close()
			if ferr := firstErr(werr, cerr); ferr != nil {
				// The claim exists but could not be written out; keep it
				// (its existence is the lock) and carry on.
				_ = ferr // the file's contents are diagnostic only
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go c.heartbeat(path, stop, done)
			return func() {
				close(stop)
				<-done
				c.removeQuiet(path)
			}, true
		}
		if !errors.Is(err, iofs.ErrExist) {
			return noop, true // advisory: proceed without a claim
		}
		info, serr := c.fs.Stat(path)
		if serr != nil {
			continue // claim vanished between create and stat: retry
		}
		if time.Since(info.ModTime()) <= c.staleAfter {
			return noop, false // live claimant
		}
		// Stale claim from a dead process: break it under the breaker
		// lock and retry the exclusive create. A racing claimant may
		// win that create; we then observe a fresh claim on the next
		// attempt and report the key as held.
		if !c.breakStale(path) {
			return noop, false
		}
	}
	return noop, false
}

// heartbeat refreshes path's mtime every hbEvery until stop closes, so
// a live claim never looks stale no matter how long its run computes.
// Any refresh failure ends the heartbeat: either the claim file is gone
// (released, broken, or swept — beating would resurrect a file another
// process now owns) or the filesystem is sick, and in both cases the
// safe behaviour is to let the claim age out.
func (c *Cache) heartbeat(path string, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-time.After(c.hbEvery):
			now := time.Now()
			if err := c.fs.Chtimes(path, now, now); err != nil {
				return
			}
		}
	}
}

// breakStale removes a stale claim under an exclusive per-key breaker
// lock (<claim>.break). Without the lock, two breakers can interleave
// remove/create such that one deletes the other's *fresh* replacement
// claim and both believe they won; with it, the claim file is only ever
// removed by the lock holder after re-checking staleness, so exactly
// one claimant can win the subsequent exclusive create. Reports whether
// the caller should retry that create; false means another process owns
// the break (or the claim turned out to be live after all).
func (c *Cache) breakStale(path string) bool {
	lock := path + ".break"
	bf, err := c.fs.CreateExclusive(lock)
	if err != nil {
		if !errors.Is(err, iofs.ErrExist) {
			return false // advisory protocol on a sick FS: treat as held
		}
		// Another process is mid-break. If its lock is itself stale
		// (breaker killed between create and remove), sweep it so the
		// key cannot wedge; the next attempt re-races the break.
		if info, serr := c.fs.Stat(lock); serr == nil && time.Since(info.ModTime()) > c.staleAfter {
			c.removeQuiet(lock)
			return true
		}
		return false
	}
	cerr := bf.Close()
	_ = cerr // the lock is the file's existence, not its contents
	defer c.removeQuiet(lock)
	// Re-check under the lock: the claim may have been broken and
	// re-taken (now fresh) while we raced for the lock.
	info, serr := c.fs.Stat(path)
	if serr != nil {
		return true // claim gone already
	}
	if time.Since(info.ModTime()) <= c.staleAfter {
		return false
	}
	c.removeQuiet(path)
	return true
}

// ClaimHeld reports whether a live (non-stale) claim for key exists.
func (c *Cache) ClaimHeld(key string) bool {
	info, err := c.fs.Stat(c.claimPath(key))
	return err == nil && time.Since(info.ModTime()) <= c.staleAfter
}

// WaitForClaim blocks while another process holds a live claim on key,
// waiting for its entry to land with jittered exponential backoff
// (starting at Tuning.Poll, capped at 32×Poll) instead of a fixed-rate
// poll. It returns the result as soon as one is readable; ok is false
// once the claim is gone (released or stale) without an entry
// appearing, or once Tuning.WaitMax elapses — the caller should then
// compute the run itself (claims are advisory, so an owner that
// heartbeats but never finishes costs a duplicated run, never a hang).
// A caller that never claimed and never saw a claim gets an immediate
// miss.
func (c *Cache) WaitForClaim(key string) (sim.Result, bool) {
	deadline := time.Now().Add(c.waitMax)
	backoff := c.pollEvery
	for {
		if res, ok := c.Get(key); ok {
			return res, true
		}
		if !c.ClaimHeld(key) {
			// The claimant may have Put and released between our miss
			// and this check; one last look stops the caller from
			// re-simulating an entry that just landed.
			return c.Get(key)
		}
		if time.Now().After(deadline) {
			// Bounded wait: stop trusting the claimant's progress and
			// recompute. Same final look as above.
			return c.Get(key)
		}
		time.Sleep(backoff + c.jitter(backoff))
		if backoff < 32*c.pollEvery {
			backoff *= 2
		}
	}
}
