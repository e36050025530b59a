// Package sim assembles a complete system from a config — cores, L1s,
// the shared L2, the DRAM cache with its per-channel controllers, and
// main memory — performs functional warm-up, runs the timed region, and
// collects every statistic the experiments consume. Warmup and RunFrom
// split a run at the warm-up boundary, so runs that share a warm key
// (WarmKeyOf) can start from one snapshot instead of each warming up.
package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"dcasim/internal/binenc"
	"dcasim/internal/cache"
	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/cpu"
	"dcasim/internal/dcache"
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/mainmem"
	"dcasim/internal/simtime"
	"dcasim/internal/tagcache"
	"dcasim/internal/trace"
	"dcasim/internal/workload"
)

// Result collects the outputs of one simulation run.
type Result struct {
	Benchmarks []string
	IPC        []float64
	FinishNS   []float64

	DCache dcache.Stats
	DRAM   dram.Stats
	Ctrl   core.Stats

	L2MissLatencyNS float64
	L2MissRate      float64
	L2Writebacks    int64
	LeeEager        int64

	TagCacheLookups int64
	TagCacheHits    int64
	DRAMTagAccesses int64

	MainMemReads  int64
	MainMemWrites int64
}

// runSources carries the resolved per-core operation streams of a run:
// live synthetic generators, trace-replay decoders, and the optional
// recording tee around either.
type runSources struct {
	names      []string // benchmark name per core, for Result.Benchmarks
	srcs       []workload.Source
	reader     *trace.Reader
	writer     *trace.Writer
	outBuf     *bufio.Writer
	recordPath string
	files      []*os.File
}

// openSources resolves cfg into per-core sources. On replay it rewrites
// the run budgets from the trace header so the simulation consumes
// exactly the recorded stream; on record it tees every source into a
// trace writer.
func openSources(cfg *config.Config) (*runSources, error) {
	rs := &runSources{}
	if path := cfg.ReplayPath(); path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("sim: open trace: %w", err)
		}
		rs.files = append(rs.files, f)
		r, err := trace.NewReader(bufio.NewReaderSize(f, 1<<16))
		if err != nil {
			rs.closeFiles()
			return nil, err
		}
		rs.reader = r
		hdr := r.Header()
		rs.names = hdr.Benchmarks
		if hdr.InstrPerCore > 0 {
			cfg.InstrPerCore = hdr.InstrPerCore
			cfg.WarmMemops = hdr.WarmMemops
			cfg.Seed = hdr.Seed
			cfg.WSScale = hdr.WSScale
		}
		if cfg.InstrPerCore <= 0 {
			rs.closeFiles()
			return nil, fmt.Errorf("sim: trace %s carries no instruction budget and the config sets none", path)
		}
		rs.srcs = make([]workload.Source, len(rs.names))
		for i := range rs.srcs {
			rs.srcs[i] = r.Source(i)
		}
	} else {
		rs.names = append([]string(nil), cfg.Benchmarks...)
		rs.srcs = make([]workload.Source, len(rs.names))
		for i := range rs.names {
			g, err := newGen(cfg, i)
			if err != nil {
				return nil, err
			}
			rs.srcs[i] = g
		}
	}
	if cfg.RecordPath != "" {
		f, err := os.Create(cfg.RecordPath)
		if err != nil {
			rs.closeFiles()
			return nil, fmt.Errorf("sim: create trace: %w", err)
		}
		rs.files = append(rs.files, f)
		rs.recordPath = cfg.RecordPath
		rs.outBuf = bufio.NewWriterSize(f, 1<<16)
		w, err := trace.NewWriter(rs.outBuf, trace.Header{
			Benchmarks:   rs.names,
			Seed:         cfg.Seed,
			WSScale:      cfg.WSScale,
			InstrPerCore: cfg.InstrPerCore,
			WarmMemops:   cfg.WarmMemops,
		})
		if err != nil {
			rs.abort()
			return nil, err
		}
		rs.writer = w
		for i := range rs.srcs {
			rs.srcs[i] = w.Tee(i, rs.srcs[i])
		}
	}
	return rs, nil
}

// newGen returns the synthetic generator of core i of a config without
// a trace, at the start of its stream.
func newGen(cfg *config.Config, i int) (*workload.Gen, error) {
	prof, err := workload.Lookup(cfg.Benchmarks[i])
	if err != nil {
		return nil, err
	}
	return workload.NewGen(prof, cfg.Seed*1000003+uint64(i)*7919, int64(i)<<40, cfg.WSScale), nil
}

// abort closes the trace files after a failed run and removes a
// partially written recording — a truncated .dct would replay as a
// confusing stream-exhausted error much later.
func (rs *runSources) abort() {
	rs.closeFiles()
	if rs.recordPath != "" {
		os.Remove(rs.recordPath)
	}
}

// finish flushes the recording, surfaces any replay decode error, and
// closes the trace files.
func (rs *runSources) finish() error {
	var first error
	if rs.writer != nil {
		first = rs.writer.Flush()
		if err := rs.outBuf.Flush(); first == nil && err != nil {
			first = fmt.Errorf("sim: flush trace: %w", err)
		}
	}
	if rs.reader != nil && first == nil {
		if err := rs.reader.Err(); err != nil {
			first = fmt.Errorf("sim: replay: %w", err)
		}
	}
	if err := rs.closeFiles(); first == nil {
		first = err
	}
	return first
}

func (rs *runSources) closeFiles() error {
	var first error
	for _, f := range rs.files {
		if err := f.Close(); first == nil && err != nil {
			first = err
		}
	}
	rs.files = nil
	return first
}

// testEngineHook, when set, observes the event engine of every Run
// before any event is scheduled. It is a test-only seam (the
// event-delta characterization test instruments Schedule through it)
// and must stay nil outside tests.
var testEngineHook func(*event.Engine)

// system is one assembled simulator: the operation sources, the event
// engine, and every component from the cores down to main memory.
type system struct {
	srcs  *runSources
	eng   *event.Engine
	mem   *mainmem.Memory
	dc    *dcache.DCache
	l2arr *cache.Cache
	l2    *cpu.L2
	l1s   []*cache.Cache
	cores []*cpu.Core

	finished bool // the timed region completed and the sources were finished
}

// release discards the sources of a run that did not finish — failed,
// or panicked anywhere after build — removing a partial recording.
func (s *system) release() {
	if !s.finished {
		s.srcs.abort()
	}
}

// build assembles the system a validated cfg describes. With a warm
// state the cores draw from clones of its generators; otherwise
// openSources resolves them (rewriting cfg's budgets on replay). On
// error the sources are already released.
func build(cfg *config.Config, ws *WarmState) (s *system, err error) {
	var srcs *runSources
	if ws != nil {
		srcs = &runSources{names: append([]string(nil), cfg.Benchmarks...)}
		for _, g := range ws.gens {
			srcs.srcs = append(srcs.srcs, g.Clone())
		}
	} else if srcs, err = openSources(cfg); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			srcs.abort()
		}
	}()
	eng := &event.Engine{}
	if testEngineHook != nil {
		testEngineHook(eng)
	}
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
		Cores:     len(srcs.srcs),
	}
	if cfg.TagCacheKB > 0 {
		tc := tagcache.DefaultConfig(cfg.TagCacheKB << 10)
		dcCfg.TagCache = &tc
	}
	dc, err := dcache.New(eng, dcCfg, mem)
	if err != nil {
		return nil, err
	}

	l2arr, err := cache.New(cfg.L2Bytes, dcache.BlockBytes, cfg.L2Ways)
	if err != nil {
		return nil, err
	}
	l2 := cpu.NewL2(eng, l2arr, dc, cfg.L2HitLat, cfg.LeeWriteback)

	s = &system{srcs: srcs, eng: eng, mem: mem, dc: dc, l2arr: l2arr, l2: l2}
	for i, src := range srcs.srcs {
		l1, err := cache.New(cfg.L1Bytes, dcache.BlockBytes, cfg.L1Ways)
		if err != nil {
			return nil, err
		}
		s.l1s = append(s.l1s, l1)
		s.cores = append(s.cores, cpu.NewCore(eng, i, cfg.CPU, src, l1, l2))
	}
	return s, nil
}

// warm is the functional warm-up: it interleaves the cores in rounds so
// shared L2 and DRAM-cache state see the multiprogrammed interleaving,
// then clears all statistics.
func (s *system) warm(memops int64) {
	const warmRound = 1024
	for done := int64(0); done < memops; done += warmRound {
		n := warmRound
		if memops-done < int64(n) {
			n = int(memops - done)
		}
		for _, c := range s.cores {
			c.Warm(int64(n))
		}
	}
	s.dc.ResetStats()
	s.l2.ResetStats()
	s.mem.ResetStats()
}

// timed runs the timed region until every core retires instrPerCore
// instructions, then finishes the sources and collects the results.
func (s *system) timed(instrPerCore int64) (Result, error) {
	remaining := len(s.cores)
	for _, c := range s.cores {
		c.Run(instrPerCore, func(*cpu.Core) { remaining-- })
	}
	for remaining > 0 {
		if !s.eng.Step() {
			return Result{}, fmt.Errorf("sim: deadlock with %d cores unfinished at %v", remaining, s.eng.Now())
		}
	}
	// Any error — including a replay decode error surfaced here — takes
	// the caller's deferred release, which discards a partial recording.
	if err := s.srcs.finish(); err != nil {
		return Result{}, err
	}
	s.finished = true

	dc, l2, mem := s.dc, s.l2, s.mem
	res := Result{
		Benchmarks:      append([]string(nil), s.srcs.names...),
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
	for _, c := range s.cores {
		res.IPC = append(res.IPC, c.IPC())
		res.FinishNS = append(res.FinishNS, c.FinishTime().NS())
	}
	return res, nil
}

// Run executes one simulation and returns its results.
func Run(cfg config.Config) (Result, error) { return RunSaving(cfg, nil) }

// RunSaving is Run that also hands save, at the end of warm-up, a
// snapshot of the warm state — the state Warmup(cfg) returns — before
// the same system runs its timed region. Its result is Run's. With a
// save, trace replay and recording runs, which have no warm state, are
// refused; a nil save makes it Run.
func RunSaving(cfg config.Config, save func(*WarmState)) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var key string
	if save != nil {
		var ok bool
		if key, ok = WarmKeyOf(cfg); !ok {
			return Result{}, errKeyless
		}
	}
	s, err := build(&cfg, nil)
	if err != nil {
		return Result{}, err
	}
	defer s.release()
	s.warm(cfg.WarmMemops)
	if save != nil {
		save(s.snapshot(key))
	}
	return s.timed(cfg.InstrPerCore)
}

// warmKey is the projection of a config that functional warm-up reads:
// the operation streams (benchmarks, seed, working-set scale, warm-up
// budget) and the shape of every array they warm (L1, L2, the DRAM
// cache's organization and DRAM geometry, MAP-I). Everything else —
// design, policy and its parameters, controller queues, DRAM and main
// memory timing, the CPU, XOR remapping, the tag cache, Lee writeback,
// the BEAR probe, the timed budget — only acts in the timed region.
type warmKey struct {
	Benchmarks             []string
	Seed                   uint64
	WSScale                float64
	WarmMemops             int64
	L1Bytes, L2Bytes       int64
	L1Ways, L2Ways         int
	CacheSizeBytes         int64
	Org                    dcache.Org
	Channels, Ranks, Banks int
	RowBytes               int
	UseMAPI                bool
}

// WarmKeyOf returns the key of the state cfg's functional warm-up ends
// in: runs whose configs share a key start their timed regions from
// identical warm states, so one Warmup can seed all of them through
// RunFrom. Trace replay and recording runs have no key (false): their
// streams live in files, outside the config.
func WarmKeyOf(cfg config.Config) (string, bool) {
	if cfg.ReplayPath() != "" || cfg.RecordPath != "" {
		return "", false
	}
	enc, err := json.Marshal(warmKey{
		Benchmarks:     cfg.Benchmarks,
		Seed:           cfg.Seed,
		WSScale:        cfg.WSScale,
		WarmMemops:     cfg.WarmMemops,
		L1Bytes:        cfg.L1Bytes,
		L2Bytes:        cfg.L2Bytes,
		L1Ways:         cfg.L1Ways,
		L2Ways:         cfg.L2Ways,
		CacheSizeBytes: cfg.CacheSizeBytes,
		Org:            cfg.Org,
		Channels:       cfg.Channels,
		Ranks:          cfg.Ranks,
		Banks:          cfg.Banks,
		RowBytes:       cfg.RowBytes,
		UseMAPI:        cfg.UseMAPI,
	})
	if err != nil {
		return "", false // unreachable: every field marshals
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), true
}

// WarmState is the functional state one warm-up leaves behind: the L1,
// L2 and DRAM-cache tag arrays (each a compact cache.State), the MAP-I
// tables, and each core's generator with its RNG position. It is never
// modified after Warmup returns, so any number of RunFrom calls may
// copy it concurrently.
type WarmState struct {
	key  string
	l1s  []cache.State
	l2   cache.State
	dc   dcache.WarmState
	gens []*workload.Gen
}

// errKeyless refuses a warm state to a run without a warm key.
var errKeyless = errors.New("sim: trace replay and recording runs have no reusable warm state")

// Warmup builds the system cfg describes, runs its functional warm-up,
// and returns the warmed state.
func Warmup(cfg config.Config) (*WarmState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key, ok := WarmKeyOf(cfg)
	if !ok {
		return nil, errKeyless
	}
	s, err := build(&cfg, nil)
	if err != nil {
		return nil, err
	}
	s.warm(cfg.WarmMemops)
	return s.snapshot(key), nil
}

// snapshot copies the warm state of a warmed system, whose warm key is
// key, out of it; the system is left as it was.
func (s *system) snapshot(key string) *WarmState {
	ws := &WarmState{key: key, l2: s.l2arr.Snapshot(), dc: s.dc.SnapshotWarmState()}
	for i, l1 := range s.l1s {
		ws.l1s = append(ws.l1s, l1.Snapshot())
		ws.gens = append(ws.gens, s.srcs.srcs[i].(*workload.Gen).Clone())
	}
	return ws
}

// RunFrom executes cfg's simulation from a warm state instead of warming
// up: it builds the system, copies ws into it, and runs the timed
// region. ws must come from Warmup of a config with cfg's warm key; the
// result is then identical to Run(cfg). ws is only read.
func RunFrom(cfg config.Config, ws *WarmState) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if key, ok := WarmKeyOf(cfg); !ok || ws == nil || key != ws.key {
		return Result{}, fmt.Errorf("sim: warm state does not match the config's warm key")
	}
	s, err := build(&cfg, ws)
	if err != nil {
		return Result{}, err
	}
	defer s.release()
	if err := s.restore(ws); err != nil {
		return Result{}, err
	}
	return s.timed(cfg.InstrPerCore)
}

// restore copies ws's arrays into the system's (the generators were
// cloned by build).
func (s *system) restore(ws *WarmState) error {
	if err := s.l2arr.CopyState(ws.l2); err != nil {
		return err
	}
	for i, l1 := range s.l1s {
		if err := l1.CopyState(ws.l1s[i]); err != nil {
			return err
		}
	}
	return s.dc.CopyWarmState(ws.dc)
}

// WarmFormat is the version of the encoding EncodeWarmState writes.
// Stores of snapshots carry it, and a snapshot of another version is
// not read.
const WarmFormat = 1

// EncodeWarmState returns the binary form of ws: its warm key (64 hex
// digits), the core count (uint32), each L1's cache.State, the L2's,
// the DRAM cache's dcache.WarmState, and each core generator's position.
// Integers are little-endian throughout.
func EncodeWarmState(ws *WarmState) []byte {
	b := append([]byte(nil), ws.key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ws.l1s)))
	for _, l1 := range ws.l1s {
		b = l1.Append(b)
	}
	b = ws.l2.Append(b)
	b = ws.dc.Append(b)
	for _, g := range ws.gens {
		b = g.AppendPosition(b)
	}
	return b
}

// DecodeWarmState rebuilds the WarmState that EncodeWarmState encoded
// into data, for cfg: the generators are rebuilt from cfg and moved to
// their stored positions. The stored warm key must be cfg's, and the
// core count, every array's sets x ways and the MAP-I core count must be
// the ones cfg describes, so a snapshot RunFrom accepts is one Warmup of
// cfg could have produced.
func DecodeWarmState(cfg config.Config, data []byte) (*WarmState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key, ok := WarmKeyOf(cfg)
	if !ok {
		return nil, errKeyless
	}
	l1Sets, err := cache.Shape(cfg.L1Bytes, dcache.BlockBytes, cfg.L1Ways)
	if err != nil {
		return nil, err
	}
	l2Sets, err := cache.Shape(cfg.L2Bytes, dcache.BlockBytes, cfg.L2Ways)
	if err != nil {
		return nil, err
	}
	geom, err := dcache.NewGeometry(cfg.Org, cfg.CacheSizeBytes, cfg.DRAMGeometry())
	if err != nil {
		return nil, err
	}
	r := binenc.NewReader(data)
	if got := r.Bytes(len(key)); r.Err() == nil && string(got) != key {
		return nil, fmt.Errorf("sim: warm snapshot of key %.12s…, want %.12s…", got, key)
	}
	cores := len(cfg.Benchmarks)
	if got := int(r.U32()); r.Err() == nil && got != cores {
		return nil, fmt.Errorf("sim: warm snapshot of %d cores, want %d", got, cores)
	}
	ws := &WarmState{key: key}
	for i := 0; i < cores; i++ {
		ws.l1s = append(ws.l1s, cache.ReadState(r, l1Sets, cfg.L1Ways))
	}
	ws.l2 = cache.ReadState(r, l2Sets, cfg.L2Ways)
	mapiCores := 0
	if cfg.UseMAPI {
		mapiCores = cores
	}
	ws.dc = dcache.ReadWarmState(r, geom, mapiCores)
	for i := 0; i < cores; i++ {
		g, err := newGen(&cfg, i)
		if err != nil {
			return nil, err
		}
		g.RestorePosition(r)
		ws.gens = append(ws.gens, g)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("sim: warm snapshot: %w", err)
	}
	return ws, nil
}

// AloneIPC runs a single benchmark alone on the given configuration and
// returns its IPC — the denominator of the weighted-speedup metric. The
// controller design used for alone runs is CD, the paper's normalization
// baseline.
func AloneIPC(cfg config.Config, bench string) (float64, error) {
	cfg.Benchmarks = []string{bench}
	cfg.Design = core.CD
	cfg.Ctrl = nil
	res, err := Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.IPC[0], nil
}

// TotalNS returns the latest core finish time of a result.
func (r Result) TotalNS() float64 {
	max := 0.0
	for _, f := range r.FinishNS {
		if f > max {
			max = f
		}
	}
	return max
}

// ReadRowHitRate forwards the DRAM read row-buffer hit rate.
func (r Result) ReadRowHitRate() float64 { return r.DRAM.ReadRowHitRate() }

// AccessesPerTurnaround forwards the DRAM turnaround metric.
func (r Result) AccessesPerTurnaround() float64 { return r.DRAM.AccessesPerTurnaround() }

// AvgReadLatencyNS returns the mean DRAM-cache read latency in ns.
func (r Result) AvgReadLatencyNS() float64 {
	return simtime.Time(r.DCache.AvgReadLatency()).NS()
}
