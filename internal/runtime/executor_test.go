package runtime

import (
	"math"
	hostrt "runtime"
	"testing"
	"time"

	"dana/internal/accessengine"
	"dana/internal/backend"
	"dana/internal/fault"
	"dana/internal/hdfg"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/strider"
)

// trainConfigured runs one full Train of a workload under the given
// executor configuration and returns the result. mods adjust the
// Options before the system is built (fault schedules, timeouts).
func trainConfigured(t *testing.T, workload string, scale float64, mergeCoef, epochs, workers int, noCache bool, mods ...func(*Options)) *TrainResult {
	t.Helper()
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.PoolBytes = 32 << 20
	opts.MaxEpochs = epochs
	opts.Workers = workers
	opts.NoExtractCache = noCache
	for _, mod := range mods {
		mod(&opts)
	}
	s := New(opts)
	d := deployScaled(t, s, workload, scale)
	a, err := d.DSLAlgo(mergeCoef)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(epochs)
	if _, err := s.Register(a, mergeCoef, d.Tuples); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pool().PinnedCount() != 0 {
		t.Fatalf("%s workers=%d: leaked page pins", workload, workers)
	}
	return res
}

// TestParallelExecutorDeterminism: the concurrent pipelined executor
// (and the record cache) must change host wall-clock only. Model bits,
// epoch counts, modeled cycle stats, and simulated seconds are
// bit-identical to the serial, uncached path on LR, SVM, and LRMF.
func TestParallelExecutorDeterminism(t *testing.T) {
	// Give the scheduler real parallelism even on small CI hosts so the
	// worker pool and the engine batch fan-out actually run concurrently
	// (particularly under -race).
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(4))
	cases := []struct {
		workload  string
		scale     float64
		mergeCoef int
		epochs    int
	}{
		{"Remote Sensing LR", 0.002, 16, 4},
		{"Remote Sensing SVM", 0.002, 16, 4},
		{"Netflix", 0.0005, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			serial := trainConfigured(t, tc.workload, tc.scale, tc.mergeCoef, tc.epochs, 1, true)
			configs := []struct {
				name    string
				workers int
				noCache bool
			}{
				{"parallel8+cache", 8, false},
				{"parallel4-nocache", 4, true},
				{"serial+cache", 1, false},
			}
			for _, cfg := range configs {
				got := trainConfigured(t, tc.workload, tc.scale, tc.mergeCoef, tc.epochs, cfg.workers, cfg.noCache)
				if got.Epochs != serial.Epochs {
					t.Errorf("%s: epochs %d != serial %d", cfg.name, got.Epochs, serial.Epochs)
				}
				if len(got.Model) != len(serial.Model) {
					t.Fatalf("%s: model size %d != %d", cfg.name, len(got.Model), len(serial.Model))
				}
				for i := range got.Model {
					if math.Float32bits(got.Model[i]) != math.Float32bits(serial.Model[i]) {
						t.Fatalf("%s: model[%d] = %v != serial %v (not bit-identical)",
							cfg.name, i, got.Model[i], serial.Model[i])
					}
				}
				if got.Engine != serial.Engine {
					t.Errorf("%s: engine stats %+v != serial %+v", cfg.name, got.Engine, serial.Engine)
				}
				if got.Access != serial.Access {
					t.Errorf("%s: access stats %+v != serial %+v", cfg.name, got.Access, serial.Access)
				}
				if got.SimulatedSeconds != serial.SimulatedSeconds {
					t.Errorf("%s: simulated %v != serial %v", cfg.name, got.SimulatedSeconds, serial.SimulatedSeconds)
				}
			}
		})
	}
}

// TestExtractCacheSkipsPoolAndInvalidates: epochs >= 2 of a cached run
// must bypass the buffer pool entirely; DropCaches must force full
// re-extraction (with re-charged disk reads), and a heap mutation must
// invalidate the cached records.
func TestExtractCacheSkipsPoolAndInvalidates(t *testing.T) {
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.PoolBytes = 32 << 20
	opts.MaxEpochs = 3
	opts.Workers = 4
	s := New(opts)
	d := deployScaled(t, s, "Remote Sensing LR", 0.002)
	a, err := d.DSLAlgo(16)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(3)
	if _, err := s.Register(a, 16, d.Tuples); err != nil {
		t.Fatal(err)
	}

	// Cold run: epoch 1 reads from disk and fills the cache; epochs 2-3
	// replay it, so the pool sees each page exactly once.
	cold, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Pool.Misses != int64(d.Rel.NumPages()) {
		t.Errorf("cold run: %d misses, want one per page (%d)", cold.Pool.Misses, d.Rel.NumPages())
	}
	if cold.Pool.Hits != 0 {
		t.Errorf("cold run: %d pool hits; cached epochs should bypass the pool", cold.Pool.Hits)
	}

	// A second Train replays the cache: no pool traffic at all.
	s.Pool().ResetStats()
	warm, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pool.Hits != 0 || warm.Pool.Misses != 0 {
		t.Errorf("cached run touched the pool: %+v", warm.Pool)
	}
	if warm.SimulatedSeconds >= cold.SimulatedSeconds {
		t.Errorf("cached run simulated %v not below cold %v", warm.SimulatedSeconds, cold.SimulatedSeconds)
	}

	// DropCaches: the next run must re-read every page from disk.
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	s.Pool().ResetStats()
	recold, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if recold.Pool.Misses != int64(d.Rel.NumPages()) {
		t.Errorf("post-DropCaches run: %d misses, want %d", recold.Pool.Misses, d.Rel.NumPages())
	}
	if recold.Pool.IOSeconds <= 0 {
		t.Error("post-DropCaches run charged no disk time")
	}

	// Heap mutation: the generation check must reject the cached records.
	if ent := s.cache.lookup(d.Rel, s.DB.Pool.InvalidationCount()); ent == nil {
		t.Fatal("cache entry missing after re-extraction")
	}
	if _, err := d.Rel.Insert(make([]float64, d.Rel.Schema.NumCols())); err != nil {
		t.Fatal(err)
	}
	if ent := s.cache.lookup(d.Rel, s.DB.Pool.InvalidationCount()); ent != nil {
		t.Error("cache entry survived a heap mutation")
	}

	// Pool invalidation outside DropCaches (e.g. DROP TABLE) also
	// invalidates via the pool's invalidation counter.
	s2 := New(opts)
	d2 := deployScaled(t, s2, "Patient", 0.01)
	a2, err := d2.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a2.SetEpochs(2)
	if _, err := s2.Register(a2, 8, d2.Tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Train(a2.Name, d2.Rel.Name); err != nil {
		t.Fatal(err)
	}
	if ent := s2.cache.lookup(d2.Rel, s2.DB.Pool.InvalidationCount()); ent == nil {
		t.Fatal("cache not filled")
	}
	if err := s2.DB.Pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if ent := s2.cache.lookup(d2.Rel, s2.DB.Pool.InvalidationCount()); ent != nil {
		t.Error("cache entry survived direct pool invalidation")
	}
}

// TestWorkerSweepBitIdentity is the metamorphic serial-vs-parallel
// check from the differential verification harness: the full worker
// grid {1,2,4,8} x {cache,nocache} must produce bit-identical models
// and identical modeled cycle stats to the serial uncached baseline.
// Parallelism and caching may only change host wall-clock.
func TestWorkerSweepBitIdentity(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(4))
	const (
		workload  = "Remote Sensing LR"
		scale     = 0.002
		mergeCoef = 16
		epochs    = 3
	)
	serial := trainConfigured(t, workload, scale, mergeCoef, epochs, 1, true)
	// The grid also runs with a zero-rate fault schedule attached: the
	// injection hooks, checksum verification, and recovery scaffolding
	// must be invisible when no fault fires.
	zeroFaults := func(o *Options) { o.Faults = fault.New(fault.Config{Seed: 7}) }
	for _, workers := range []int{1, 2, 4, 8} {
		for _, cfg := range []struct {
			noCache bool
			faulted bool
		}{{false, false}, {true, false}, {false, true}, {true, true}} {
			noCache := cfg.noCache
			name := "cache"
			if noCache {
				name = "nocache"
			}
			var mods []func(*Options)
			if cfg.faulted {
				name += "+zerofaults"
				mods = append(mods, zeroFaults)
			}
			got := trainConfigured(t, workload, scale, mergeCoef, epochs, workers, noCache, mods...)
			if got.Epochs != serial.Epochs {
				t.Errorf("workers=%d/%s: epochs %d != serial %d", workers, name, got.Epochs, serial.Epochs)
			}
			if len(got.Model) != len(serial.Model) {
				t.Fatalf("workers=%d/%s: model size %d != %d", workers, name, len(got.Model), len(serial.Model))
			}
			for i := range got.Model {
				if math.Float32bits(got.Model[i]) != math.Float32bits(serial.Model[i]) {
					t.Fatalf("workers=%d/%s: model[%d] = %v != serial %v (not bit-identical)",
						workers, name, i, got.Model[i], serial.Model[i])
				}
			}
			if got.Engine != serial.Engine {
				t.Errorf("workers=%d/%s: engine stats %+v != serial %+v", workers, name, got.Engine, serial.Engine)
			}
			if got.Access != serial.Access {
				t.Errorf("workers=%d/%s: access stats %+v != serial %+v", workers, name, got.Access, serial.Access)
			}
			if got.SimulatedSeconds != serial.SimulatedSeconds {
				t.Errorf("workers=%d/%s: simulated %v != serial %v", workers, name, got.SimulatedSeconds, serial.SimulatedSeconds)
			}
		}
	}
}

// TestChannelSweepBitIdentity extends the worker sweep along the
// memory-channel axis, driven through the one number behind it
// (Cost.Link.Channels): over the full {workers} × {channels} grid —
// cache on and off, and with the PR 4 zero-rate fault schedule attached
// — models, modeled cycle stats and epoch counts are bit-identical to
// the serial single-channel uncached baseline, simulated seconds are
// bit-identical to a serial run at the same link (the channel count is
// a modeled quantity, so it moves the transfer charge and nothing
// else), and the per-channel obs split re-partitions the Strider totals
// exactly.
//
// The grid runs with the explicit Backend="accelerator" override while
// the baseline uses the "" default: both resolve to the same backend
// through the dispatch seam, so the sweep also proves the Backend
// refactor did not perturb any modeled quantity on the paper path.
func TestChannelSweepBitIdentity(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(4))
	const (
		workload  = "Remote Sensing LR"
		scale     = 0.002
		mergeCoef = 16
		epochs    = 3
	)
	serial := trainConfigured(t, workload, scale, mergeCoef, epochs, 1, true)
	zeroFaults := func(o *Options) { o.Faults = fault.New(fault.Config{Seed: 7}) }
	for _, channels := range []int{1, 2, 4} {
		link := func(o *Options) { o.Cost.Link.Channels = channels }
		serialAtLink := trainConfigured(t, workload, scale, mergeCoef, epochs, 1, true, link)
		for _, workers := range []int{1, 2, 4, 8} {
			for _, cfg := range []struct {
				noCache bool
				faulted bool
			}{{false, false}, {true, false}, {true, true}} {
				name := "cache"
				if cfg.noCache {
					name = "nocache"
				}
				reg := obs.New()
				mods := []func(*Options){link, func(o *Options) {
					o.Obs = reg
					o.Backend = "accelerator" // explicit override of the "" default
				}}
				if cfg.faulted {
					name += "+zerofaults"
					mods = append(mods, zeroFaults)
				}
				got := trainConfigured(t, workload, scale, mergeCoef, epochs, workers, cfg.noCache, mods...)
				if got.Backend != "accelerator" || serial.Backend != "accelerator" {
					t.Fatalf("w=%d/c=%d/%s: backend %q (serial %q), want accelerator on both dispatch paths",
						workers, channels, name, got.Backend, serial.Backend)
				}
				if got.Epochs != serial.Epochs {
					t.Errorf("w=%d/c=%d/%s: epochs %d != serial %d", workers, channels, name, got.Epochs, serial.Epochs)
				}
				if len(got.Model) != len(serial.Model) {
					t.Fatalf("w=%d/c=%d/%s: model size %d != %d", workers, channels, name, len(got.Model), len(serial.Model))
				}
				for i := range got.Model {
					if math.Float32bits(got.Model[i]) != math.Float32bits(serial.Model[i]) {
						t.Fatalf("w=%d/c=%d/%s: model[%d] = %v != serial %v (not bit-identical)",
							workers, channels, name, i, got.Model[i], serial.Model[i])
					}
				}
				if got.Engine != serial.Engine {
					t.Errorf("w=%d/c=%d/%s: engine stats %+v != serial %+v", workers, channels, name, got.Engine, serial.Engine)
				}
				if got.Access != serial.Access {
					t.Errorf("w=%d/c=%d/%s: access stats %+v != serial %+v", workers, channels, name, got.Access, serial.Access)
				}
				if got.SimulatedSeconds != serialAtLink.SimulatedSeconds {
					t.Errorf("w=%d/c=%d/%s: simulated %v != serial at the same link %v",
						workers, channels, name, got.SimulatedSeconds, serialAtLink.SimulatedSeconds)
				}
				if n := reg.Get(obs.ChannelCount); n != int64(channels) {
					t.Fatalf("w=%d/c=%d/%s: channel.count = %d", workers, channels, name, n)
				}
				var sumBytes, sumBusy int64
				for c := 0; c < channels; c++ {
					sumBytes += reg.Get(obs.ChannelBytesStreamed(c))
					sumBusy += reg.Get(obs.ChannelBusyCycles(c))
				}
				if sumBytes != reg.Get(obs.StriderBytes) || sumBusy != reg.Get(obs.StriderCyclesTotal) {
					t.Errorf("w=%d/c=%d/%s: channel split %d bytes / %d busy cycles != strider totals %d / %d",
						workers, channels, name, sumBytes, sumBusy, reg.Get(obs.StriderBytes), reg.Get(obs.StriderCyclesTotal))
				}
			}
		}
	}
}

// newBenchRunner assembles an epochRunner the way Train does (access
// engine, configured accelerator backend, runner) so the allocation
// guard can drive epochs directly. The caller must Close the returned
// backend.
func newBenchRunner(t *testing.T, workers int, noCache bool) (*epochRunner, *backend.Accel) {
	t.Helper()
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.PoolBytes = 64 << 20
	opts.Workers = workers
	opts.NoExtractCache = noCache
	opts.DisableObs = true
	s := New(opts)
	d := deployScaled(t, s, "Remote Sensing LR", 0.01)
	a, err := d.DSLAlgo(16)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := s.Register(a, 16, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := hdfg.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	ns := acc.Design.NumStriders
	if ns < 1 {
		ns = 1
	}
	if ns > 16 {
		ns = 16
	}
	ae, err := accessengine.NewFor(strider.PostgresLayout(opts.PageSize), d.Rel.Schema, ns, acc.StriderProg, acc.StriderCfg)
	if err != nil {
		t.Fatal(err)
	}
	ae.SetObs(s.obs)
	be := backend.NewAccel(backend.Env{Obs: s.obs, Cost: opts.Cost, FPGA: opts.FPGA, Workers: workers})
	if err := be.Configure(backend.Program{
		Graph:     graph,
		Engine:    acc.Program,
		EngineCfg: acc.Design.Engine,
		Striders:  ns,
		MergeCoef: 16,
		PageSize:  opts.PageSize,
		Tuples:    d.Tuples,
	}); err != nil {
		t.Fatal(err)
	}
	return s.newEpochRunner(ae, d.Rel, be), be
}

// TestHotPathsAllocationFree is the runtime counterpart of the hotalloc
// analyzer: after warm-up (arena sized, buffers grown, pool hot), a
// steady-state epoch must allocate O(1) — never per page or per tuple.
// The relation here spans dozens of pages and thousands of tuples, so
// any per-page regression blows through the bounds by an order of
// magnitude.
func TestHotPathsAllocationFree(t *testing.T) {
	measure := func(workers int) float64 {
		r, m := newBenchRunner(t, workers, true)
		defer m.Close()
		for e := 0; e < 2; e++ {
			if err := r.runEpoch(e); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(3, func() {
			if err := r.runEpoch(2); err != nil {
				t.Fatal(err)
			}
		})
	}
	pages := 0
	{
		r, m := newBenchRunner(t, 1, true)
		pages = r.rel.NumPages()
		m.Close()
	}
	if serial := measure(1); serial > 16 {
		t.Errorf("serial recycling epoch allocates %.0f times (%d pages); hot path regressed", serial, pages)
	}
	// The parallel path pays a fixed per-epoch fan-out cost (output
	// channels, worker goroutines) that scales with workers, never with
	// pages or tuples.
	if par := measure(4); par > 128 {
		t.Errorf("parallel epoch allocates %.0f times (%d pages); fan-out should be O(workers)", par, pages)
	}
}

// TestResultCycleOutlivesTheSink pins the length of the parallel
// workers' private result cycle (run it under -race). With the record
// cache off a worker recycles pipelineDepth+2 PageResults and the
// coordinator hands nothing back, so the bound rests on the output
// channel's capacity alone: page pn's rows must still be intact while
// the coordinator sinks page pn+1 (another worker's page — pn's worker
// may by then be pipelineDepth+1 pages ahead, filling every slot but
// pn's). One slot fewer and that worker overwrites pn's rows under the
// reader. Workers = 3 is the count the channel-sharded plan used to run
// as two.
func TestResultCycleOutlivesTheSink(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(4))
	flatten := func(rows [][]float32) []float32 {
		var out []float32
		for _, row := range rows {
			out = append(out, row...)
		}
		return out
	}
	ref, m := newBenchRunner(t, 1, true)
	ref.sizeArena()
	var want [][]float32
	err := ref.extractSerial(func(res *accessengine.PageResult) error {
		want = append(want, flatten(res.Rows))
		return nil
	}, true)
	m.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4} {
		r, m := newBenchRunner(t, w, true)
		r.sizeArena()
		var prev *accessengine.PageResult
		check := func() {
			got := flatten(prev.Rows)
			if len(got) != len(want[prev.PageNo]) {
				t.Fatalf("workers=%d: page %d has %d values, want %d", w, prev.PageNo, len(got), len(want[prev.PageNo]))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[prev.PageNo][i]) {
					t.Fatalf("workers=%d: page %d overwritten while the next page was sunk", w, prev.PageNo)
				}
			}
		}
		sink := func(res *accessengine.PageResult) error {
			// Dawdle over the first laps so every worker runs as far ahead
			// as its channel lets it. The sleep only gives a too-short
			// cycle time to show; the check holds at any speed.
			if res.PageNo < 3*w*(pipelineDepth+2) {
				time.Sleep(100 * time.Microsecond)
			}
			if prev != nil {
				check()
			}
			prev = res
			return nil
		}
		for epoch := 0; epoch < 2; epoch++ { // the cycle is kept across epochs
			prev = nil
			if err := r.extractParallel(w, sink, true); err != nil {
				t.Fatal(err)
			}
			check()
		}
		if r.s.Pool().PinnedCount() != 0 {
			t.Fatalf("workers=%d: leaked page pins", w)
		}
		m.Close()
	}
}

// TestTrainRunsCatalogProgram (white box): the Strider program a Train's
// access engine holds is the catalog's own — the slice buildAccelerator
// verified and danactl prints, not a regenerated equal — and Trains
// verify nothing again.
func TestTrainRunsCatalogProgram(t *testing.T) {
	s, udfName, table := ftSystem(t)
	udf, rel, acc, job, err := s.resolve(udfName, table)
	if err != nil {
		t.Fatal(err)
	}
	be, _, job, err := s.disp.Resolve(s.Opts.Backend, job)
	if err != nil {
		t.Fatal(err)
	}
	prog := s.programFor(udf, rel, acc, job.Bits)
	if err := be.Configure(prog); err != nil {
		t.Fatal(err)
	}
	defer be.(backend.Closer).Close()
	feed, err := s.newEpochFeed(rel, be, acc, prog.Striders)
	if err != nil {
		t.Fatal(err)
	}
	if feed.ae == nil {
		t.Fatal("the default backend got no access engine")
	}
	got := feed.ae.Program()
	if len(got) == 0 || len(got) != len(acc.StriderProg) || &got[0] != &acc.StriderProg[0] {
		t.Errorf("the feed runs a %d-instruction program at %p; the catalog holds %d at %p",
			len(got), got, len(acc.StriderProg), acc.StriderProg)
	}
	if feed.ae.Config() != acc.StriderCfg {
		t.Errorf("the feed's Strider config %+v is not the catalog's %+v", feed.ae.Config(), acc.StriderCfg)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Train(udfName, table); err != nil {
			t.Fatal(err)
		}
	}
	if runs := obsCount(t, s, obs.StriderVerifyRuns); runs != 1 {
		t.Errorf("%d Strider verifications after Register and 3 Trains, want Register's one", runs)
	}
}

// TestTrainAllocBudget: a Train served by the record cache allocates at
// most half of what it did while every call regenerated, assembled and
// verified the Strider program, built 16 VMs and copied the epoch's tail
// batch: 148 allocations on this configuration then (196 on its bench
// twin, glm_cached), 24 now. The rest is per-Train by design — the
// configured machine, its plan and the result.
func TestTrainAllocBudget(t *testing.T) {
	s, udfName, table := ftSystem(t, func(o *Options) { o.Workers = 1 })
	train := func() {
		if _, err := s.Train(udfName, table); err != nil {
			t.Fatal(err)
		}
	}
	train() // fills the record cache
	misses := obsCount(t, s, obs.RuntimeCacheMisses)
	const budget = 148 / 2
	if a := testing.AllocsPerRun(5, train); a > budget {
		t.Errorf("a cache-served Train allocates %.0f times, budget %d", a, budget)
	}
	if got := obsCount(t, s, obs.RuntimeCacheMisses); got != misses {
		t.Errorf("the measured Trains missed the record cache %d times", got-misses)
	}
}
