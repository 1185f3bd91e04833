package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	hostrt "runtime"
	"slices"
	"testing"

	"dana/internal/backend"
	"dana/internal/bufpool"
	"dana/internal/catalog"
	"dana/internal/fault"
	"dana/internal/hdfg"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/strider"
)

// spillPoolBytes is a pool of 16 frames at the tests' 8 KB pages: one
// serial group of the widest Strider array, and smaller than every table
// a spill leg trains on.
const spillPoolBytes = 16 * storage.PageSize8K

// trainConfigured runs one full Train of a workload at GOMAXPROCS procs
// (where the executor takes its walker count from) and returns the
// result. spill shrinks the pool below the table, so every epoch
// re-walks the heap on the calling goroutine into its one recycled
// result; otherwise the table fits, epoch 1 extracts into fresh results
// on min(procs, Striders) walkers and later epochs replay the record
// cache. mods adjust the Options before the system is built (fault
// schedules, timeouts).
func trainConfigured(t *testing.T, workload string, scale float64, mergeCoef, epochs, procs int, spill bool, mods ...func(*Options)) *TrainResult {
	t.Helper()
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(procs))
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.Cost.PoolBytes = 32 << 20
	if spill {
		opts.Cost.PoolBytes = spillPoolBytes
	}
	for _, mod := range mods {
		mod(&opts)
	}
	s := New(opts)
	d := deployScaled(t, s, workload, scale)
	if fits := d.Rel.NumPages() <= s.DB.Pool.NumFrames(); fits == spill {
		t.Fatalf("%s: %d pages in %d frames, spill=%v", workload, d.Rel.NumPages(), s.DB.Pool.NumFrames(), spill)
	}
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
	if s.DB.Pool.PinnedCount() != 0 {
		t.Fatalf("%s GOMAXPROCS=%d: leaked page pins", workload, procs)
	}
	return res
}

// requireSameModeled fails unless got trained the same model bits, epoch
// count and modeled cycle stats as want — and, when sim is non-nil, the
// same simulated seconds as sim (a run over the same pool: a table that
// spills pays its disk reads every epoch, so simulated seconds are only
// comparable between runs that share a pool size and link).
func requireSameModeled(t *testing.T, name string, got, want, sim *TrainResult) {
	t.Helper()
	if got.Epochs != want.Epochs {
		t.Errorf("%s: epochs %d != %d", name, got.Epochs, want.Epochs)
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("%s: model size %d != %d", name, len(got.Model), len(want.Model))
	}
	for i := range got.Model {
		if math.Float32bits(got.Model[i]) != math.Float32bits(want.Model[i]) {
			t.Fatalf("%s: model[%d] = %v != %v (not bit-identical)", name, i, got.Model[i], want.Model[i])
		}
	}
	if got.Engine != want.Engine {
		t.Errorf("%s: engine stats %+v != %+v", name, got.Engine, want.Engine)
	}
	if got.Access != want.Access {
		t.Errorf("%s: access stats %+v != %+v", name, got.Access, want.Access)
	}
	if sim != nil && got.SimulatedSeconds != sim.SimulatedSeconds {
		t.Errorf("%s: simulated %v != %v", name, got.SimulatedSeconds, sim.SimulatedSeconds)
	}
}

// TestParallelExecutorDeterminism: the walkers (and the record cache)
// must change host wall-clock only. Model bits, epoch counts and modeled
// cycle stats are bit-identical to the one-goroutine run that re-walks a
// larger-than-pool table every epoch, and simulated seconds to the
// one-goroutine run over the same pool, on LR, SVM, and LRMF.
func TestParallelExecutorDeterminism(t *testing.T) {
	cases := []struct {
		workload  string
		scale     float64
		mergeCoef int
		epochs    int
	}{
		{"Remote Sensing LR", 0.002, 16, 4},
		{"Remote Sensing SVM", 0.002, 16, 4},
		{"Netflix", 0.0015, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			serialSpill := trainConfigured(t, tc.workload, tc.scale, tc.mergeCoef, tc.epochs, 1, true)
			serialFits := trainConfigured(t, tc.workload, tc.scale, tc.mergeCoef, tc.epochs, 1, false)
			requireSameModeled(t, "serial+cache", serialFits, serialSpill, nil)
			for _, cfg := range []struct {
				name  string
				procs int
				spill bool
			}{
				{"parallel8+cache", 8, false},
				{"parallel4+spill", 4, true}, // a table that spills has one goroutine at any GOMAXPROCS
			} {
				got := trainConfigured(t, tc.workload, tc.scale, tc.mergeCoef, tc.epochs, cfg.procs, cfg.spill)
				sim := serialFits
				if cfg.spill {
					sim = serialSpill
				}
				requireSameModeled(t, cfg.name, got, serialSpill, sim)
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
	opts.Cost.PoolBytes = 32 << 20
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
	s.DB.Pool.ResetStats()
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
	s.DB.Pool.ResetStats()
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

// TestRecordCacheRowsAreContiguous: the pages an extracting epoch keeps
// for the record cache are fresh results, which copy, so every cached
// page's rows lie end to end in its Data and none is a view of a page
// image. Replays read the cache many times over, and read views scattered
// over pages more slowly than one contiguous extent.
func TestRecordCacheRowsAreContiguous(t *testing.T) {
	for _, procs := range []int{1, 2} {
		func() {
			defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(procs))
			s := smallSystem(t)
			d := deployScaled(t, s, "Remote Sensing LR", 0.002)
			a, err := d.DSLAlgo(16)
			if err != nil {
				t.Fatal(err)
			}
			a.SetEpochs(2)
			if _, err := s.Register(a, 16, d.Tuples); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Train(a.Name, d.Rel.Name); err != nil {
				t.Fatal(err)
			}
			ent := s.cache.lookup(d.Rel, s.DB.Pool.InvalidationCount())
			if ent == nil || len(ent.pages) != d.Rel.NumPages() || len(ent.rows) != d.Tuples {
				t.Fatalf("GOMAXPROCS %d: cache entry %v", procs, ent != nil)
			}
			cols := d.Rel.Schema.NumCols()
			for pn, pg := range ent.pages {
				if len(pg.Data) != len(pg.Rows)*cols {
					t.Fatalf("GOMAXPROCS %d, page %d: %d rows over %d values", procs, pn, len(pg.Rows), len(pg.Data))
				}
				for i, row := range pg.Rows {
					if len(row) != cols || &row[0] != &pg.Data[i*cols] {
						t.Fatalf("GOMAXPROCS %d, page %d: row %d is not its slot of Data", procs, pn, i)
					}
				}
			}
		}()
	}
}

// TestColdTrainsOnOneEngineBitIdentical: a cold Train costs the same
// modeled time the first time and the fifth on a long-lived System — the
// run is charged the disk seconds of its own reads, not the pool's
// lifetime total (which had a cold Train read 0.24 s on a fresh engine
// and 12 s after ninety) — and re-extracting in parallel into the reset
// arena trains the same bits from the same counters.
func TestColdTrainsOnOneEngineBitIdentical(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(4))
	s, udf, table := ftSystem(t)
	var first *TrainResult
	for i := 0; i < 5; i++ {
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		res, err := s.Train(udf, table)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		requireSameModeled(t, fmt.Sprintf("cold train %d", i+1), res, first, first)
		if want := int64(i+1) * first.Pool.Misses; res.Pool.Misses != want || res.Pool.IOSeconds <= first.Pool.IOSeconds {
			t.Errorf("cold train %d: pool reads %d misses, %v s: TrainResult.Pool is the lifetime view (want %d misses)",
				i+1, res.Pool.Misses, res.Pool.IOSeconds, want)
		}
	}
}

// TestWorkerSweepBitIdentity is the metamorphic serial-vs-parallel
// check from the differential verification harness: the full grid of
// GOMAXPROCS {1,2,4,8} (the walker count) x {cache,spill} must produce
// bit-identical models and identical modeled cycle stats to the
// one-goroutine baseline that re-walks a larger-than-pool table every
// epoch, and simulated seconds identical to the one-goroutine run over
// the same pool. Parallelism and caching may only change host
// wall-clock.
func TestWorkerSweepBitIdentity(t *testing.T) {
	const (
		workload  = "Remote Sensing LR"
		scale     = 0.002
		mergeCoef = 16
		epochs    = 3
	)
	serial := map[bool]*TrainResult{}
	for _, spill := range []bool{true, false} {
		serial[spill] = trainConfigured(t, workload, scale, mergeCoef, epochs, 1, spill)
	}
	// The grid also runs with a zero-rate fault schedule attached: the
	// injection hooks, checksum verification, and recovery scaffolding
	// must be invisible when no fault fires.
	zeroFaults := func(o *Options) { o.Faults = fault.New(fault.Config{Seed: 7}) }
	for _, procs := range []int{1, 2, 4, 8} {
		for _, cfg := range []struct {
			spill   bool
			faulted bool
		}{{false, false}, {true, false}, {false, true}, {true, true}} {
			name := fmt.Sprintf("GOMAXPROCS=%d/cache", procs)
			if cfg.spill {
				name = fmt.Sprintf("GOMAXPROCS=%d/spill", procs)
			}
			var mods []func(*Options)
			if cfg.faulted {
				name += "+zerofaults"
				mods = append(mods, zeroFaults)
			}
			got := trainConfigured(t, workload, scale, mergeCoef, epochs, procs, cfg.spill, mods...)
			requireSameModeled(t, name, got, serial[true], serial[cfg.spill])
		}
	}
}

// TestChannelSweepBitIdentity extends the GOMAXPROCS sweep along the
// memory-channel axis, driven through the one number behind it
// (Cost.Link.Channels): over the full {GOMAXPROCS} × {channels} grid —
// on a table the pool holds and on one it does not, and with the PR 4
// zero-rate fault schedule attached — models, modeled cycle stats and
// epoch counts are bit-identical to the serial single-channel spilling
// baseline, simulated seconds are bit-identical to a serial run at the
// same link and pool (the channel count is a modeled quantity, so it
// moves the transfer charge and nothing else), and the per-channel obs
// split re-partitions the Strider totals exactly.
//
// The grid runs with the explicit Backend="accelerator" override while
// the baseline uses the "" default: both resolve to the same backend
// through the dispatch seam, so the sweep also proves the Backend
// refactor did not perturb any modeled quantity on the paper path.
func TestChannelSweepBitIdentity(t *testing.T) {
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
		serialAtLink := map[bool]*TrainResult{}
		for _, spill := range []bool{true, false} {
			serialAtLink[spill] = trainConfigured(t, workload, scale, mergeCoef, epochs, 1, spill, link)
		}
		for _, procs := range []int{1, 2, 4, 8} {
			for _, cfg := range []struct {
				spill   bool
				faulted bool
			}{{false, false}, {true, false}, {true, true}} {
				name := fmt.Sprintf("p=%d/c=%d/cache", procs, channels)
				if cfg.spill {
					name = fmt.Sprintf("p=%d/c=%d/spill", procs, channels)
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
				got := trainConfigured(t, workload, scale, mergeCoef, epochs, procs, cfg.spill, mods...)
				if got.Backend != "accelerator" || serial.Backend != "accelerator" {
					t.Fatalf("%s: backend %q (serial %q), want accelerator on both dispatch paths", name, got.Backend, serial.Backend)
				}
				requireSameModeled(t, name, got, serial, serialAtLink[cfg.spill])
				if n := reg.Get(obs.ChannelCount); n != int64(channels) {
					t.Fatalf("%s: channel.count = %d", name, n)
				}
				var sumBytes, sumBusy int64
				for c := 0; c < channels; c++ {
					sumBytes += reg.Get(obs.ChannelBytesStreamed(c))
					sumBusy += reg.Get(obs.ChannelBusyCycles(c))
				}
				if sumBytes != reg.Get(obs.StriderBytes) || sumBusy != reg.Get(obs.StriderCyclesTotal) {
					t.Errorf("%s: channel split %d bytes / %d busy cycles != strider totals %d / %d",
						name, sumBytes, sumBusy, reg.Get(obs.StriderBytes), reg.Get(obs.StriderCyclesTotal))
				}
			}
		}
	}
}

// newBenchRunner assembles an epochRunner the way Train does (access
// engine, configured accelerator backend, runner) so the allocation
// guard can drive epochs directly; spill gives it a pool smaller than
// the table. The caller must Close the returned backend.
func newBenchRunner(t *testing.T, spill bool) (*epochRunner, *backend.Accel) {
	t.Helper()
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.Cost.PoolBytes = 64 << 20
	if spill {
		opts.Cost.PoolBytes = spillPoolBytes
	}
	opts.Obs = obs.Noop
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
	ns := backend.InProcessStriders(acc.Design.NumStriders)
	be := backend.NewAccel(backend.Env{Obs: s.obs, Cost: opts.Cost, FPGA: opts.FPGA})
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
	r, err := s.newEpochFeed(d.Rel, be, ns)
	if err != nil {
		t.Fatal(err)
	}
	return r, be
}

// TestHotPathsAllocationFree is the runtime counterpart of the hotcall
// analyzer: after warm-up (arena sized, buffers grown), a steady-state
// epoch must allocate O(1) — never per page or per tuple — on both of
// the shapes a run settles into: the serial re-walk of a table larger
// than the pool, through its one recycled result, and the record-cache
// replay of one that fits. The relation here spans dozens of pages and
// thousands of tuples, so any per-page regression blows through the
// bound by an order of magnitude.
func TestHotPathsAllocationFree(t *testing.T) {
	for _, leg := range []struct {
		name  string
		spill bool
	}{{"serial recycling", true}, {"cache replay", false}} {
		r, m := newBenchRunner(t, leg.spill)
		if fits := r.rel.NumPages() <= r.s.DB.Pool.NumFrames(); fits == leg.spill {
			t.Fatalf("%s: %d pages in %d frames", leg.name, r.rel.NumPages(), r.s.DB.Pool.NumFrames())
		}
		for e := 0; e < 2; e++ {
			if err := r.runEpoch(e); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := r.runEpoch(2); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("%s epoch allocates %.0f times (%d pages); hot path regressed", leg.name, allocs, r.rel.NumPages())
		}
		m.Close()
	}
}

// TestTrainRunsCatalogProgram (white box): the Strider program the
// catalog holds for an accelerator — what danactl prints and
// ExportAccelerator writes — is the one strider.Generate emits for the
// system's page layout, and a Train's access engine walks that layout.
func TestTrainRunsCatalogProgram(t *testing.T) {
	s, udfName, table := ftSystem(t)
	udf, rel, acc, job, err := s.resolve(udfName, table, s.Opts.Precision)
	if err != nil {
		t.Fatal(err)
	}
	reg, job, err := s.disp.Resolve(s.Opts.Backend, job)
	if err != nil {
		t.Fatal(err)
	}
	be := s.disp.Build(reg)
	prog := s.programFor(udf, rel, acc, job.Bits)
	if err := be.Configure(prog); err != nil {
		t.Fatal(err)
	}
	defer be.(backend.Closer).Close()
	feed, err := s.newEpochFeed(rel, be, prog.Striders)
	if err != nil {
		t.Fatal(err)
	}
	if feed.ae == nil {
		t.Fatal("the default backend got no access engine")
	}
	if want := strider.PostgresLayout(s.Opts.PageSize); feed.ae.Layout != want {
		t.Errorf("the feed walks layout %+v, want %+v", feed.ae.Layout, want)
	}
	catalogHoldsGenerated(t, s, acc)
	for i := 0; i < 3; i++ {
		if _, err := s.Train(udfName, table); err != nil {
			t.Fatal(err)
		}
	}
}

// catalogHoldsGenerated fails unless acc's Strider program and config
// are what strider.Generate emits for the system's page layout.
func catalogHoldsGenerated(t *testing.T, s *System, acc *catalog.Accelerator) {
	t.Helper()
	prog, cfg, err := strider.Generate(strider.PostgresLayout(s.Opts.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(acc.StriderProg, prog) || acc.StriderCfg != cfg {
		t.Errorf("the catalog holds a %d-instruction Strider program and config %+v; Generate emits %d and %+v",
			len(acc.StriderProg), acc.StriderCfg, len(prog), cfg)
	}
}

// TestRowFedTrainsHoldOneWidth (white box): a backend that takes
// materialized rows gets every live tuple in the one width its Precision
// reads — Rows64 for cpu and sharded, Rows32 for tabla — and a streaming
// backend gets none, so a Train holds no copy of the table it never
// reads.
func TestRowFedTrainsHoldOneWidth(t *testing.T) {
	s, udfName, table := ftSystem(t)
	udf, rel, acc, job, err := s.resolve(udfName, table, s.Opts.Precision)
	if err != nil {
		t.Fatal(err)
	}
	widths := map[string]bool{}
	for _, name := range s.disp.Names() {
		reg, job, err := s.disp.Resolve(name, job)
		if err != nil {
			t.Fatal(err)
		}
		be := s.disp.Build(reg)
		prog := s.programFor(udf, rel, acc, job.Bits)
		if err := be.Configure(prog); err != nil {
			t.Fatal(err)
		}
		feed, err := s.newEpochFeed(rel, be, prog.Striders)
		if err != nil {
			t.Fatal(err)
		}
		if cl, ok := be.(backend.Closer); ok {
			cl.Close()
		}
		caps := be.Capabilities()
		if caps.Streaming {
			if feed.rows != nil {
				t.Errorf("%s streams pages but its feed also holds rows", name)
			}
			continue
		}
		n32, n64 := len(feed.rows.Rows32), len(feed.rows.Rows64)
		want32, want64 := rel.NumTuples(), 0
		if caps.Precision == backend.PrecisionFloat64 {
			want32, want64 = 0, rel.NumTuples()
		}
		if n32 != want32 || n64 != want64 {
			t.Errorf("%s (%s) feed holds %d float32 and %d float64 rows; want %d and %d", name, caps.Precision, n32, n64, want32, want64)
		}
		widths[caps.Precision] = true
	}
	if !widths[backend.PrecisionFloat32] || !widths[backend.PrecisionFloat64] {
		t.Errorf("row-fed backends covered precisions %v; want both", widths)
	}
}

// TestTrainAllocBudget: a Train served by the record cache allocates at
// most half of what it did while every call regenerated, assembled and
// verified the Strider program, built 16 VMs and copied the epoch's tail
// batch: 148 allocations on this configuration then (196 on its bench
// twin, glm_cached), 17 now. The rest is per-Train by design — the
// configured machine, its plan and the result. A weave Train that finds
// its rows held decodes nothing and allocates nothing in its stage: 19,
// 2 over an accelerator Train's 17. It took 27 while the dispatcher built
// every backend that admits a k-bit job to pick one; now the dispatcher
// prices them on the dark instances it built once, and a Train on its
// kept backend builds none (TestKeptTrainBuildsNoBackend). Its budget is
// the 43 it took while every epoch rewove through a 32-level page buffer
// of its own.
func TestTrainAllocBudget(t *testing.T) {
	for _, leg := range []struct {
		name      string
		precision int
		budget    float64
	}{{"accelerator", 0, 148 / 2}, {"weave, pages held", 8, 43}} {
		s, udfName, table := ftSystem(t, func(o *Options) { o.Precision = leg.precision })
		train := func() {
			if _, err := s.Train(udfName, table); err != nil {
				t.Fatal(err)
			}
		}
		train() // fills the record cache (and weaves the pages held beside it)
		misses, builds := obsCount(t, s, obs.RuntimeCacheMisses), obsCount(t, s, obs.WeaveBuilds)
		if a := testing.AllocsPerRun(5, train); a > leg.budget {
			t.Errorf("%s: a cache-served Train allocates %.0f times, budget %.0f", leg.name, a, leg.budget)
		}
		if got := obsCount(t, s, obs.RuntimeCacheMisses); got != misses {
			t.Errorf("%s: the measured Trains missed the record cache %d times", leg.name, got-misses)
		}
		if got := obsCount(t, s, obs.WeaveBuilds); got != builds {
			t.Errorf("%s: the measured Trains wove %d times", leg.name, got-builds)
		}
	}
}

// smallPoolFrames are the pools TestSpillTrainsAtEveryPoolSize trains
// in, in frames: fewer than the 16 Striders' pin group, the 16-frame
// spill pool, where the group drops to 15, and one frame more.
var smallPoolFrames = []int{1, 2, 8, 15, 16, 17}

// TestSpillTrainsAtEveryPoolSize: the pin group is max(1, min(Striders,
// frames − 1)), so a table larger than the pool trains in a pool of any
// size — as small as one frame — and the pool's size moves no modeled
// number: model bits, access and engine stats, simulated seconds and pool
// misses (every page, every epoch) are the same at every size.
func TestSpillTrainsAtEveryPoolSize(t *testing.T) {
	var want *TrainResult
	wantFrames := 0
	for _, frames := range smallPoolFrames {
		opts := DefaultOptions()
		opts.PageSize = storage.PageSize8K
		opts.Cost.PoolBytes = int64(frames) * storage.PageSize8K
		s := New(opts)
		d := deployScaled(t, s, "Patient", 0.02)
		a, err := d.DSLAlgo(8)
		if err != nil {
			t.Fatal(err)
		}
		a.SetEpochs(3)
		if _, err := s.Register(a, 8, d.Tuples); err != nil {
			t.Fatal(err)
		}
		res, err := s.Train(a.Name, d.Rel.Name)
		if s.DB.Pool.PinnedCount() != 0 {
			t.Fatalf("%d frames: leaked page pins", frames)
		}
		if err != nil {
			t.Errorf("%d frames: %v", frames, err)
			continue
		}
		if got := int64(3 * d.Rel.NumPages()); res.Pool.Misses != got {
			t.Errorf("%d frames: %d pool misses, want every page of every epoch (%d)", frames, res.Pool.Misses, got)
		}
		if want == nil {
			want, wantFrames = res, frames
			continue
		}
		name := fmt.Sprintf("%d frames", frames)
		requireSameModeled(t, name, res, want, want)
		if res.Pool.Misses != want.Pool.Misses {
			t.Errorf("%s: %d pool misses, %d frames read %d", name, res.Pool.Misses, wantFrames, want.Pool.Misses)
		}
	}
	if want != nil {
		t.Logf("%d misses, %v s, %d access cycles", want.Pool.Misses, want.SimulatedSeconds, want.Access.Cycles)
	}
}

// TestMetaStriderPinBoundCaught plants the old pin bound — a group of
// one page per Strider, whatever the pool holds, executor.go rebuilt
// through a build overlay — and requires TestSpillTrainsAtEveryPoolSize
// to fail against it with the pool's pinned-frames error.
func TestMetaStriderPinBoundCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("builds this package's tests again against a planted executor")
	}
	src, err := filepath.Abs("executor.go")
	if err != nil {
		t.Fatal(err)
	}
	code, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	const bound = "r.group = max(1, min(ae.NumStriders, s.DB.Pool.NumFrames()-1))"
	if n := bytes.Count(code, []byte(bound)); n != 1 {
		t.Fatalf("executor.go holds %q %d times, want once: the planted fault needs updating", bound, n)
	}
	dir := t.TempDir()
	planted := filepath.Join(dir, "executor.go")
	if err := os.WriteFile(planted, bytes.Replace(code, []byte(bound), []byte("r.group = ae.NumStriders"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {src: planted}})
	if err != nil {
		t.Fatal(err)
	}
	ovPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ovPath, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "test", "-overlay", ovPath, "-count=1",
		"-run", "^TestSpillTrainsAtEveryPoolSize$", ".").CombinedOutput()
	if err == nil {
		t.Fatalf("TestSpillTrainsAtEveryPoolSize passed against a pin group of one page per Strider:\n%s", out)
	}
	if !bytes.Contains(out, []byte(bufpool.ErrNoFreeFrames.Error())) {
		t.Errorf("the planted bound failed for another reason:\n%s", out)
	}
	t.Logf("%s", out)
}
