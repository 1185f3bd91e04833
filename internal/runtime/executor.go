package runtime

// Host-parallel pipelined epoch executor (paper §5.1.1).
//
// The modeled hardware always overlaps Strider page extraction with
// execution-engine compute; this file makes the *simulator* do the same
// on real cores. Each training epoch streams pages through three
// overlapping stages:
//
//	pool Pin -> direct walk + deformat (W workers)  -> engine compute
//	            (bounded per-worker channels)          (coordinator)
//
// The walk is accessengine's direct pass, charged by strider.WalkCost's
// closed form; a Strider's VM runs only the pages that pass declines, and
// InnoDB's. Worker i of W owns the pages pn ≡ i (mod W) and Strider
// healthy[i]; the coordinator drains the workers' output channels in
// global page order by walking the same deal. Extracted records live in one flat
// arena (a slab sized once per run; Arena.Alloc is a lock-free bump, so
// workers share it). All modeled counters (access-engine cycles, engine
// cycles, simulated seconds, and the per-memory-channel bytes/busy split
// of Cost.Link.Channels) are charged by the coordinator in page order,
// so they are bit-identical to the serial path no matter how the host
// schedules the workers — the worker count changes wall-clock time
// only, and the modeled channel count never touches host scheduling.
//
// A cross-epoch record cache completes the picture: once a relation's
// pages have been extracted (and the relation fits in the buffer pool,
// so later epochs would be pure pool hits with no modeled I/O), epochs
// ≥ 2 replay the cached flat-arena records and their per-page cycle
// counters instead of pinning, walking and deformatting every heap page
// again. The cache is invalidated by any heap mutation (storage.Relation
// generation counter) and by pool invalidation (DropCaches / DROP
// TABLE), so cold-cache experiments still re-read and re-charge disk.
// What a backend keeps about an entry's rows (the any-precision path's
// woven pages) sits in the entry and goes with it.

import (
	"errors"
	"fmt"
	hostrt "runtime"
	"sync"
	"time"

	"dana/internal/accessengine"
	"dana/internal/backend"
	"dana/internal/catalog"
	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/strider"
)

// pipelineDepth is the per-worker bound on extracted-but-unconsumed page
// batches, keeping memory bounded for large tables.
const pipelineDepth = 4

// defaultMaxPageRetries is the same-Strider re-walk budget after a VM
// trap when Options.MaxPageRetries is unset.
const defaultMaxPageRetries = 3

// recordCache holds extracted records per relation, keyed by name and
// validated against the relation's mutation generation, its identity,
// and the buffer pool's invalidation count.
type recordCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	rel     *storage.Relation
	gen     uint64
	poolGen uint64
	pages   []accessengine.PageResult
	rows    [][]float32 // concatenation of pages[i].Rows, in page order
	// held is lent to the backend with rows at every replay: a place for
	// what it derives from them (the weave stage's woven form), which
	// lives and dies with the entry — no rule of its own.
	held backend.Held
}

// lookup returns the entry for rel if it is still valid: same relation
// object, unchanged heap generation, and no pool invalidation since fill.
func (c *recordCache) lookup(rel *storage.Relation, poolGen uint64) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[rel.Name]
	if !ok || ent.rel != rel || ent.gen != rel.Generation() || ent.poolGen != poolGen {
		return nil
	}
	return ent
}

func (c *recordCache) store(ent *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry)
	}
	c.entries[ent.rel.Name] = ent
}

func (c *recordCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = nil
}

// epochRunner is the epoch feed of one Train call: it hands the
// configured backend each epoch's tuples through the Backend seam, in
// the form the backend consumes. For a streaming backend, extraction
// drives be.RunEpoch with the page-order batch stream and cache replays
// hand it the materialized rows (both forms charge identical modeled
// counters); for a row-fed backend (ae == nil) every epoch is the
// relation's materialized rows.
type epochRunner struct {
	s   *System
	ae  *accessengine.Engine
	rel *storage.Relation
	be  backend.Backend

	// rows is the row-fed form: the whole relation, scanned once.
	rows *backend.Stream
	// accelerated backends model faultable hardware and are subject to
	// injected cluster faults.
	accelerated bool

	// fits: the whole relation fits in the buffer pool, so page access
	// order cannot change eviction behavior. Out-of-order pinning
	// (workers > 1) and the record cache (epochs ≥ 2 would be pure pool
	// hits, i.e. no modeled I/O) both need it.
	workers int
	fits    bool

	// The record arena (one slab, lazily sized from the relation's
	// page/tuple counts) and the reusable extraction buffers hoisted out
	// of the per-epoch hot paths: the serial group window, its pin list,
	// and the one PageResult a larger-than-pool scan recycles.
	arena    *accessengine.Arena
	group    []storage.Page
	pinned   []uint32
	spillRes accessengine.PageResult
	col      *accessengine.Collector

	// The two Stream shells handed to the backend, built once: the
	// extraction form (Batches bound to r.batches) and the replay form
	// (Rows32 pointed at the cache entry per replay). pendingEnt carries
	// a freshly-filled cache entry from r.batches to runEpoch, which
	// stores it only after the backend's epoch fully succeeds.
	extractStream *backend.Stream
	replayStream  *backend.Stream
	pendingEnt    *cacheEntry

	// Fault handling. healthy lists the usable Strider VM indices:
	// quarantine removes persistently-trapping VMs, and both extraction
	// paths map work onto the healthy subset (VM identity never affects
	// modeled cycles, so the mapping is free). maxPageRetries bounds
	// same-VM re-walk attempts for a trapped page; deadline is the
	// current epoch's wall-clock budget (zero = none).
	faults         *fault.Injector
	healthy        []int
	maxPageRetries int
	epoch          int
	deadline       time.Time
}

// workerError carries which Strider VM failed on which page, so the
// epoch-level recovery can quarantine the right worker. It wraps the
// underlying typed fault error.
type workerError struct {
	vmIdx  int
	pageNo int
	err    error
}

func (w *workerError) Error() string {
	return fmt.Sprintf("strider %d failed on page %d: %v", w.vmIdx, w.pageNo, w.err)
}

func (w *workerError) Unwrap() error { return w.err }

// newEpochFeed builds the epoch feed for be: the DAnA pipeline — pages
// stream from the buffer pool through Striders into the engine, with
// the record cache and the host-parallel extraction —
// when the backend is Streaming, the relation's tuples materialized
// once (in both widths) otherwise. The Striders run acc's program, the
// one buildAccelerator verified: nothing is regenerated per Train.
func (s *System) newEpochFeed(rel *storage.Relation, be backend.Backend, acc *catalog.Accelerator, nStriders int) (*epochRunner, error) {
	caps := be.Capabilities()
	if !caps.Streaming {
		rows64, rows32, err := rel.NarrowedRows(true)
		if err != nil {
			return nil, err
		}
		return &epochRunner{
			s: s, rel: rel, be: be, faults: s.Opts.Faults, accelerated: caps.Accelerated,
			rows: &backend.Stream{Rows32: rows32, Rows64: rows64},
		}, nil
	}
	ae, err := accessengine.NewFor(strider.PostgresLayout(s.Opts.PageSize), rel.Schema, nStriders, acc.StriderProg, acc.StriderCfg)
	if err != nil {
		return nil, err
	}
	ae.SetObs(s.obs)
	ae.SetFaults(s.Opts.Faults)
	return s.newEpochRunner(ae, rel, be), nil
}

// hostWorkers resolves Options.Workers to an extraction worker count: 0
// means GOMAXPROCS, capped at the design's in-process Strider count.
func hostWorkers(workers, striders int) int {
	if workers <= 0 {
		workers = hostrt.GOMAXPROCS(0)
	}
	if striders > 0 && workers > striders {
		workers = striders
	}
	return workers
}

func (s *System) newEpochRunner(ae *accessengine.Engine, rel *storage.Relation, be backend.Backend) *epochRunner {
	fits := rel.NumPages() <= s.DB.Pool.NumFrames()
	workers := hostWorkers(s.Opts.Workers, ae.NumStriders)
	if !fits {
		// Larger-than-pool tables keep the serial pin order so clock-sweep
		// eviction (and therefore modeled I/O) stays deterministic.
		workers = 1
	}
	retries := s.Opts.MaxPageRetries
	switch {
	case retries == 0:
		retries = defaultMaxPageRetries
	case retries < 0:
		retries = 0
	}
	healthy := make([]int, ae.NumStriders)
	for i := range healthy {
		healthy[i] = i
	}
	r := &epochRunner{
		s: s, ae: ae, rel: rel, be: be,
		workers: workers,
		fits:    fits,

		accelerated:    be.Capabilities().Accelerated,
		faults:         s.Opts.Faults,
		healthy:        healthy,
		maxPageRetries: retries,

		group:  make([]storage.Page, 0, ae.NumStriders),
		pinned: make([]uint32, 0, ae.NumStriders),
		col:    ae.NewCollector(),
	}
	// Bound once: the streaming Batches closure and both Stream shells,
	// so steady-state epochs allocate neither.
	r.extractStream = &backend.Stream{Batches: r.batches}
	r.replayStream = &backend.Stream{}
	return r
}

// sizeArena allocates the record slab. On the cache-fill path every
// page takes a fresh extent, so the slab covers every tuple; on the
// recycling path the one extent is reused across pages (and epochs — the
// arena is deliberately NOT reset while the recycled PageResult still
// owns it), so a 16-page window — the extent, plus room for a page with
// more tuples than the extent it inherits — suffices. An undersized slab
// is never incorrect: Arena.Alloc falls back to the heap.
func (r *epochRunner) sizeArena() {
	pages := max(r.rel.NumPages(), 1)
	perPage := (r.rel.NumTuples() + pages - 1) / pages // ceil avg tuples/page
	capPages := pages + 1
	if !r.fits {
		capPages = min(capPages, 16)
	}
	r.arena = accessengine.NewArena(capPages * perPage * r.ae.Schema.NumCols())
}

// chargeChannel records one page's modeled stream activity on its
// memory channel: round-robin page interleaving, the single policy
// shared with internal/cost. Called by the coordinator in page order
// (extraction and replay alike), so the split is deterministic for a
// given channel count and the totals are invariant across it.
func (r *epochRunner) chargeChannel(res *accessengine.PageResult) {
	c := res.PageNo % r.s.channels
	r.s.obsChanBytes[c].Add(res.Bytes)
	r.s.obsChanBusy[c].Add(res.Cycles)
}

// runEpochRecover is the epoch loop's body: the injected cluster-fault
// gate (accelerated backends only), then runEpoch plus the quarantine
// recovery loop. When a Strider VM keeps trapping after the page-level
// retry budget, the VM is quarantined, the model is restored to its
// epoch-start snapshot (a failed epoch must not leave partially-applied
// updates behind), and the epoch re-runs on the healthy subset. With
// every VM quarantined the typed fault.ErrWorkerQuarantined surfaces,
// which the runtime treats as an accelerator fault (CPU fallback).
func (r *epochRunner) runEpochRecover(epoch int) error {
	if r.accelerated {
		if err := r.faults.ClusterFault(epoch); err != nil {
			return err
		}
	}
	var snap []float64
	if r.faults != nil || r.s.Opts.EpochTimeout > 0 {
		// An epoch can fail, and a failed epoch must not leave
		// partially-applied updates behind (the failover backend resumes
		// from the epoch-start model).
		snap = r.be.Model()
	}
	for {
		err := r.runEpoch(epoch)
		if err == nil {
			return nil
		}
		if snap != nil {
			if rerr := r.be.SetModel(snap); rerr != nil {
				return fmt.Errorf("runtime: restoring model after failed epoch: %w", rerr)
			}
		}
		var we *workerError
		if errors.As(err, &we) && errors.Is(err, fault.ErrVMTrap) {
			r.quarantine(we.vmIdx, we.pageNo)
			if len(r.healthy) == 0 {
				return fmt.Errorf("runtime: epoch %d: %w: %w", epoch, err, fault.ErrWorkerQuarantined)
			}
			r.s.obsEpochRetries.Inc()
			r.s.obs.Trace(obs.EvEpochRetry, int64(epoch), int64(len(r.healthy)))
			continue
		}
		return err
	}
}

// quarantine removes a persistently-trapping Strider VM from service.
func (r *epochRunner) quarantine(vmIdx, pageNo int) {
	for i, v := range r.healthy {
		if v == vmIdx {
			r.healthy = append(r.healthy[:i], r.healthy[i+1:]...)
			break
		}
	}
	r.s.obsQuarantines.Inc()
	r.s.obs.Trace(obs.EvQuarantine, int64(vmIdx), int64(pageNo))
}

// checkDeadline enforces the per-epoch wall-clock budget cooperatively
// (checked at page granularity by workers and coordinator alike).
func (r *epochRunner) checkDeadline() error {
	if !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		// Early-exit error branch: the wrap allocation is cold, so hot
		// callers (extractPage) keep their proven
		// steady-state allocation-freedom.
		return fmt.Errorf("runtime: epoch %d exceeded its %v budget: %w",
			r.epoch, r.s.Opts.EpochTimeout, fault.ErrEpochTimeout)
	}
	return nil
}

// extract runs one page through Strider vmIdx with injected-stall and
// trap-retry handling: a transient trap clears within the same-VM retry
// budget; a persistent one surfaces as a *workerError for quarantine.
func (r *epochRunner) extract(vmIdx int, pg storage.Page, res *accessengine.PageResult) error {
	if d := r.faults.StallDelay(r.epoch, res.PageNo); d > 0 {
		time.Sleep(d)
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = r.ae.ExtractPage(vmIdx, pg, res)
		if err == nil {
			return nil
		}
		if !errors.Is(err, fault.ErrVMTrap) {
			return err
		}
		if attempt >= r.maxPageRetries {
			return &workerError{vmIdx: vmIdx, pageNo: res.PageNo, err: err}
		}
		r.s.obsPageRetries.Inc()
	}
}

// runEpoch extracts every page of the relation and runs the engine over
// the tuples, overlapping the two when workers > 1. Cached epochs skip
// the buffer pool and Strider walk entirely, replaying the identical
// modeled counters. epoch is the zero-based epoch index (trace only).
func (r *epochRunner) runEpoch(epoch int) error {
	start := time.Now()
	r.epoch = epoch
	if t := r.s.Opts.EpochTimeout; t > 0 {
		r.deadline = start.Add(t)
	} else {
		r.deadline = time.Time{}
	}
	cached := false
	var err error
	if r.rows != nil {
		err = r.be.RunEpoch(r.rows)
	} else if r.fits {
		if ent := r.s.cache.lookup(r.rel, r.s.DB.Pool.InvalidationCount()); ent != nil {
			cached = true
			r.s.obsCacheHits.Inc()
			err = r.replay(ent)
		} else {
			r.s.obsCacheMisses.Inc()
			err = r.be.RunEpoch(r.extractStream)
		}
	} else {
		err = r.be.RunEpoch(r.extractStream)
	}
	if err == nil && r.pendingEnt != nil {
		// Store only after the backend's epoch fully succeeded (stream
		// finished), preserving the historical store-after-Finish order.
		r.s.cache.store(r.pendingEnt)
	}
	r.pendingEnt = nil
	if err != nil {
		return err
	}
	wall := time.Since(start).Nanoseconds()
	r.s.obsEpochs.Inc()
	r.s.obsEpochWall.Add(wall)
	r.s.obsEpochHist.Observe(wall)
	if cached {
		r.s.obsEpochsCached.Inc()
		r.s.obs.Trace(obs.EvEpochCached, int64(epoch), wall)
	} else {
		r.s.obs.Trace(obs.EvEpoch, int64(epoch), wall)
	}
	return nil
}

// replay charges the cached per-page counters (in page order, preserving
// the group-max cycle model and the per-channel split) and feeds the
// cached records to the backend as one materialized epoch.
func (r *epochRunner) replay(ent *cacheEntry) error {
	col := r.col
	col.Reset()
	for i := range ent.pages {
		col.Add(&ent.pages[i])
		r.chargeChannel(&ent.pages[i])
	}
	col.Flush()
	r.replayStream.Rows32, r.replayStream.Held = ent.rows, &ent.held
	err := r.be.RunEpoch(r.replayStream)
	r.replayStream.Rows32, r.replayStream.Held = nil, nil
	return err
}

// batches is the Stream.Batches body: it extracts every page of the
// relation in page order and emits each page's record batch to the
// backend (the engine feed), overlapping extraction with compute when
// workers > 1.
func (r *epochRunner) batches(emit func([][]float32) error) error {
	// The collector lives on the runner and is reset per epoch, so
	// steady-state epochs allocate nothing here. The arena is sized on
	// the first epoch that really extracts: cache replays never reach
	// this function, so they never pay for (or zero) the slab.
	if r.arena == nil {
		r.sizeArena()
	}
	col := r.col
	col.Reset()
	var ent *cacheEntry
	if r.fits {
		ent = &cacheEntry{
			rel:     r.rel,
			gen:     r.rel.Generation(),
			poolGen: r.s.DB.Pool.InvalidationCount(),
			pages:   make([]accessengine.PageResult, 0, r.rel.NumPages()),
		}
		// Fresh-results path: every page takes a fresh arena extent, so
		// reclaim the slab first. Safe here — a previous fill's extents
		// are only referenced by a cache entry this store will replace
		// (re-extraction implies the old entry already failed validation
		// or belonged to a failed, discarded epoch).
		r.arena.Reset()
	}
	// sink consumes extracted pages in page order on the coordinator
	// goroutine: modeled stats (including the per-channel split), engine
	// compute, and cache fill.
	sink := func(res *accessengine.PageResult) error {
		col.Add(res)
		r.chargeChannel(res)
		if err := emit(res.Rows); err != nil {
			return err
		}
		if ent != nil {
			ent.pages = append(ent.pages, *res)
			ent.rows = append(ent.rows, res.Rows...)
		}
		return nil
	}
	// Quarantine can shrink the worker pool below the configured count:
	// each live worker needs its own healthy VM.
	w := min(r.workers, len(r.healthy))
	var err error
	if w > 1 {
		err = r.extractParallel(w, sink)
	} else {
		err = r.extractSerial(sink)
	}
	if err != nil {
		return err
	}
	col.Flush()
	r.pendingEnt = ent
	return nil
}

// extractPage is the per-page body the serial and parallel twins share:
// deadline check, result, Strider walk on VM vmIdx, and the walk's host
// time charged to the worker-busy counter. A larger-than-pool
// scan (always serial) recycles one result, arena extent and row views
// included: the engine's epoch stream copies anything it buffers, so a
// consumed PageResult is immediately reusable.
//
//dana:hotpath
func (r *epochRunner) extractPage(vmIdx, pn int, pg storage.Page) (*accessengine.PageResult, error) {
	if err := r.checkDeadline(); err != nil {
		return nil, err
	}
	res := &r.spillRes
	if r.fits {
		//danalint:ignore hotcall -- fresh results are retained by the record cache
		res = new(accessengine.PageResult)
	}
	res.PageNo, res.Arena = pn, r.arena
	start := time.Now()
	err := r.extract(vmIdx, pg, res)
	r.s.obsWorkerBusy.Add(time.Since(start).Nanoseconds())
	return res, err
}

// extractSerial pins pages in groups of NumStriders (modeling the page
// buffers, and matching the pre-parallel executor's pool access order
// exactly) and extracts them one Strider VM at a time. The group
// window, pin list, and the recycled PageResult live on the runner, so a
// steady-state larger-than-pool epoch allocates nothing here.
func (r *epochRunner) extractSerial(sink func(*accessengine.PageResult) error) error {
	n := r.rel.NumPages()
	for pn := 0; pn < n; pn++ {
		pg, err := r.s.DB.Pool.Pin(r.rel.Name, uint32(pn))
		if err != nil {
			// Release the partially-accumulated group before surfacing.
			for _, p := range r.pinned {
				_ = r.s.DB.Pool.Unpin(r.rel.Name, p)
			}
			r.group, r.pinned = r.group[:0], r.pinned[:0]
			return err
		}
		r.group = append(r.group, pg)
		r.pinned = append(r.pinned, uint32(pn))
		if len(r.group) == r.ae.NumStriders {
			if err := r.flushSerialGroup(sink); err != nil {
				return err
			}
		}
	}
	return r.flushSerialGroup(sink)
}

// flushSerialGroup extracts the pinned group in page order and hands
// each result to the sink.
//
//dana:hotpath
func (r *epochRunner) flushSerialGroup(sink func(*accessengine.PageResult) error) (err error) {
	// Pins are released even when extraction fails mid-group: a
	// failed epoch must leave the pool with zero pinned frames.
	defer func() {
		for _, pn := range r.pinned {
			if uerr := r.s.DB.Pool.Unpin(r.rel.Name, pn); err == nil {
				err = uerr
			}
		}
		r.group = r.group[:0]
		r.pinned = r.pinned[:0]
	}()
	for i, pg := range r.group {
		res, err := r.extractPage(r.healthy[i%len(r.healthy)], int(r.pinned[i]), pg)
		if err != nil {
			return err
		}
		if err := sink(res); err != nil {
			return err
		}
	}
	return nil
}

// extractParallel deals pages over w workers (worker i owns the pages
// pn ≡ i mod w and healthy Strider VM healthy[i]; each pins, walks and
// unpins its pages itself) and delivers results to the sink in global
// page order by walking the same deal over the per-worker output
// channels. It runs only on a table that fits the pool, so every result
// is a fresh one the record cache keeps: nothing a worker hands over is
// written again.
func (r *epochRunner) extractParallel(w int, sink func(*accessengine.PageResult) error) error {
	n := r.rel.NumPages()
	outs := make([]chan *accessengine.PageResult, w)
	errCh := make(chan error, w) // one send per worker at most
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		// The capacity bounds the extracted-but-unconsumed page batches per
		// worker.
		outs[i] = make(chan *accessengine.PageResult, pipelineDepth)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(outs[i])
			for pn := i; pn < n; pn += w {
				// The arena holds copies of the tuple values, so the frame is
				// released before the engine consumes the batch.
				pg, err := r.s.DB.Pool.Pin(r.rel.Name, uint32(pn))
				var res *accessengine.PageResult
				if err == nil {
					res, err = r.extractPage(r.healthy[i], pn, pg)
					if uerr := r.s.DB.Pool.Unpin(r.rel.Name, uint32(pn)); err == nil {
						err = uerr
					}
				}
				if err != nil {
					errCh <- err
					return
				}
				select {
				case outs[i] <- res:
				case <-done:
					return
				}
			}
		}(i)
	}
	var err error
	for pn := 0; pn < n && err == nil; pn++ {
		if err = r.checkDeadline(); err != nil {
			break
		}
		res, ok := <-outs[pn%w]
		if !ok {
			err = <-errCh
			break
		}
		err = sink(res)
	}
	// A worker that failed closed its channel without delivering the
	// page, so the loop above has already collected its error.
	close(done)
	wg.Wait()
	return err
}
