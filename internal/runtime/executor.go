package runtime

// Host-parallel pipelined epoch executor (paper §5.1.1).
//
// The modeled hardware always overlaps Strider page extraction with
// execution-engine compute; this file makes the *simulator* do the same
// on real cores:
//
//	pin group k+1 (walker 0) -> walk + deformat (W walkers) -> sink group k (coordinator)
//
// The buffer pool sees one sequence at every W, so its clock sweep and
// float I/O ledger do too: groups of max(1, min(NumStriders, frames − 1))
// pages, so any pool trains, are pinned in page order (a group per set
// of page buffers, §5.1.1), and group k is unpinned before k+1 is
// pinned. The coordinator unpins; walker 0 pins a group before any
// walker walks it, while the coordinator sinks the group before, and the
// coordinator unpins it only once every walker is done with it. Page pn
// runs on Strider healthy[pn mod NumStriders mod h] and walker i owns
// the Striders ≡ i (mod W), so trap outcomes depend on neither W nor the
// group. W is
// min(GOMAXPROCS, healthy Striders, pages) on a table the pool holds,
// else 1: the coordinator then walks and sinks each page itself, through
// the one PageResult a spill scan recycles, whose packed rows are views
// of the pinned page images (PageResult). The walk is accessengine's one
// extraction path, the function of the Strider program, charged by
// strider.WalkCost's closed form. The records of a table the
// pool holds are copied into one flat arena (Arena.Alloc is a lock-free
// bump, so walkers share it), which the record cache keeps. Every
// modeled counter — access-engine and engine cycles, page retries,
// simulated seconds, the per-channel split of Cost.Link.Channels — is
// charged by the coordinator in page order: host parallelism changes
// wall-clock time only.
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
	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/strider"
)

// maxPageRetries is the same-Strider re-walk budget after a VM trap,
// before the trap counts as persistent and the Strider is quarantined.
const maxPageRetries = 3

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

	// fits: the whole relation fits in the buffer pool. The record cache
	// (epochs ≥ 2 would be pure pool hits, i.e. no modeled I/O) and fresh
	// per-page results — which walkers need — both need it.
	fits bool

	// The record arena (one slab, lazily sized from the relation's
	// page/tuple counts, on a table the pool holds only) and the
	// reusable extraction buffers hoisted out
	// of the per-epoch hot paths: the pinned page groups (the second, and
	// what walkers made of both, built by the first epoch that runs
	// walkers) and the one PageResult a larger-than-pool scan recycles.
	arena    *accessengine.Arena
	group    int
	groups   [2][]storage.Page
	walks    [2][]walk
	spillRes accessengine.PageResult
	col      *accessengine.Collector

	// The two Stream shells handed to the backend, built once: the
	// extraction form (Batches bound to r.batches) and the replay form
	// (Rows32 pointed at the cache entry per replay). pendingEnt is the
	// cache entry an extracting epoch on a pool-fitting table fills:
	// runEpoch creates it and lends its holder on the extraction stream,
	// r.batches fills it, and runEpoch stores it only after the backend's
	// epoch fully succeeds.
	extractStream *backend.Stream
	replayStream  *backend.Stream
	pendingEnt    *cacheEntry

	// Fault handling. healthy lists the usable Strider VM indices:
	// quarantine removes persistently-trapping VMs, and page pn runs on
	// healthy[slot(pn)] (VM identity never affects modeled cycles, so the
	// mapping is free); deadline is the current epoch's wall-clock budget
	// (zero = none).
	faults   *fault.Injector
	healthy  []int
	epoch    int
	deadline time.Time
}

// walk is what walking one page made: the result, the same-Strider
// retries the walk took, and the error it ended with.
type walk struct {
	res     *accessengine.PageResult
	retries int
	err     error
}

// workerError carries which Strider VM failed on which page, so the
// epoch-level recovery can quarantine the right Strider. It wraps the
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
// once, in the one width be's Precision reads, otherwise. The Striders
// walk the relation's pages with the function of the program the
// catalog holds. A Score's feed has no backend (be == nil): it streams
// pages but keeps no rows, so its walks recycle one result, and it
// injects no fault and charges no Strider counter.
func (s *System) newEpochFeed(rel *storage.Relation, be backend.Backend, nStriders int) (*epochRunner, error) {
	r := &epochRunner{s: s, rel: rel, be: be}
	if be != nil {
		caps := be.Capabilities()
		r.faults, r.accelerated = s.Opts.Faults, caps.Accelerated
		if !caps.Streaming {
			var err error
			r.rows = &backend.Stream{}
			if caps.Precision == backend.PrecisionFloat64 {
				r.rows.Rows64, err = storage.NarrowedRows[float64](rel)
			} else {
				r.rows.Rows32, err = storage.NarrowedRows[float32](rel)
			}
			if err != nil {
				return nil, err
			}
			return r, nil
		}
		r.fits = rel.NumPages() <= s.DB.Pool.NumFrames()
		// Bound once: the streaming Batches closure and both Stream shells,
		// so steady-state epochs allocate neither.
		r.extractStream = &backend.Stream{Batches: r.batches}
		r.replayStream = &backend.Stream{}
	}
	ae, err := accessengine.New(strider.PostgresLayout(s.Opts.PageSize), rel.Schema, nStriders)
	if err != nil {
		return nil, err
	}
	if be != nil {
		ae.SetObs(s.obs)
	}
	ae.SetFaults(r.faults)
	r.ae, r.col = ae, ae.NewCollector()
	r.healthy = make([]int, ae.NumStriders)
	for i := range r.healthy {
		r.healthy[i] = i
	}
	r.group = max(1, min(ae.NumStriders, s.DB.Pool.NumFrames()-1))
	r.groups[0] = make([]storage.Page, 0, r.group)
	return r, nil
}

// sizeArena allocates the record slab for a table the pool holds, whose
// pages each take a fresh extent for the record cache: the slab covers
// every tuple, and a page more. A spill scan has no slab: its one
// recycled result copies only its first page, and any page the walker
// cannot view, into an extent it keeps across pages and epochs, and
// views the rest in the page images. An undersized slab is never
// incorrect: Arena.Alloc falls back to the heap.
func (r *epochRunner) sizeArena() {
	pages := max(r.rel.NumPages(), 1)
	perPage := (r.rel.NumTuples() + pages - 1) / pages // ceil avg tuples/page
	r.arena = accessengine.NewArena((pages + 1) * perPage * r.ae.Schema.NumCols())
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
			r.quarantine(we.vmIdx)
			if len(r.healthy) == 0 {
				return fmt.Errorf("runtime: epoch %d: %w: %w", epoch, err, fault.ErrWorkerQuarantined)
			}
			r.s.obsEpochRetries.Inc()
			continue
		}
		return err
	}
}

// quarantine removes a persistently-trapping Strider VM from service.
func (r *epochRunner) quarantine(vmIdx int) {
	for i, v := range r.healthy {
		if v == vmIdx {
			r.healthy = append(r.healthy[:i], r.healthy[i+1:]...)
			break
		}
	}
	r.s.obsQuarantines.Inc()
}

// checkDeadline enforces the per-epoch wall-clock budget cooperatively
// (checked at page granularity by whichever goroutine walks the page).
func (r *epochRunner) checkDeadline() error {
	if !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		// Early-exit error branch: the wrap allocation is cold, so hot
		// callers (walk) keep their proven
		// steady-state allocation-freedom.
		return fmt.Errorf("runtime: epoch %d exceeded its %v budget: %w",
			r.epoch, r.s.Opts.EpochTimeout, fault.ErrEpochTimeout)
	}
	return nil
}

// extract runs one page through Strider vmIdx with injected-stall and
// trap-retry handling: a transient trap clears within the same-VM retry
// budget; a persistent one surfaces as a *workerError for quarantine.
// drain counts the retries it returns, in page order.
func (r *epochRunner) extract(vmIdx int, pg storage.Page, res *accessengine.PageResult) (retries int, err error) {
	if d := r.faults.StallDelay(r.epoch, res.PageNo); d > 0 {
		time.Sleep(d)
	}
	for ; ; retries++ {
		err = r.ae.ExtractPage(vmIdx, pg, res)
		if err == nil {
			return retries, nil
		}
		if !errors.Is(err, fault.ErrVMTrap) {
			return retries, err
		}
		if retries >= maxPageRetries {
			return retries, &workerError{vmIdx: vmIdx, pageNo: res.PageNo, err: err}
		}
	}
}

// runEpoch extracts every page of the relation and runs the engine over
// the tuples, overlapping the two when walkers run. Cached epochs skip
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
			// The entry exists before its rows do, so its holder goes with
			// the extraction: what the backend derives from this epoch's rows
			// is kept for the replays that bring the same holder.
			r.pendingEnt = &cacheEntry{
				rel:     r.rel,
				gen:     r.rel.Generation(),
				poolGen: r.s.DB.Pool.InvalidationCount(),
				pages:   make([]accessengine.PageResult, 0, r.rel.NumPages()),
			}
			r.extractStream.Held = &r.pendingEnt.held
			err = r.be.RunEpoch(r.extractStream)
			r.extractStream.Held = nil
		}
	} else {
		err = r.be.RunEpoch(r.extractStream)
	}
	if err == nil && r.pendingEnt != nil {
		// Store only after the backend's epoch fully succeeded (stream
		// finished), preserving the historical store-after-Finish order. A
		// failed epoch's entry, holder and all, is dropped: a retry starts
		// a new one.
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
// walkers run.
func (r *epochRunner) batches(emit func([][]float32) error) error {
	// The collector lives on the runner and is reset per epoch, so
	// steady-state epochs allocate nothing here. The arena is sized on
	// the first epoch that really extracts: cache replays never reach
	// this function, so they never pay for (or zero) the slab.
	if r.fits && r.arena == nil {
		r.sizeArena()
	}
	col := r.col
	col.Reset()
	ent := r.pendingEnt
	if ent != nil {
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
	if err := r.extractPages(sink); err != nil {
		return err
	}
	col.Flush()
	return nil
}

// extractPages runs every page of the relation through the pipeline the
// file header describes and hands each result to sink, in page order, on
// the calling goroutine.
func (r *epochRunner) extractPages(sink func(*accessengine.PageResult) error) error {
	n, size := r.rel.NumPages(), r.group
	w := 1
	if r.fits {
		// Quarantine shrinks the healthy set between epochs: each walker
		// owns at least one Strider, and one page of the table.
		w = min(hostrt.GOMAXPROCS(0), len(r.healthy), n)
	}
	if w <= 1 {
		for first := 0; first < n; first += size {
			err := r.pinGroup(0, first)
			if err == nil {
				err = r.drain(0, first, false, sink)
				if uerr := r.unpinGroup(0, first); err == nil {
					err = uerr
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if r.walks[0] == nil {
		r.groups[1] = make([]storage.Page, 0, size)
		r.walks = [2][]walk{make([]walk, size), make([]walk, size)}
	}
	r.groups[1] = r.groups[1][:0]
	// busy counts the walkers at work on a group. Walker 0 pins each group
	// before anyone walks it (pinned), so the pins leave the coordinator's
	// path while it sinks the group before; pinErr is walker 0's verdict,
	// read after pinned or busy. One struct, so the closures move one
	// value to the heap.
	var pipe struct {
		busy, pinned sync.WaitGroup
		pinErr       error
	}
	in := make([]chan [2]int, w)
	for i := range in {
		in[i] = make(chan [2]int, 1)
		go func(i, w int) {
			for g := range in[i] {
				b, first := g[0], g[1]
				if i == 0 {
					pipe.pinErr = r.pinGroup(b, first)
					pipe.pinned.Done()
				} else {
					pipe.pinned.Wait()
				}
				// Walker i walks the pages of group b, from page first on,
				// whose Strider sits at an index of healthy ≡ i (mod W).
				for j, pg := range r.groups[b] {
					if pipe.pinErr == nil && r.slot(first+j)%w == i {
						r.walks[b][j] = r.walk(first+j, pg)
					}
				}
				pipe.busy.Done()
			}
			pipe.busy.Done() // exited
		}(i, w)
	}
	defer func() {
		pipe.busy.Add(w)
		for _, c := range in {
			close(c)
		}
		pipe.busy.Wait()
	}()
	// Group b^1, from page first−size on, is walked and waits to be
	// sunk; before page 0 it is the empty group 1.
	for b, first := 0, 0; ; b, first = b^1, first+size {
		pipe.busy.Wait()
		err := r.unpinGroup(b^1, first-size)
		if err == nil {
			err = pipe.pinErr
		}
		failed := false
		for j := range r.groups[b^1] {
			failed = failed || r.walks[b^1][j].err != nil
		}
		if err != nil || failed || first >= n {
			// A failed slot ends the epoch where one goroutine would have:
			// the slots before it sunk, nothing after its group pinned.
			if err == nil {
				err = r.drain(b^1, first-size, true, sink)
			}
			return err
		}
		pipe.pinned.Add(1)
		pipe.busy.Add(w)
		for _, c := range in {
			c <- [2]int{b, first}
		}
		if err = r.drain(b^1, first-size, true, sink); err != nil {
			pipe.busy.Wait()
			_ = r.unpinGroup(b, first)
			return err
		}
	}
}

// pinGroup pins the group of pages from first on, in page order, into
// group buffer b. A failed pin releases the pages already pinned and
// leaves the group empty.
func (r *epochRunner) pinGroup(b, first int) error {
	r.groups[b] = r.groups[b][:0]
	for pn := first; pn < min(first+r.group, r.rel.NumPages()); pn++ {
		pg, err := r.s.DB.Pool.Pin(r.rel.Name, uint32(pn))
		if err != nil {
			_ = r.unpinGroup(b, first)
			r.groups[b] = r.groups[b][:0]
			return err
		}
		r.groups[b] = append(r.groups[b], pg)
	}
	return nil
}

// unpinGroup releases every pin of group b, which starts at page first,
// in page order, and reports the first failure.
func (r *epochRunner) unpinGroup(b, first int) (err error) {
	for j := range r.groups[b] {
		if uerr := r.s.DB.Pool.Unpin(r.rel.Name, uint32(first+j)); err == nil {
			err = uerr
		}
	}
	return err
}

// drain hands group b's results to sink in page order: what the walkers
// made of each page when walked is set, else a walk of the page right
// here (W = 1). Each page's retries are counted as it is reached, and the
// first failed page ends the drain.
//
//dana:hotpath
func (r *epochRunner) drain(b, first int, walked bool, sink func(*accessengine.PageResult) error) error {
	for j, pg := range r.groups[b] {
		var w walk
		if walked {
			w = r.walks[b][j]
		} else {
			w = r.walk(first+j, pg)
		}
		r.s.obsPageRetries.Add(int64(w.retries))
		if w.err != nil {
			return w.err
		}
		if err := sink(w.res); err != nil {
			return err
		}
	}
	return nil
}

// slot is the index into healthy of page pn's Strider (file header).
func (r *epochRunner) slot(pn int) int { return pn % r.ae.NumStriders % len(r.healthy) }

// walk walks pinned page pn on Strider healthy[slot(pn)], whichever
// goroutine calls it, and charges its host time to the worker-busy
// counter. A larger-than-pool scan (always W = 1) recycles one result,
// so its rows are views of the pinned page images wherever the walker
// can take them: the engine's epoch stream copies anything it buffers,
// and an image outlives its unpin unchanged.
// A table the pool holds takes a fresh result per page, which copies
// into the arena: the record cache keeps those rows.
//
//dana:hotpath
func (r *epochRunner) walk(pn int, pg storage.Page) (w walk) {
	if w.err = r.checkDeadline(); w.err != nil {
		return w
	}
	w.res = &r.spillRes
	if r.fits {
		//danalint:ignore hotcall -- fresh results are retained by the record cache
		w.res = new(accessengine.PageResult)
	}
	w.res.PageNo, w.res.Arena = pn, r.arena
	start := time.Now()
	w.retries, w.err = r.extract(r.healthy[r.slot(pn)], pg, w.res)
	r.s.obsWorkerBusy.Add(time.Since(start).Nanoseconds())
	return w
}
