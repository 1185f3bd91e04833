// Package bufpool implements a PostgreSQL-style shared buffer pool with
// clock-sweep eviction. It is the component DAnA's Striders read raw
// pages from (paper §5.1): the access engine walks buffer-pool frames
// directly instead of having the CPU deform tuples.
//
// Disk I/O is simulated: every miss charges read latency + transfer time
// to an I/O clock so that cold- vs warm-cache experiments (Figures 8–10)
// are deterministic and host-independent.
package bufpool

import (
	"errors"
	"fmt"
	"sync"

	"dana/internal/cost"
	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/storage"
)

// PageID identifies a page of a relation within the pool.
type PageID struct {
	Rel  string
	Page uint32
}

func (id PageID) String() string { return fmt.Sprintf("%s:%d", id.Rel, id.Page) }

// ErrNoFreeFrames is returned when every frame is pinned.
var ErrNoFreeFrames = errors.New("bufpool: all buffer frames are pinned")

// maxReadRetries is the re-read budget after a failed or corrupt read,
// before Pin gives up with a typed error.
const maxReadRetries = 3

// Stats aggregates buffer pool counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	BytesRead int64
	// IOSeconds is total simulated time spent on disk reads (including
	// failed attempts and injected latency spikes, but not backoff).
	IOSeconds float64

	// Fault-handling counters. Retries counts re-read attempts after an
	// injected I/O error or a checksum mismatch; BackoffSeconds is the
	// simulated exponential backoff charged between those attempts.
	// ChecksumFailures counts mismatches seen, including ones a retry
	// recovered from.
	Retries          int64
	BackoffSeconds   float64
	ChecksumFailures int64
}

// frame is one buffer slot. It owns no buffer: page is the relation's
// page image, which the heap never mutates once Relation.Page has handed
// it out, so a frame refers to it for as long as it is cached.
type frame struct {
	id    PageID
	page  storage.Page // read-only
	gen   uint64       // Relation.PageGeneration when the page was read
	pins  int32        // int32 keeps a frame at 64 bytes
	usage uint8        // clock-sweep usage count (capped at 5, like PostgreSQL)
	valid bool
}

// Pool is a fixed-size shared buffer pool over a set of relations. Its
// frame table grows to the pages it holds: frames holds the frames the
// clock hand has reached, nframes the budget, and a frame not yet
// allocated is an invalid one past the end of frames.
type Pool struct {
	mu       sync.Mutex
	frames   []frame
	nframes  int
	table    map[PageID]int // page table: PageID -> frame index
	hand     int            // clock hand, never past len(frames)
	rels     map[string]*storage.Relation
	disk     cost.DiskModel
	stats    Stats
	runIO    float64 // IOSeconds charged since the last TakeRunIO
	pageSize int
	invals   uint64 // bumped by Invalidate/InvalidateRelation

	// faults, when set, injects read errors and page corruption, and
	// makes every miss validate the page checksum (PostgreSQL's
	// data_checksums): a torn page fails the read instead of reaching
	// the Striders. Without an injector nothing can corrupt a page — a
	// frame holds the heap's immutable page image — so the check is
	// skipped and counted as skipped via obs.
	faults *fault.Injector

	// Observability handles (SetObs). Nil handles are no-ops, so an
	// un-instrumented pool pays one branch per counter site.
	obsHits       *obs.Counter
	obsMisses     *obs.Counter
	obsEvict      *obs.Counter
	obsSweep      *obs.Counter
	obsBytes      *obs.Counter
	obsIOSec      *obs.FloatCounter
	obsRetries    *obs.Counter
	obsCkVerified *obs.Counter
	obsCkSkipped  *obs.Counter
	obsCkFailed   *obs.Counter
	obsRing       *obs.Ring
}

// SetObs registers the pool's counters with an observability registry
// (obs.Noop disables). Counters are cumulative across ResetStats: the
// registry observes pool activity, it does not mirror the resettable
// Stats struct.
func (p *Pool) SetObs(r *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obsHits = r.Counter(obs.PoolHits)
	p.obsMisses = r.Counter(obs.PoolMisses)
	p.obsEvict = r.Counter(obs.PoolEvictions)
	p.obsSweep = r.Counter(obs.PoolSweepSteps)
	p.obsBytes = r.Counter(obs.PoolBytesRead)
	p.obsIOSec = r.Float(obs.PoolIOSeconds)
	p.obsRetries = r.Counter(obs.PoolReadRetries)
	p.obsCkVerified = r.Counter(obs.PoolChecksumVerified)
	p.obsCkSkipped = r.Counter(obs.PoolChecksumSkipped)
	p.obsCkFailed = r.Counter(obs.PoolChecksumFailed)
	p.obsRing = r.Ring()
}

// SetFaults attaches a fault-injection schedule to the pool's read
// path (nil detaches). With an injector attached, every miss verifies
// the page checksum.
func (p *Pool) SetFaults(in *fault.Injector) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = in
}

// New creates a pool of nframes frames for pages of pageSize bytes. No
// frame is allocated until the clock hand reaches it.
func New(nframes, pageSize int, disk cost.DiskModel) *Pool {
	return &Pool{
		nframes:  max(1, nframes),
		table:    make(map[PageID]int),
		rels:     make(map[string]*storage.Relation),
		disk:     disk,
		pageSize: pageSize,
	}
}

// NewSized creates a pool with a byte budget (e.g. 8 GB in the paper's
// default setup) for the given page size.
func NewSized(poolBytes int64, pageSize int, disk cost.DiskModel) *Pool {
	return New(int(poolBytes/int64(pageSize)), pageSize, disk)
}

// AttachRelation registers a relation so its pages can be requested.
func (p *Pool) AttachRelation(r *storage.Relation) error {
	if r.PageSize != p.pageSize {
		return fmt.Errorf("bufpool: relation %q page size %d != pool page size %d", r.Name, r.PageSize, p.pageSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rels[r.Name] = r
	return nil
}

// NumFrames returns the frame budget, allocated or not.
func (p *Pool) NumFrames() int { return p.nframes }

// PageSize returns the pool's page size.
func (p *Pool) PageSize() int { return p.pageSize }

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the counters (pool contents are untouched, so a reset
// followed by re-scanning models the warm-cache setting).
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// Invalidate drops every cached page (the cold-cache setting): every
// frame lets go of its page image and the clock hand returns to frame 0,
// so the pool is in the state New leaves it.
func (p *Pool) Invalidate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		if p.frames[i].pins > 0 {
			return fmt.Errorf("bufpool: cannot invalidate: frame %d (%v) is pinned", i, p.frames[i].id)
		}
	}
	dropped := int64(len(p.table))
	clear(p.frames)
	p.frames = p.frames[:0]
	clear(p.table)
	p.hand = 0
	p.invals++
	p.obsRing.Emit(obs.EvPoolInval, dropped, 0)
	return nil
}

// InvalidationCount returns how many times the pool has been invalidated
// (fully or per relation). Derived caches — e.g. the runtime's
// extracted-record cache — record the count at fill time: a later
// mismatch means the cold-cache setting was requested and cached pages
// must be re-read and re-charged.
func (p *Pool) InvalidationCount() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.invals
}

// InvalidateRelation drops every cached page of one relation and
// detaches it (used by DROP TABLE so a recreated table cannot serve
// stale frames).
func (p *Pool) InvalidateRelation(rel string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if f.valid && f.id.Rel == rel {
			if f.pins > 0 {
				return fmt.Errorf("bufpool: cannot invalidate %v: pinned", f.id)
			}
		}
	}
	for i := range p.frames {
		f := &p.frames[i]
		if f.valid && f.id.Rel == rel {
			delete(p.table, f.id)
			*f = frame{}
		}
	}
	delete(p.rels, rel)
	p.invals++
	return nil
}

// Pin fetches the page into the pool (reading from the relation on a
// miss), pins it, and returns the frame's page. The caller must Unpin.
// The returned Page is the relation's page image itself, not a copy —
// the disk read is charged to the I/O clock, not performed — and it must
// not be written. It never changes: a mutation of the heap clones the
// page, so a frame read before its page's last mutation is re-read on
// its next pin (a miss), unless pinned: its holders keep the image they
// read. A failed or corrupt read is re-read up to maxReadRetries times,
// each retry charging capped exponential backoff to Stats.BackoffSeconds
// on the simulated clock, before Pin gives up with the read's error.
func (p *Pool) Pin(rel string, pageNo uint32) (storage.Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := PageID{Rel: rel, Page: pageNo}
	r, ok := p.rels[rel]
	if !ok {
		return nil, fmt.Errorf("bufpool: unknown relation %q", rel)
	}
	gen := r.PageGeneration(int(pageNo))
	fi, cached := p.table[id]
	if cached {
		if f := &p.frames[fi]; f.gen == gen || f.pins > 0 {
			f.pins++
			if f.usage < 5 {
				f.usage++
			}
			p.stats.Hits++
			p.obsHits.Inc()
			return f.page, nil
		}
	}
	if !cached {
		// Miss: find a victim via clock sweep, then read with retry.
		var err error
		if fi, err = p.evictLocked(); err != nil {
			return nil, err
		}
	}
	f := &p.frames[fi]
	if f.valid { // a victim, or the stale frame, which a failed read leaves free
		delete(p.table, f.id)
		*f = frame{}
		if !cached {
			p.stats.Evictions++
			p.obsEvict.Inc()
		}
	}
	verify := p.faults != nil
	var pg storage.Page
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = nil
		if ierr := p.faults.ReadFault(rel, pageNo); ierr != nil {
			// The failed request still spent its latency on the device.
			p.chargeIO(p.disk.ReadLatencySec)
			//danalint:ignore hotcall -- wrap runs only under an injected read fault, never in the fault-free steady state
			lastErr = fmt.Errorf("bufpool: read %v: %w", id, ierr)
		} else {
			src, rerr := r.Page(int(pageNo))
			if rerr != nil {
				// Structural miss (no such page): not retriable.
				return nil, rerr
			}
			// An injected tear or bit flip lands in a private copy, never
			// in src: the heap stays intact for the retry and for every
			// other pool that reads the relation.
			pg = p.faults.CorruptCopy(rel, pageNo, src)
			rt := p.disk.ReadTime(p.pageSize) + p.faults.ReadLatencySec(rel, pageNo)
			p.chargeIO(rt)
			if verify {
				p.obsCkVerified.Inc()
				if !pg.ChecksumOK() {
					p.stats.ChecksumFailures++
					p.obsCkFailed.Inc()
					//danalint:ignore hotcall -- wrap runs only on a checksum failure (torn page), never in the fault-free steady state
					lastErr = fmt.Errorf("bufpool: %v: stored checksum %#x != computed %#x: %w",
						id, pg.Checksum(), pg.ComputeChecksum(), fault.ErrTornPage)
				}
			} else {
				p.obsCkSkipped.Inc()
			}
		}
		if lastErr == nil {
			break
		}
		if attempt >= maxReadRetries {
			return nil, fmt.Errorf("bufpool: giving up on %v after %d attempts: %w", id, attempt+1, lastErr)
		}
		// Retry after capped exponential backoff on the simulated clock:
		// a torn page or transient I/O error is re-read from the source.
		back := fault.BackoffSec(attempt, p.disk.ReadLatencySec)
		p.stats.Retries++
		p.stats.BackoffSeconds += back
		p.obsRetries.Inc()
	}
	*f = frame{id: id, page: pg, gen: gen, pins: 1, usage: 1, valid: true}
	p.table[id] = fi
	p.stats.Misses++
	p.stats.BytesRead += int64(p.pageSize)
	p.obsMisses.Inc()
	p.obsBytes.Add(int64(p.pageSize))
	return f.page, nil
}

// chargeIO books simulated disk time on the lifetime ledger, the run
// ledger TakeRunIO drains, and the obs counter.
func (p *Pool) chargeIO(sec float64) {
	p.stats.IOSeconds += sec
	p.runIO += sec
	p.obsIOSec.Add(sec)
}

// TakeRunIO returns the simulated disk seconds charged since the last
// call and starts a new run at zero. A run's I/O is summed from zero
// rather than read as a difference of Stats().IOSeconds, so the same
// reads cost the same bits on a fresh pool and on one that has served
// a thousand runs.
func (p *Pool) TakeRunIO() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	sec := p.runIO
	p.runIO = 0
	return sec
}

// evictLocked runs the clock sweep and returns a usable frame index. The
// hand reaching the end of the allocated frames reaches an invalid frame:
// the table grows by it.
func (p *Pool) evictLocked() (int, error) {
	n := p.nframes
	// Two full sweeps decrementing usage counts is enough to find a
	// victim unless everything is pinned: a frame with usage 0 and no
	// pins is chosen.
	for pass := 0; pass < 6*n; pass++ {
		idx := p.hand
		p.hand = (p.hand + 1) % n
		p.obsSweep.Inc()
		if idx == len(p.frames) {
			p.frames = append(p.frames, frame{})
			return idx, nil
		}
		f := &p.frames[idx]
		if !f.valid {
			return idx, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.usage > 0 {
			f.usage--
			continue
		}
		return idx, nil
	}
	return 0, ErrNoFreeFrames
}

// Unpin releases one pin on the page.
func (p *Pool) Unpin(rel string, pageNo uint32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := PageID{Rel: rel, Page: pageNo}
	fi, ok := p.table[id]
	if !ok {
		return fmt.Errorf("bufpool: unpin of uncached page %v", id)
	}
	f := &p.frames[fi]
	if f.pins <= 0 {
		return fmt.Errorf("bufpool: unpin of unpinned page %v", id)
	}
	f.pins--
	return nil
}

// relation looks up an attached relation by name.
func (p *Pool) relation(rel string) (*storage.Relation, error) {
	p.mu.Lock()
	r, ok := p.rels[rel]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("bufpool: unknown relation %q", rel)
	}
	return r, nil
}

// Scan is the heap sequential scan through the pool: it pins rel's pages
// in order, hands fn each live tuple's values (one slice, reused between
// calls) and unpins. fn returns false to stop early.
func (p *Pool) Scan(rel string, fn func(vals []float64) (bool, error)) error {
	r, err := p.relation(rel)
	if err != nil {
		return err
	}
	vals := make([]float64, 0, r.Schema.NumCols())
	each := func(_ int, vals []float64) (bool, error) { return fn(vals) }
	for pn := 0; pn < r.NumPages(); pn++ {
		pg, err := p.Pin(rel, uint32(pn))
		if err != nil {
			return err
		}
		more, err := pg.ScanTuples(r.Schema, vals, each)
		if uerr := p.Unpin(rel, uint32(pn)); err == nil {
			err = uerr
		}
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// Warm loads as much of the relation as fits, starting from page 0 — the
// paper's warm-cache setting where training tables reside in the pool
// before query execution.
func (p *Pool) Warm(rel string) error {
	r, err := p.relation(rel)
	if err != nil {
		return err
	}
	for pn := uint32(0); pn < uint32(min(r.NumPages(), p.nframes)); pn++ {
		if _, err := p.Pin(rel, pn); err != nil {
			return err
		}
		if err := p.Unpin(rel, pn); err != nil {
			return err
		}
	}
	p.ResetStats()
	return nil
}

// IsWarm reports whether the pool holds rel's first min(pages, frames)
// pages at their current generation: what Warm leaves behind, and a
// completed scan of a table that fits. An unknown relation is cold.
func (p *Pool) IsWarm(rel string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.rels[rel]
	for pn := 0; ok && pn < min(r.NumPages(), p.nframes); pn++ {
		fi, cached := p.table[PageID{Rel: rel, Page: uint32(pn)}]
		ok = cached && p.frames[fi].gen == r.PageGeneration(pn)
	}
	return ok
}

// PinnedCount returns the number of currently pinned frames (for tests
// and leak detection).
func (p *Pool) PinnedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.frames {
		if p.frames[i].pins > 0 {
			n++
		}
	}
	return n
}
