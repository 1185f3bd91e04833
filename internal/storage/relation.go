package storage

import (
	"fmt"
	"slices"
	"sync"
)

// Relation is a heap of slotted pages holding fixed-width tuples for one
// schema. It plays the role of the on-disk heap file: the buffer pool
// (internal/bufpool) reads pages from it and charges simulated I/O time.
type Relation struct {
	Name     string
	Schema   *Schema
	PageSize int

	mu      sync.RWMutex
	pages   []Page
	meta    []pageMeta // one per page
	ntup    int
	ndead   int // line pointers Delete marked dead, until Vacuum
	nextXID uint32
	gen     uint64
}

// pageMeta is what a relation keeps about one of its pages.
type pageMeta struct {
	dirty  bool   // mutated since its checksum was last stamped
	handed bool   // Page has handed it out: immutable, a mutation clones it
	gen    uint64 // the relation's generation at the page's last mutation
}

// NewRelation creates an empty heap relation with the given page size.
func NewRelation(name string, schema *Schema, pageSize int) *Relation {
	if pageSize <= 0 {
		pageSize = PageSize32K
	}
	return &Relation{Name: name, Schema: schema, PageSize: pageSize, nextXID: 2}
}

// NumPages returns the number of heap pages.
func (r *Relation) NumPages() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.pages)
}

// NumTuples returns the number of live tuples.
func (r *Relation) NumTuples() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ntup
}

// NumDead returns the number of dead line pointers Delete has left in
// the heap since the last Vacuum.
func (r *Relation) NumDead() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ndead
}

// Generation returns a counter that advances on every heap mutation
// (insert, delete, vacuum). Caches of derived page contents — e.g. the
// access engine's extracted-record cache — compare generations to detect
// staleness without rescanning the heap.
func (r *Relation) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// PageGeneration returns the generation at page i's last mutation (0 for
// a page that does not exist). A page image Page returned when it read g
// is current exactly while it still reads g: the buffer pool's frames
// compare it on every pin.
func (r *Relation) PageGeneration(i int) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if i < 0 || i >= len(r.meta) {
		return 0
	}
	return r.meta[i].gen
}

// SizeBytes returns the total heap size in bytes.
func (r *Relation) SizeBytes() int64 {
	return int64(r.NumPages()) * int64(r.PageSize)
}

// TupleBytes returns the on-page footprint of one tuple: aligned header +
// data, plus its line pointer.
func (r *Relation) TupleBytes() int {
	return alignUp(TupleHeaderSize+r.Schema.DataWidth(), MaxAlign) + ItemIDSize
}

// TuplesPerPage returns how many tuples fit on one page.
func (r *Relation) TuplesPerPage() int {
	usable := r.PageSize - PageHeaderSize
	n := usable / r.TupleBytes()
	if n < 1 {
		n = 0
	}
	return n
}

// Page returns heap page i with its checksum stamped. The returned Page
// is the heap's own page image, and it never changes once handed out: a
// later Insert or Delete on the page mutates a clone (writableLocked), so
// a buffer-pool frame or any other reader may hold it without the lock
// and without a copy. Callers must not write it.
//
// Checksums are stamped lazily: mutations only mark the page dirty, and
// the stamp happens on the next read here — so the per-insert cost stays
// O(tuple), not O(page), and a page is re-checksummed at most once per
// mutation no matter how many epochs re-read it. A dirty page was
// mutated since it was last handed out, so it is one nobody holds.
func (r *Relation) Page(i int) (Page, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.pages) {
		return nil, fmt.Errorf("storage: relation %q has no page %d (of %d)", r.Name, i, len(r.pages))
	}
	m := &r.meta[i]
	if m.dirty {
		r.pages[i].StampChecksum()
		m.dirty = false
	}
	m.handed = true
	return r.pages[i], nil
}

// writableLocked returns page i for an in-place mutation. A page Page
// has handed out is cloned first and the clone takes its place in the
// heap, so its holders keep the image they read: one page copy per
// mutation after a read.
func (r *Relation) writableLocked(i int) Page {
	if r.meta[i].handed {
		r.pages[i] = slices.Clone(r.pages[i])
		r.meta[i].handed = false
	}
	return r.pages[i]
}

// Insert appends one row, allocating a new page when the current one is
// full. It returns the tuple's TID.
func (r *Relation) Insert(vals []float64) (TID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.insertLocked(vals)
}

func (r *Relation) insertLocked(vals []float64) (TID, error) {
	if len(r.pages) == 0 {
		r.pages = append(r.pages, NewPage(r.PageSize, 0))
		r.meta = append(r.meta, pageMeta{dirty: true})
	}
	pageNo := len(r.pages) - 1
	tid := TID{Page: uint32(pageNo), Item: uint16(r.pages[pageNo].NumItems())}
	raw, err := EncodeTuple(r.Schema, vals, r.nextXID, tid)
	if err != nil {
		return TID{}, err
	}
	if _, err = r.writableLocked(pageNo).AddItem(raw); err != nil {
		// Page full: start a new page and retry once.
		p := NewPage(r.PageSize, 0)
		r.pages = append(r.pages, p)
		r.meta = append(r.meta, pageMeta{dirty: true})
		pageNo++
		tid = TID{Page: uint32(pageNo), Item: 0}
		raw, err = EncodeTuple(r.Schema, vals, r.nextXID, tid)
		if err != nil {
			return TID{}, err
		}
		if _, err = p.AddItem(raw); err != nil {
			return TID{}, fmt.Errorf("storage: tuple of %d bytes does not fit on an empty %d-byte page: %w",
				TupleHeaderSize+r.Schema.DataWidth(), r.PageSize, err)
		}
	}
	r.touchLocked(pageNo)
	r.nextXID++
	r.ntup++
	return tid, nil
}

// touchLocked records a mutation of page i: the relation's generation
// advances, and the page's checksum is stale and its generation the new
// one.
func (r *Relation) touchLocked(i int) {
	r.gen++
	r.meta[i] = pageMeta{dirty: true, gen: r.gen}
}

// InsertBatch appends many rows, amortizing lock acquisition.
func (r *Relation) InsertBatch(rows [][]float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, vals := range rows {
		if _, err := r.insertLocked(vals); err != nil {
			return err
		}
	}
	return nil
}

// Get fetches the decoded column values of the tuple at tid.
func (r *Relation) Get(tid TID) ([]float64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(tid.Page) >= len(r.pages) {
		return nil, fmt.Errorf("storage: %q: no page %d", r.Name, tid.Page)
	}
	raw, err := r.pages[tid.Page].Item(int(tid.Item))
	if err != nil {
		return nil, err
	}
	return DecodeTuple(r.Schema, nil, raw)
}

// ScanTuples is the one heap page loop: it hands fn each live tuple of
// p in item order, decoded into vals (pre-size it to s.NumCols() and it
// is reused, not grown). Line pointers that are not LPNormal are
// skipped, as PostgreSQL's seq scan skips dead, unused and redirect
// slots; a normal item that will not decode is an error. fn returns
// false to stop, and ScanTuples reports whether it read the page to its
// end.
func (p Page) ScanTuples(s *Schema, vals []float64, fn func(item int, vals []float64) (bool, error)) (bool, error) {
	for i, n := 0, p.NumItems(); i < n; i++ {
		id, _ := p.ItemID(i)
		if id.Flags != LPNormal {
			continue
		}
		raw, err := p.item(i, id)
		if err != nil {
			return false, err
		}
		if vals, err = DecodeTuple(s, vals[:0], raw); err != nil {
			return false, err
		}
		if more, err := fn(i, vals); !more || err != nil {
			return false, err
		}
	}
	return true, nil
}

// Scan invokes fn for every live tuple in heap order with its decoded
// values. The values slice is reused between calls.
func (r *Relation) Scan(fn func(tid TID, vals []float64) error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vals := make([]float64, 0, r.Schema.NumCols())
	for pn, p := range r.pages {
		_, err := p.ScanTuples(r.Schema, vals, func(i int, vals []float64) (bool, error) {
			return true, fn(TID{Page: uint32(pn), Item: uint16(i)}, vals)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// NarrowedRows materializes the live tuples with every value narrowed
// through float32 — the Strider datapath width — so consumers that skip
// the extraction pipeline (row-fed backends, failover targets) see
// exactly the values it would deliver. rows64 holds the narrowed values
// widened back (exact); rows32 is built only when with32 is set.
func (r *Relation) NarrowedRows(with32 bool) (rows64 [][]float64, rows32 [][]float32, err error) {
	err = r.Scan(func(_ TID, vals []float64) error {
		r64 := make([]float64, len(vals))
		var r32 []float32
		if with32 {
			r32 = make([]float32, len(vals))
		}
		for i, v := range vals {
			f := float32(v)
			r64[i] = float64(f)
			if with32 {
				r32[i] = f
			}
		}
		rows64 = append(rows64, r64)
		if with32 {
			rows32 = append(rows32, r32)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows64, rows32, nil
}

// Validate checks every page's invariants.
func (r *Relation) Validate() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i, p := range r.pages {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("page %d: %w", i, err)
		}
	}
	return nil
}

// Delete marks the tuple at tid dead (it keeps its storage until
// Vacuum, exactly like PostgreSQL before autovacuum runs). Training
// refuses a relation with dead tuples until it is vacuumed.
func (r *Relation) Delete(tid TID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(tid.Page) >= len(r.pages) {
		return fmt.Errorf("storage: %q: no page %d", r.Name, tid.Page)
	}
	id, err := r.pages[tid.Page].ItemID(int(tid.Item))
	if err != nil {
		return err
	}
	if id.Flags != LPNormal {
		return fmt.Errorf("storage: tuple %v already dead", tid)
	}
	if err := r.writableLocked(int(tid.Page)).DeleteItem(int(tid.Item)); err != nil {
		return err
	}
	r.touchLocked(int(tid.Page))
	r.ntup--
	r.ndead++
	return nil
}

// Vacuum rewrites the heap without dead tuples, compacting pages. It
// restores the all-tuples-live invariant the generated Strider programs
// rely on (DAnA trains over append-only snapshots; a vacuumed heap is
// equivalent).
func (r *Relation) Vacuum() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.pages
	r.pages, r.meta = nil, nil
	r.ntup, r.ndead = 0, 0
	r.gen++
	vals := make([]float64, 0, r.Schema.NumCols())
	for _, p := range old {
		_, err := p.ScanTuples(r.Schema, vals, func(_ int, vals []float64) (bool, error) {
			_, err := r.insertLocked(vals)
			return true, err
		})
		if err != nil {
			return err
		}
	}
	return nil
}
