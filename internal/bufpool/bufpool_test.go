package bufpool

import (
	"errors"
	"sync"
	"testing"

	"dana/internal/cost"
	"dana/internal/storage"
)

func testRelation(t *testing.T, name string, rows int) *storage.Relation {
	t.Helper()
	s := storage.NumericSchema(9)
	r := storage.NewRelation(name, s, storage.PageSize8K)
	batch := make([][]float64, rows)
	for i := range batch {
		vals := make([]float64, 10)
		for j := range vals {
			vals[j] = float64(i*10 + j)
		}
		batch[i] = vals
	}
	if err := r.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	return r
}

func newPool(t *testing.T, frames int, rels ...*storage.Relation) *Pool {
	t.Helper()
	p := New(frames, storage.PageSize8K, cost.Default().Disk)
	for _, r := range rels {
		if err := p.AttachRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestPinMissThenHit(t *testing.T) {
	r := testRelation(t, "t", 100)
	p := newPool(t, 4, r)
	pg, err := p.Pin("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin("t", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin("t", 0); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss 1 hit", st)
	}
	if st.IOSeconds <= 0 {
		t.Error("miss should charge I/O time")
	}
}

func TestPinContentMatchesRelation(t *testing.T) {
	r := testRelation(t, "t", 50)
	p := newPool(t, 4, r)
	pg, err := p.Pin("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin("t", 0)
	raw, err := pg.Item(0)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := storage.DecodeTuple(r.Schema, nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 0 || vals[9] != 9 {
		t.Errorf("first tuple = %v", vals)
	}
}

// resident reports whether the page is in the pool, by pinning it and
// reading whether that counted as a hit (so a page that was not resident
// is afterwards, unless its relation is detached).
func resident(t *testing.T, p *Pool, rel string, pg uint32) bool {
	t.Helper()
	before := p.Stats().Hits
	if _, err := p.Pin(rel, pg); err != nil {
		return false
	}
	if err := p.Unpin(rel, pg); err != nil {
		t.Fatal(err)
	}
	return p.Stats().Hits > before
}

func TestEvictionClockSweep(t *testing.T) {
	r := testRelation(t, "t", 2000) // many pages
	if r.NumPages() < 8 {
		t.Fatalf("need >=8 pages, got %d", r.NumPages())
	}
	p := newPool(t, 4, r)
	for pg := uint32(0); pg < 8; pg++ {
		if _, err := p.Pin("t", pg); err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin("t", pg); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Misses != 8 {
		t.Errorf("misses = %d, want 8", st.Misses)
	}
	if st.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", st.Evictions)
	}
	if resident(t, p, "t", 0) {
		t.Error("page 0 should have been evicted")
	}
}

func TestAllPinnedFails(t *testing.T) {
	r := testRelation(t, "t", 2000)
	p := newPool(t, 2, r)
	for pg := uint32(0); pg < 2; pg++ {
		//danalint:ignore pinbalance -- frames stay pinned on purpose to prove the next Pin fails
		if _, err := p.Pin("t", pg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Pin("t", 2); err == nil {
		t.Fatal("pin with all frames pinned should fail")
	}
	if p.PinnedCount() != 2 {
		t.Errorf("PinnedCount = %d", p.PinnedCount())
	}
}

func TestUnpinErrors(t *testing.T) {
	r := testRelation(t, "t", 10)
	p := newPool(t, 2, r)
	if err := p.Unpin("t", 0); err == nil {
		t.Error("unpin of uncached page should fail")
	}
	if _, err := p.Pin("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin("t", 0); err == nil {
		t.Error("double unpin should fail")
	}
}

func TestUnknownRelation(t *testing.T) {
	p := newPool(t, 2)
	//danalint:ignore pinbalance -- Pin is expected to fail; success is itself the test failure
	if _, err := p.Pin("ghost", 0); err == nil {
		t.Error("pin of unknown relation should fail")
	}
}

func TestWarmThenScanIsAllHits(t *testing.T) {
	r := testRelation(t, "t", 500)
	p := newPool(t, r.NumPages()+2, r)
	if err := p.Warm("t"); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < r.NumPages(); pg++ {
		if _, err := p.Pin("t", uint32(pg)); err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin("t", uint32(pg)); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Misses != 0 {
		t.Errorf("warm scan had %d misses", st.Misses)
	}
	if st.Hits != int64(r.NumPages()) {
		t.Errorf("warm scan of %d pages had %d hits", r.NumPages(), st.Hits)
	}
}

func TestInvalidate(t *testing.T) {
	r := testRelation(t, "t", 100)
	p := newPool(t, 8, r)
	if err := p.Warm("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Invalidate(); err == nil {
		t.Error("invalidate with a pinned page should fail")
	}
	if err := p.Unpin("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if resident(t, p, "t", 0) {
		t.Error("page cached after invalidate")
	}
}

// TestInvalidateLeavesAFreshPool: an invalidated pool lets go of every
// page image it held — frames are the heap's pages, so a frame kept past
// Invalidate would keep an image alive — and each cold scan's counters
// equal a never-invalidated pool's first scan, on both sides of the
// pool-fits-table line.
func TestInvalidateLeavesAFreshPool(t *testing.T) {
	r := testRelation(t, "t", 2000)
	scan := func(p *Pool) Stats {
		p.ResetStats()
		if err := p.Prefetch("t", 0, r.NumPages()); err != nil {
			t.Fatal(err)
		}
		return p.Stats()
	}
	for _, frames := range []int{3 * r.NumPages(), r.NumPages() / 2} {
		want := scan(newPool(t, frames, r))
		p := newPool(t, frames, r)
		for cycle := 0; cycle < 4; cycle++ {
			if err := p.Invalidate(); err != nil {
				t.Fatal(err)
			}
			for i, f := range p.frames {
				if f.valid || f.page != nil || f.pins != 0 || f.usage != 0 {
					t.Fatalf("%d frames, cycle %d: frame %d (%v) still holds its page after Invalidate", frames, cycle, i, f.id)
				}
			}
			if p.hand != 0 || len(p.table) != 0 {
				t.Fatalf("%d frames, cycle %d: hand %d, %d table entries after Invalidate", frames, cycle, p.hand, len(p.table))
			}
			if got := scan(p); got != want {
				t.Errorf("%d frames, cycle %d: stats %+v, fresh pool %+v", frames, cycle, got, want)
			}
		}
	}
}

func TestAttachWrongPageSize(t *testing.T) {
	s := storage.NumericSchema(1)
	r := storage.NewRelation("w", s, storage.PageSize32K)
	p := New(2, storage.PageSize8K, cost.Default().Disk)
	if err := p.AttachRelation(r); err == nil {
		t.Error("page size mismatch should fail")
	}
}

func TestNewSized(t *testing.T) {
	p := NewSized(1<<20, storage.PageSize8K, cost.Default().Disk)
	if p.NumFrames() != 128 {
		t.Errorf("NumFrames = %d, want 128", p.NumFrames())
	}
}

// TestScanFloodsAsCostCounts holds a sequential scan's misses to the
// cost model's page reads: a warm pool of F < P frames misses P − F pages
// in the first epoch and, the clock sweep having evicted each page before
// the next epoch reaches it, all P in every later one; a cold pool misses
// all P in every epoch. After e epochs the misses, each at one page's
// ReadTime, are the model's I/O for e epochs to the bit.
func TestScanFloodsAsCostCounts(t *testing.T) {
	r := testRelation(t, "t", 2000)
	pages := r.NumPages()
	p := cost.Default()
	for _, frames := range []int{pages / 4, pages / 2, pages - 1} {
		p.PoolBytes = int64(frames) * storage.PageSize8K
		for _, warm := range []bool{true, false} {
			pool := newPool(t, frames, r)
			if warm {
				if err := pool.Warm("t"); err != nil {
					t.Fatal(err)
				}
			}
			w := cost.Workload{DatasetBytes: int64(pages) * storage.PageSize8K, PageSize: storage.PageSize8K}
			var misses int64
			for w.Epochs = 1; w.Epochs <= 4; w.Epochs++ {
				if err := pool.Prefetch("t", 0, pages); err != nil {
					t.Fatal(err)
				}
				epoch := pool.Stats().Misses - misses
				misses += epoch
				want := int64(pages)
				if warm && w.Epochs == 1 {
					want -= int64(frames)
				}
				io := cost.MADlibPostgres(w, p, warm).IOSec
				if epoch != want || float64(misses)*p.Disk.ReadTime(storage.PageSize8K) != io {
					t.Errorf("P=%d F=%d warm=%v epoch %d: %d misses (%d in all), want %d; the model charges %v s",
						pages, frames, warm, w.Epochs, epoch, misses, want, io)
				}
			}
		}
	}
}

func TestChecksumVerification(t *testing.T) {
	r := testRelation(t, "t", 50)
	p := newPool(t, 4, r)
	p.VerifyChecksums = true

	// Unstamped pages (checksum 0) pass.
	if _, err := p.Pin("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}

	// Stamp a valid checksum: still passes.
	pg, err := r.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	pg.SetChecksum(pg.ComputeChecksum())
	if _, err := p.Pin("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the backing page: the read must fail.
	pg[500] ^= 0xFF
	//danalint:ignore pinbalance -- Pin must fail the checksum; success is itself the test failure
	if _, err := p.Pin("t", 0); err == nil {
		t.Error("corrupted page passed checksum verification")
	}
}

func TestConcurrentPinUnpin(t *testing.T) {
	r := testRelation(t, "t", 4000)
	p := newPool(t, 16, r)
	nPages := r.NumPages()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				pn := uint32((g*7 + i) % nPages)
				pg, err := p.Pin("t", pn)
				if err != nil {
					// All-pinned transients are possible under heavy
					// contention with a tiny pool; anything else is a bug.
					if !errors.Is(err, ErrNoFreeFrames) {
						errs <- err
						return
					}
					continue
				}
				if err := pg.Validate(); err != nil {
					_ = p.Unpin("t", pn)
					errs <- err
					return
				}
				if err := p.Unpin("t", pn); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p.PinnedCount() != 0 {
		t.Errorf("leaked %d pins", p.PinnedCount())
	}
	st := p.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no accesses recorded")
	}
}

func TestInvalidateRelation(t *testing.T) {
	a := testRelation(t, "a", 200)
	b := testRelation(t, "b", 200)
	p := newPool(t, 16, a, b)
	for _, rel := range []string{"a", "b"} {
		if _, err := p.Pin(rel, 0); err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin(rel, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.InvalidateRelation("a"); err != nil {
		t.Fatal(err)
	}
	if resident(t, p, "a", 0) {
		t.Error("a still cached")
	}
	if !resident(t, p, "b", 0) {
		t.Error("b was evicted too")
	}
	if _, err := p.Pin("a", 0); err == nil {
		t.Error("detached relation still pinnable")
	}
	// Pinned pages block invalidation.
	if _, err := p.Pin("b", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.InvalidateRelation("b"); err == nil {
		t.Error("invalidated a relation with pinned pages")
	}
	if err := p.Unpin("b", 0); err != nil {
		t.Fatal(err)
	}
}

// TestPinRereadsMutatedPage: a frame read before its page was mutated is
// re-read on the next pin — a miss charged like any other — and only that
// page is: an Insert into the last page leaves the others hits, a Delete
// re-reads its own page. A pinned frame stays the copy its holders read.
func TestPinRereadsMutatedPage(t *testing.T) {
	perPage := storage.NewRelation("t", storage.NumericSchema(9), storage.PageSize8K).TuplesPerPage()
	r := testRelation(t, "t", perPage+25) // two pages, the second part full
	p := newPool(t, 4, r)
	items := func(pn uint32) int {
		t.Helper()
		pg, err := p.Pin("t", pn)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin("t", pn); err != nil {
			t.Fatal(err)
		}
		return pg.NumItems()
	}
	want := func(what string, misses, hits int64) {
		t.Helper()
		if st := p.Stats(); st.Misses != misses || st.Hits != hits || st.Evictions != 0 {
			t.Errorf("%s: %+v, want %d misses, %d hits, no evictions", what, st, misses, hits)
		}
	}
	n0, n1 := items(0), items(1)
	if r.NumPages() != 2 {
		t.Fatalf("%d pages, want 2", r.NumPages())
	}
	tid, err := r.Insert(make([]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if tid.Page != 1 {
		t.Fatalf("insert landed on page %d, want the last page", tid.Page)
	}
	if got := items(0); got != n0 {
		t.Errorf("page 0: %d items, want %d", got, n0)
	}
	if got := items(1); got != n1+1 {
		t.Errorf("page 1 after Insert: %d items, want %d", got, n1+1)
	}
	want("after Insert", 3, 1)
	if got := items(1); got != n1+1 {
		t.Errorf("page 1 re-pinned: %d items, want %d", got, n1+1)
	}
	want("re-pinned", 3, 2)

	if err := r.Delete(storage.TID{Page: 0, Item: 0}); err != nil {
		t.Fatal(err)
	}
	pg, err := p.Pin("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := pg.ItemID(0); err != nil || id.Flags == storage.LPNormal {
		t.Errorf("page 0 after Delete: item 0 is %+v (%v), want it dead", id, err)
	}
	want("after Delete", 4, 2)

	// Mutated while pinned: a second pin shares the held copy; once
	// released, the next pin reads the page's current contents.
	if _, err := r.Insert(make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(storage.TID{Page: 0, Item: 1}); err != nil {
		t.Fatal(err)
	}
	held, err := p.Pin("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := held.ItemID(1); id.Flags != storage.LPNormal {
		t.Error("a pinned frame was re-read under its holder")
	}
	want("second pin of a held frame", 4, 3)
	for i := 0; i < 2; i++ {
		if err := p.Unpin("t", 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := items(1); got != n1+2 {
		t.Errorf("page 1 after the second Insert: %d items, want %d", got, n1+2)
	}
	if pg, err = p.Pin("t", 0); err != nil {
		t.Fatal(err)
	}
	defer p.Unpin("t", 0)
	if id, _ := pg.ItemID(1); id.Flags == storage.LPNormal {
		t.Error("page 0 after release: item 1 still live")
	}
	want("after release", 6, 3)
}
