package storage

import (
	"math/rand"
	"testing"
)

func makeRows(n, cols int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, cols)
		for j := range r {
			r[j] = float64(float32(rng.NormFloat64()))
		}
		rows[i] = r
	}
	return rows
}

func TestRelationInsertScan(t *testing.T) {
	s := NumericSchema(9)
	r := NewRelation("toy", s, PageSize8K)
	rows := makeRows(1000, 10, 1)
	if err := r.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if r.NumTuples() != 1000 {
		t.Fatalf("NumTuples = %d", r.NumTuples())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	i := 0
	err := r.Scan(func(tid TID, vals []float64) error {
		for j := range vals {
			if vals[j] != rows[i][j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, vals[j], rows[i][j])
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 1000 {
		t.Fatalf("scanned %d rows", i)
	}
}

func TestRelationTuplesPerPage(t *testing.T) {
	// 54 features + label (Remote Sensing topology): 55*4=220 data bytes,
	// +24 header = 244, aligned to 248, +4 line pointer = 252.
	s := NumericSchema(54)
	r := NewRelation("rs", s, PageSize32K)
	want := (PageSize32K - PageHeaderSize) / 252
	if got := r.TuplesPerPage(); got != want {
		t.Errorf("TuplesPerPage = %d, want %d", got, want)
	}
	// Confirm experimentally.
	rows := makeRows(2*want, 55, 2)
	if err := r.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	p0, err := r.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.NumItems() != want {
		t.Errorf("page 0 holds %d tuples, want %d", p0.NumItems(), want)
	}
	if r.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", r.NumPages())
	}
}

func TestRelationGet(t *testing.T) {
	s := NumericSchema(3)
	r := NewRelation("g", s, PageSize8K)
	tid, err := r.Insert([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := r.Get(tid)
	if err != nil {
		t.Fatal(err)
	}
	if vals[3] != 4 {
		t.Errorf("vals = %v", vals)
	}
	if _, err := r.Get(TID{Page: 99}); err == nil {
		t.Error("Get on missing page should fail")
	}
}

func TestRelationPageOutOfRange(t *testing.T) {
	r := NewRelation("e", NumericSchema(1), PageSize8K)
	if _, err := r.Page(0); err == nil {
		t.Error("Page(0) on empty relation should fail")
	}
}

func TestRelationTooWideTuple(t *testing.T) {
	s := NumericSchema(4096) // 16 KB+ of data cannot fit an 8 KB page
	r := NewRelation("wide", s, PageSize8K)
	if _, err := r.Insert(make([]float64, 4097)); err == nil {
		t.Error("oversized tuple should fail")
	}
}

func TestRelationSizeBytes(t *testing.T) {
	s := NumericSchema(1)
	r := NewRelation("sz", s, PageSize8K)
	if err := r.InsertBatch(makeRows(500, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if r.SizeBytes() != int64(r.NumPages())*PageSize8K {
		t.Errorf("SizeBytes = %d", r.SizeBytes())
	}
}

func TestDeleteAndVacuum(t *testing.T) {
	s := NumericSchema(2)
	r := NewRelation("dv", s, PageSize8K)
	if err := r.InsertBatch(makeRows(600, 3, 5)); err != nil {
		t.Fatal(err)
	}
	before := r.NumPages()
	// Delete every other tuple on the first two pages.
	deleted := 0
	for pn := uint32(0); pn < 2; pn++ {
		pg, err := r.Page(int(pn))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pg.NumItems(); i += 2 {
			if err := r.Delete(TID{Page: pn, Item: uint16(i)}); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
	}
	if r.NumTuples() != 600-deleted {
		t.Fatalf("NumTuples = %d, want %d", r.NumTuples(), 600-deleted)
	}
	if err := r.Delete(TID{Page: 0, Item: 0}); err == nil {
		t.Error("double delete accepted")
	}
	// Scan skips dead tuples.
	n := 0
	if err := r.Scan(func(TID, []float64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 600-deleted {
		t.Fatalf("scan saw %d tuples", n)
	}
	// Vacuum compacts.
	if err := r.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if r.NumTuples() != 600-deleted {
		t.Fatalf("post-vacuum NumTuples = %d", r.NumTuples())
	}
	if r.NumPages() > before {
		t.Errorf("vacuum grew the heap: %d -> %d pages", before, r.NumPages())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	pg, _ := r.Page(0)
	for i := 0; i < pg.NumItems(); i++ {
		id, err := pg.ItemID(i)
		if err != nil {
			t.Fatal(err)
		}
		if id.Flags != LPNormal {
			t.Fatalf("dead tuple survived vacuum at item %d", i)
		}
	}
}

// TestMutationClonesOnlyHandedPages: the first mutation of a page Page
// has handed out moves the heap to a clone and leaves the handed image
// as it was; a further mutation before the next Page writes that clone
// in place, and a page never handed out is never copied.
func TestMutationClonesOnlyHandedPages(t *testing.T) {
	r := NewRelation("cow", NumericSchema(2), PageSize8K)
	if err := r.InsertBatch(makeRows(10, 3, 1)); err != nil {
		t.Fatal(err)
	}
	fresh := &r.pages[0][0]
	if _, err := r.Insert(makeRows(1, 3, 2)[0]); err != nil {
		t.Fatal(err)
	}
	if &r.pages[0][0] != fresh {
		t.Fatal("an Insert copied a page nobody was handed")
	}
	handed, err := r.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	image := append(Page(nil), handed...)
	if _, err := r.Insert(makeRows(1, 3, 3)[0]); err != nil {
		t.Fatal(err)
	}
	clone := &r.pages[0][0]
	if clone == &handed[0] {
		t.Fatal("an Insert wrote the page Page had handed out")
	}
	if err := r.Delete(TID{Page: 0, Item: 0}); err != nil {
		t.Fatal(err)
	}
	if &r.pages[0][0] != clone {
		t.Fatal("a second mutation before the next Page cloned again")
	}
	if string(handed) != string(image) {
		t.Fatal("the handed image changed")
	}
	pg, err := r.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumItems() != 12 || !pg.ChecksumOK() {
		t.Fatalf("the current image holds %d items (want 12), checksum ok %v", pg.NumItems(), pg.ChecksumOK())
	}
}

// TestZeroLiveTuplePages: pages whose every item is dead (or redirected)
// must scan as empty without error, at the relation level too.
func TestZeroLiveTuplePages(t *testing.T) {
	s := NumericSchema(3)
	rel := NewRelation("ghosts", s, PageSize8K)
	for i := 0; i < 10; i++ {
		if _, err := rel.Insert([]float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := rel.Delete(TID{Page: 0, Item: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-point one dead slot as a redirect: scanners must skip it too.
	pg, _ := rel.Page(0)
	if err := pg.SetLinePointer(3, ItemID{Off: 4, Flags: LPRedirect, Len: 0}); err != nil {
		t.Fatal(err)
	}
	rows := 0
	if err := rel.Scan(func(TID, []float64) error { rows++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rows != 0 {
		t.Fatalf("scanned %d rows from a zero-live relation", rows)
	}
	if err := rel.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if rel.NumTuples() != 0 {
		t.Fatalf("vacuum left %d tuples", rel.NumTuples())
	}
}
