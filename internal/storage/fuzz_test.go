package storage

import (
	"math"
	"math/rand"
	"testing"

	"dana/internal/fuzzcorpus"
)

// pageDecodeSeeds builds the committed corpus for FuzzPageDecode: real
// formed pages (plain, nulls, varlena tails, deletions, an unused line
// pointer) for both layouts, truncated and whole.
func pageDecodeSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(99))
	var seeds [][]byte

	s := NumericSchema(5)
	page := NewPage(PageSize8K, 0)
	for i := 0; i < 6; i++ {
		vals := make([]float64, s.NumCols())
		for j := range vals {
			vals[j] = float64(float32(rng.NormFloat64()))
		}
		raw, err := EncodeTuple(s, vals, uint32(i+2), TID{Item: uint16(i)})
		if err != nil {
			tb.Fatal(err)
		}
		if i == 4 {
			raw, err = AppendVarlena(raw, []byte("trailing varlena datum"))
			if err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := page.AddItem(raw); err != nil {
			tb.Fatal(err)
		}
	}
	if err := page.DeleteItem(2); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, []byte(page[:1024]), []byte(page[:PageHeaderSize+3]))

	// A page of null-bitmap tuples at a bitmap byte boundary.
	cols := make([]Column, 9)
	for i := range cols {
		cols[i] = Column{Name: string(rune('a' + i)), Type: TFloat64}
	}
	ns := NewSchema(cols...)
	npage := NewPage(PageSize8K, 0)
	for i := 0; i < 3; i++ {
		vals := make([]float64, 9)
		nulls := make([]bool, 9)
		nulls[i] = true
		nulls[8-i] = true
		raw, err := EncodeTupleWithNulls(ns, vals, nulls, 2, TID{})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := npage.AddItem(raw); err != nil {
			tb.Fatal(err)
		}
	}
	seeds = append(seeds, []byte(npage[:1024]))

	// An InnoDB page.
	ipage := NewInnoPage(PageSize8K)
	buf := make([]byte, s.DataWidth())
	for i := 0; i < 4; i++ {
		vals := make([]float64, s.NumCols())
		for j := range vals {
			vals[j] = float64(float32(rng.NormFloat64()))
		}
		if err := s.EncodeValues(buf, vals); err != nil {
			tb.Fatal(err)
		}
		if err := ipage.AddRecord(buf); err != nil {
			tb.Fatal(err)
		}
	}
	seeds = append(seeds, []byte(ipage[:512]))

	// A whole small page whose tuples all lie inside it: a dead and an
	// unused line pointer between live items, for the heap page loop.
	small := NewPage(512, 0)
	for i := 0; i < 4; i++ {
		vals := make([]float64, s.NumCols())
		for j := range vals {
			vals[j] = float64(i*len(vals) + j)
		}
		raw, err := EncodeTuple(s, vals, uint32(i+2), TID{Item: uint16(i)})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := small.AddItem(raw); err != nil {
			tb.Fatal(err)
		}
	}
	if err := small.DeleteItem(1); err != nil {
		tb.Fatal(err)
	}
	if err := small.SetLinePointer(2, ItemID{}); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, []byte(small))
	return seeds
}

// FuzzPageDecode throws arbitrary bytes at every storage reader: page
// validation, line pointers, tuple headers, both decode paths, the heap
// page loop, varlena, and the InnoDB chain walker. All must return
// errors on garbage, never panic or over-read.
func FuzzPageDecode(f *testing.F) {
	for _, s := range pageDecodeSeeds(f) {
		f.Add(s)
	}
	schemas := []*Schema{
		NumericSchema(5),
		NewSchema(
			Column{Name: "a", Type: TInt32},
			Column{Name: "b", Type: TFloat64},
			Column{Name: "c", Type: TInt64},
			Column{Name: "d", Type: TFloat32},
		),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		page := Page(data)
		_ = page.Validate()
		if len(data) >= PageHeaderSize {
			for i := 0; i < page.NumItems(); i++ {
				id, err := page.ItemID(i)
				if err != nil {
					continue
				}
				_ = id
				raw, err := page.Item(i)
				if err != nil {
					continue
				}
				if m, err := DecodeTupleMeta(raw); err == nil {
					_ = m.NAttrs()
					_, _ = TupleData(raw)
				}
				for _, s := range schemas {
					_, _ = DecodeTuple(s, nil, raw)
					_, _, _ = DecodeTupleWithNulls(s, raw)
				}
			}
		}
		for _, s := range schemas {
			checkScanTuples(t, page, s)
		}
		_, _, _ = DecodeVarlena(data)
		ipage := InnoPage(data)
		for _, w := range []int{0, 8, 40} {
			_, _ = ipage.Records(w)
		}
	})
}

// checkScanTuples holds the page loop to a walk by hand: fn sees exactly
// the LPNormal items DecodeTuple accepts, in item order, with their
// decoded values, and the loop fails at the first LPNormal item that
// will not decode.
func checkScanTuples(t *testing.T, page Page, s *Schema) {
	t.Helper()
	var want [][]float64
	var wantItems []int
	wantErr := false
	for i := 0; i < page.NumItems(); i++ {
		if id, _ := page.ItemID(i); id.Flags != LPNormal {
			continue
		}
		raw, err := page.Item(i)
		var vals []float64
		if err == nil {
			vals, err = DecodeTuple(s, nil, raw)
		}
		if err != nil {
			wantErr = true
			break
		}
		want, wantItems = append(want, vals), append(wantItems, i)
	}
	var got [][]float64
	var gotItems []int
	_, err := page.ScanTuples(s, make([]float64, 0, s.NumCols()), func(i int, vals []float64) (bool, error) {
		got, gotItems = append(got, append([]float64(nil), vals...)), append(gotItems, i)
		return true, nil
	})
	if (err != nil) != wantErr {
		t.Fatalf("ScanTuples error = %v, want error %v", err, wantErr)
	}
	if len(gotItems) != len(wantItems) {
		t.Fatalf("ScanTuples handed items %v, want %v", gotItems, wantItems)
	}
	for k := range wantItems {
		if gotItems[k] != wantItems[k] || len(got[k]) != len(want[k]) {
			t.Fatalf("ScanTuples handed items %v, want %v", gotItems, wantItems)
		}
		for j := range want[k] {
			if math.Float64bits(got[k][j]) != math.Float64bits(want[k][j]) {
				t.Fatalf("item %d column %d: %v, want %v", wantItems[k], j, got[k][j], want[k][j])
			}
		}
	}
}

// TestWritePageDecodeCorpus regenerates the committed seed corpus when
// DANA_WRITE_FUZZ_CORPUS is set.
func TestWritePageDecodeCorpus(t *testing.T) {
	if !fuzzcorpus.ShouldWrite() {
		t.Skipf("set %s=1 to regenerate the corpus", fuzzcorpus.WriteEnv)
	}
	if err := fuzzcorpus.WriteBytes("testdata/fuzz/FuzzPageDecode", pageDecodeSeeds(t)); err != nil {
		t.Fatal(err)
	}
}
