package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPageInvariants(t *testing.T) {
	for _, size := range []int{PageSize8K, PageSize16K, PageSize32K} {
		p := NewPage(size, 0)
		if err := p.Validate(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if p.Size() != size {
			t.Errorf("Size() = %d, want %d", p.Size(), size)
		}
		if p.Version() != LayoutVersion {
			t.Errorf("Version() = %d, want %d", p.Version(), LayoutVersion)
		}
		if p.Lower() != PageHeaderSize {
			t.Errorf("Lower() = %d, want %d", p.Lower(), PageHeaderSize)
		}
		if p.Upper() != size {
			t.Errorf("Upper() = %d, want %d", p.Upper(), size)
		}
		if got := p.NumItems(); got != 0 {
			t.Errorf("NumItems() = %d, want 0", got)
		}
	}
}

// TestHeaderSizedPagePassesTheLengthGate: Validate's first check refuses
// only a buffer shorter than a page header. A page of exactly
// PageHeaderSize bytes, lower = upper = special = the header, passes it;
// it is refused by the size check after it, because pd_pagesize_version
// records a size in multiples of 256 and so reads 0 for 24 bytes. One
// byte shorter is refused as smaller than the header.
func TestHeaderSizedPagePassesTheLengthGate(t *testing.T) {
	p := NewPage(PageHeaderSize, 0)
	if p.Lower() != PageHeaderSize || p.Upper() != PageHeaderSize || p.Special() != PageHeaderSize {
		t.Fatalf("lower=%d upper=%d special=%d, want %d each", p.Lower(), p.Upper(), p.Special(), PageHeaderSize)
	}
	if err := p.Validate(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "header size 0 != actual 24") {
		t.Errorf("a header-sized page: %v, want the size check's refusal", err)
	}
	if err := p[:PageHeaderSize-1].Validate(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "smaller than header") {
		t.Errorf("a page one byte short of a header: %v, want the length check's refusal", err)
	}
}

func TestPageSpecialSpace(t *testing.T) {
	p := NewPage(PageSize8K, 100)
	// Special space is MAXALIGN'd.
	if got, want := p.Special(), PageSize8K-104; got != want {
		t.Errorf("Special() = %d, want %d", got, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddItemRoundTrip(t *testing.T) {
	p := NewPage(PageSize8K, 0)
	items := [][]byte{
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, 64),
		{1},
		bytes.Repeat([]byte{0xCD}, 257),
	}
	for i, it := range items {
		idx, err := p.AddItem(it)
		if err != nil {
			t.Fatalf("AddItem(%d): %v", i, err)
		}
		if idx != i {
			t.Fatalf("AddItem returned index %d, want %d", idx, i)
		}
	}
	if got := p.NumItems(); got != len(items) {
		t.Fatalf("NumItems = %d, want %d", got, len(items))
	}
	for i, want := range items {
		got, err := p.Item(i)
		if err != nil {
			t.Fatalf("Item(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Item(%d) = %x, want %x", i, got, want)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddItemUntilFull(t *testing.T) {
	p := NewPage(PageSize8K, 0)
	item := bytes.Repeat([]byte{0x7F}, 100)
	n := 0
	for {
		if _, err := p.AddItem(item); err != nil {
			break
		}
		n++
	}
	// 104 aligned bytes + 4 byte line pointer per item out of 8192-24.
	want := (PageSize8K - PageHeaderSize) / (104 + ItemIDSize)
	if n != want {
		t.Errorf("fit %d items, want %d", n, want)
	}
	if p.FreeSpace() >= 104+ItemIDSize {
		t.Errorf("FreeSpace() = %d but AddItem failed", p.FreeSpace())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteItem(t *testing.T) {
	p := NewPage(PageSize8K, 0)
	if _, err := p.AddItem([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteItem(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Item(0); err == nil {
		t.Fatal("Item(0) after delete should fail")
	}
	id, err := p.ItemID(0)
	if err != nil {
		t.Fatal(err)
	}
	if id.Flags != LPDead {
		t.Errorf("flags = %d, want LPDead", id.Flags)
	}
}

func TestItemIDOutOfRange(t *testing.T) {
	p := NewPage(PageSize8K, 0)
	if _, err := p.ItemID(0); err == nil {
		t.Error("ItemID(0) on empty page should fail")
	}
	if _, err := p.ItemID(-1); err == nil {
		t.Error("ItemID(-1) should fail")
	}
}

func TestItemIDEncodeDecodeProperty(t *testing.T) {
	f := func(off uint16, flags uint8, length uint16) bool {
		id := ItemID{Off: off & 0x7FFF, Flags: flags & 0x3, Len: length & 0x7FFF}
		return decodeItemID(encodeItemID(id)) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageChecksum(t *testing.T) {
	p := NewPage(PageSize8K, 0)
	if _, err := p.AddItem([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	c1 := p.ComputeChecksum()
	p.SetChecksum(c1)
	if p.Checksum() != c1 {
		t.Fatal("checksum not stored")
	}
	// Checksum must ignore its own field.
	if p.ComputeChecksum() != c1 {
		t.Fatal("checksum changed after storing it")
	}
	// And detect corruption elsewhere.
	p[100] ^= 0xFF
	if p.ComputeChecksum() == c1 {
		t.Error("checksum did not change after corruption")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	p := NewPage(PageSize8K, 0)
	if _, err := p.AddItem(bytes.Repeat([]byte{1}, 32)); err != nil {
		t.Fatal(err)
	}
	// Corrupt pd_lower to overlap pd_upper.
	p[offLower] = 0xFF
	p[offLower+1] = 0x7F
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted corrupt lower pointer")
	}
}

func TestPageLSN(t *testing.T) {
	p := NewPage(PageSize8K, 0)
	p.SetLSN(0xDEADBEEFCAFE)
	if p.LSN() != 0xDEADBEEFCAFE {
		t.Errorf("LSN = %x", p.LSN())
	}
}

func TestRandomItemsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := NewPage(PageSize8K, 0)
		var stored [][]byte
		for {
			item := make([]byte, 1+rng.Intn(300))
			rng.Read(item)
			if _, err := p.AddItem(item); err != nil {
				break
			}
			stored = append(stored, item)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, want := range stored {
			got, err := p.Item(i)
			if err != nil {
				t.Fatalf("trial %d item %d: %v", trial, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d item %d mismatch", trial, i)
			}
		}
	}
}

// quantize makes v exactly representable by the column type, so encode →
// decode is the identity.
func quantize(t ColType, v float64) float64 {
	switch t {
	case TFloat32:
		return float64(float32(v))
	case TInt32, TInt64:
		return float64(int32(v * 100))
	default:
		return v
	}
}

func randRow(rng *rand.Rand, s *Schema) []float64 {
	vals := make([]float64, s.NumCols())
	for i, c := range s.Cols {
		vals[i] = quantize(c.Type, rng.NormFloat64()*10)
	}
	return vals
}

// TestPageFillToErrPageFull fills pages of every size to ErrPageFull and
// checks the free-space accounting never goes negative and every stored
// tuple stays readable.
func TestPageFillToErrPageFull(t *testing.T) {
	s := NumericSchema(15)
	rng := rand.New(rand.NewSource(23))
	for _, size := range []int{PageSize8K, PageSize16K, PageSize32K} {
		page := NewPage(size, 0)
		n := 0
		for {
			vals := randRow(rng, s)
			raw, err := EncodeTuple(s, vals, 2, TID{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := page.AddItem(raw); err != nil {
				if !errorsIs(err, ErrPageFull) {
					t.Fatalf("size=%d: %v", size, err)
				}
				break
			}
			n++
			if page.FreeSpace() < 0 {
				t.Fatalf("size=%d: negative free space", size)
			}
		}
		expect := (size - PageHeaderSize) / (alignUp(TupleHeaderSize+s.DataWidth(), MaxAlign) + ItemIDSize)
		if n != expect {
			t.Errorf("size=%d: filled %d tuples, geometry predicts %d", size, n, expect)
		}
		if err := page.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := page.Item(i); err != nil {
				t.Fatalf("size=%d item=%d: %v", size, i, err)
			}
		}
	}
}

// errorsIs avoids importing errors in this file twice.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
