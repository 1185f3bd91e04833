package storage

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSchemaOffsetsAlignment(t *testing.T) {
	s := NewSchema(
		Column{"a", TFloat32}, // 0
		Column{"b", TFloat64}, // aligned to 8
		Column{"c", TInt32},   // 16
		Column{"d", TInt64},   // aligned to 24
	)
	wantOff := []int{0, 8, 16, 24}
	for i, w := range wantOff {
		if got := s.ColOffset(i); got != w {
			t.Errorf("offset[%d] = %d, want %d", i, got, w)
		}
	}
	if s.DataWidth() != 32 {
		t.Errorf("DataWidth = %d, want 32", s.DataWidth())
	}
}

func TestNumericSchema(t *testing.T) {
	s := NumericSchema(54)
	if s.NumCols() != 55 {
		t.Fatalf("NumCols = %d, want 55", s.NumCols())
	}
	if s.DataWidth() != 55*4 {
		t.Errorf("DataWidth = %d, want %d", s.DataWidth(), 55*4)
	}
	if s.ColIndex("label") != 54 {
		t.Errorf("label index = %d", s.ColIndex("label"))
	}
	if s.ColIndex("f10") != 10 {
		t.Errorf("f10 index = %d", s.ColIndex("f10"))
	}
	if s.ColIndex("nope") != -1 {
		t.Errorf("missing column index = %d, want -1", s.ColIndex("nope"))
	}
}

func TestParseColType(t *testing.T) {
	cases := map[string]ColType{
		"float4": TFloat32, "REAL": TFloat32,
		"float8": TFloat64, "double precision": TFloat64,
		"int": TInt32, "INTEGER": TInt32, "bigint": TInt64,
	}
	for in, want := range cases {
		got, err := ParseColType(in)
		if err != nil || got != want {
			t.Errorf("ParseColType(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseColType("varchar"); err == nil {
		t.Error("ParseColType(varchar) should fail (fixed-width types only)")
	}
}

func TestTupleEncodeDecodeRoundTrip(t *testing.T) {
	s := NewSchema(
		Column{"x", TFloat32},
		Column{"y", TFloat64},
		Column{"n", TInt32},
	)
	vals := []float64{1.5, -2.25, 42}
	raw, err := EncodeTuple(s, vals, 99, TID{Page: 3, Item: 7})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := DecodeTupleMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Xmin != 99 {
		t.Errorf("Xmin = %d", meta.Xmin)
	}
	if meta.Ctid != (TID{Page: 3, Item: 7}) {
		t.Errorf("Ctid = %v", meta.Ctid)
	}
	if n := meta.Infomask2 & 0x07FF; n != 3 {
		t.Errorf("infomask2 attribute count = %d", n)
	}
	if meta.Hoff != TupleHeaderSize {
		t.Errorf("Hoff = %d", meta.Hoff)
	}
	got, err := DecodeTuple(s, nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("col %d = %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestTupleRoundTripProperty(t *testing.T) {
	s := NumericSchema(16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 17)
		for i := range vals {
			// float32-representable values survive the round trip exactly
			vals[i] = float64(float32(rng.NormFloat64() * 100))
		}
		raw, err := EncodeTuple(s, vals, 1, TID{})
		if err != nil {
			return false
		}
		got, err := DecodeTuple(s, nil, raw)
		if err != nil {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] && !(math.IsNaN(got[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTupleMetaTooShort(t *testing.T) {
	if _, err := DecodeTupleMeta(make([]byte, 10)); err == nil {
		t.Error("short tuple should fail")
	}
}

func TestEncodeValuesErrors(t *testing.T) {
	s := NumericSchema(2)
	if err := s.EncodeValues(make([]byte, s.DataWidth()), []float64{1}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := s.EncodeValues(make([]byte, 2), []float64{1, 2, 3}); err == nil {
		t.Error("short buffer should fail")
	}
}

// TestNullBitmapTupleRefused: no writer forms a tuple with HEAP_HASNULL,
// and the fixed-width readers refuse one, typed, rather than misread its
// shifted columns through the static offsets: DecodeTuple, and a
// Relation.Scan over its page after handing out the tuple before it.
func TestNullBitmapTupleRefused(t *testing.T) {
	s := NumericSchema(3)
	rel := NewRelation("nulls", s, PageSize8K)
	for i := 0; i < 3; i++ {
		if _, err := rel.Insert([]float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	pg, err := rel.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := pg.Item(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTuple(s, nil, raw); err != nil {
		t.Fatalf("before the bit is set: %v", err)
	}
	raw[tupInfomaskOff] |= InfomaskHasNull
	if _, err := DecodeTuple(s, nil, raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeTuple on a null-bitmap tuple: got %v, want ErrCorrupt", err)
	}
	rows := 0
	err = rel.Scan(func(TID, []float64) error { rows++; return nil })
	if !errors.Is(err, ErrCorrupt) || rows != 1 {
		t.Fatalf("Scan over a null-bitmap tuple: %d rows, error %v; want 1 row, ErrCorrupt", rows, err)
	}
}
