package storage

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// gridRow returns feature values on the 2⁻²³ grid in [-1, 1): with the
// fixed range {Offset: -1, Scale: 2} these normalize to exact multiples
// of 2⁻²⁴, so quantization is lossless and a full-width decode must be
// bit-exact. The weave-clean verify scenarios use the same grid.
func gridVal(n uint32) float32 {
	return float32(n%(1<<24))*float32(1.0/(1<<23)) - 1
}

var gridRange = WeaveRange{Offset: -1, Scale: 2}

func buildGridPage(t *testing.T, ncols, nrows int, seed int64) (WeavePage, [][]float32, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ranges := make([]WeaveRange, ncols)
	feats := make([][]float32, nrows)
	labels := make([]float32, nrows)
	for c := range ranges {
		ranges[c] = gridRange
	}
	for r := range feats {
		row := make([]float32, ncols)
		for c := range row {
			row[c] = gridVal(rng.Uint32())
		}
		feats[r] = row
		labels[r] = float32(rng.NormFloat64())
	}
	p, err := BuildWeavePage(ranges, feats, labels)
	if err != nil {
		t.Fatalf("BuildWeavePage: %v", err)
	}
	return p, feats, labels
}

func TestWeaveQuantizeRoundTripOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		v := gridVal(rng.Uint32())
		q := WeaveQuantize(v, gridRange)
		if got := WeaveDequantize(q, WeaveMaxBits, gridRange); got != v {
			t.Fatalf("grid value %v round-trips to %v (code %#x)", v, got, q)
		}
	}
}

func TestWeaveQuantizeSaturates(t *testing.T) {
	r := WeaveRange{Offset: 0, Scale: 1}
	cases := []struct {
		v    float32
		want uint32
	}{
		{-0.5, 0},
		{-1e30, 0},
		{1.5, math.MaxUint32},
		{1e30, math.MaxUint32},
		{float32(math.NaN()), 0},
		{float32(math.Inf(1)), math.MaxUint32},
		{float32(math.Inf(-1)), 0},
		{0, 0},
	}
	for _, c := range cases {
		if got := WeaveQuantize(c.v, r); got != c.want {
			t.Errorf("WeaveQuantize(%v) = %#x, want %#x", c.v, got, c.want)
		}
	}
}

func TestWeaveDequantizeBoundedError(t *testing.T) {
	// At k bits the truncated code drops at most 2⁻ᵏ of the normalized
	// domain, quantization rounding adds 2⁻³² (plus one code of clamp
	// slack at the top), and the float32 narrowing of the reconstruction
	// adds one ulp. The oracle in internal/verify enforces the same bound.
	rng := rand.New(rand.NewSource(10))
	r := WeaveRange{Offset: -3, Scale: 7}
	for i := 0; i < 2000; i++ {
		v := r.Offset + r.Scale*rng.Float32()
		q := WeaveQuantize(v, r)
		for _, bits := range []int{1, 2, 3, 5, 8, 13, 16, 21, 24, 32} {
			got := WeaveDequantize(q, bits, r)
			bound := float64(r.Scale)*(math.Pow(2, -float64(bits))+math.Pow(2, -31)) + 1e-5
			if diff := math.Abs(float64(got) - float64(v)); diff > bound {
				t.Fatalf("bits=%d v=%v got=%v: |diff|=%g > bound %g", bits, v, got, diff, bound)
			}
		}
	}
}

func TestWeaveDequantizeTruncationMonotone(t *testing.T) {
	// Dropping bits can only remove low-order code mass: the k-bit
	// reconstruction never exceeds the (k+1)-bit one.
	rng := rand.New(rand.NewSource(11))
	r := WeaveRange{Offset: 2, Scale: 5}
	for i := 0; i < 500; i++ {
		q := rng.Uint32()
		prev := WeaveDequantize(q, WeaveMaxBits, r)
		for bits := WeaveMaxBits - 1; bits >= 1; bits-- {
			cur := WeaveDequantize(q, bits, r)
			if cur > prev {
				t.Fatalf("code %#x: %d-bit decode %v > %d-bit decode %v", q, bits, cur, bits+1, prev)
			}
			prev = cur
		}
	}
}

func TestBuildWeavePageLayout(t *testing.T) {
	const ncols, nrows = 3, 130 // spans three plane words: 130 = 2×64 + 2
	p, feats, labels := buildGridPage(t, ncols, nrows, 1)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Version() != WeaveVersion || p.NumCols() != ncols || p.NumRows() != nrows {
		t.Fatalf("header = (v%d, %d cols, %d rows)", p.Version(), p.NumCols(), p.NumRows())
	}
	if got, want := p.PlaneWords(), (nrows+63)/64; got != want {
		t.Fatalf("PlaneWords = %d, want %d", got, want)
	}
	if len(p) != WeavePageSize(ncols, nrows) {
		t.Fatalf("len = %d, want %d", len(p), WeavePageSize(ncols, nrows))
	}
	for c := 0; c < ncols; c++ {
		if p.Range(c) != gridRange {
			t.Fatalf("Range(%d) = %+v", c, p.Range(c))
		}
	}
	for r, want := range labels {
		if got := p.Label(r); got != want {
			t.Fatalf("Label(%d) = %v, want %v", r, got, want)
		}
	}
	// Plane area is level-major: reading levels [0,k) is one contiguous
	// prefix, and each level advances by ncols × planeWords words.
	stride := ncols * p.PlaneWords() * 8
	for level := 0; level < WeaveMaxBits; level++ {
		if got, want := p.PlaneOffset(level, 0), p.PlaneOffset(0, 0)+level*stride; got != want {
			t.Fatalf("PlaneOffset(%d,0) = %d, want %d", level, got, want)
		}
	}
	if p.PlaneOffset(WeaveMaxBits, 0) != -1 || p.PlaneOffset(0, ncols) != -1 || p.PlaneOffset(-1, 0) != -1 {
		t.Fatal("out-of-range PlaneOffset must return -1")
	}
	if got, want := p.PlaneOffset(WeaveMaxBits-1, ncols-1)+p.PlaneWords()*8, len(p); got != want {
		t.Fatalf("last plane ends at %d, page is %d bytes", got, want)
	}
	// Spot-check one bit: the MSB plane of column 0 holds row r's code MSB.
	for r := 0; r < nrows; r++ {
		q := WeaveQuantize(feats[r][0], gridRange)
		off := p.PlaneOffset(0, 0) + (r/64)*8
		word := uint64(0)
		for i := 0; i < 8; i++ {
			word |= uint64(p[off+i]) << (8 * i)
		}
		got := word>>(uint(r%64))&1 == 1
		if want := q>>(WeaveMaxBits-1)&1 == 1; got != want {
			t.Fatalf("row %d MSB: plane says %v, code %#x says %v", r, got, q, want)
		}
	}
}

func TestWeavePageValidateRejects(t *testing.T) {
	base, _, _ := buildGridPage(t, 2, 70, 2)
	mutate := func(fn func(p WeavePage) WeavePage) WeavePage {
		p := append(WeavePage(nil), base...)
		return fn(p)
	}
	cases := []struct {
		name string
		page WeavePage
	}{
		{"empty", nil},
		{"short header", base[:WeaveHeaderSize-1]},
		{"bad magic", mutate(func(p WeavePage) WeavePage { p[0] ^= 0xFF; return p })},
		{"bad version", mutate(func(p WeavePage) WeavePage { p[4] = 99; return p })},
		{"zero cols", mutate(func(p WeavePage) WeavePage { p[6], p[7] = 0, 0; return p })},
		{"huge cols", mutate(func(p WeavePage) WeavePage { p[6], p[7] = 0xFF, 0xFF; return p })},
		{"zero rows", mutate(func(p WeavePage) WeavePage { p[8], p[9], p[10], p[11] = 0, 0, 0, 0; return p })},
		{"huge rows", mutate(func(p WeavePage) WeavePage { p[8], p[9], p[10], p[11] = 0xFF, 0xFF, 0xFF, 0xFF; return p })},
		{"wrong plane words", mutate(func(p WeavePage) WeavePage { p[12]++; return p })},
		{"truncated planes", base[:len(base)-8]},
		{"trailing garbage", append(append(WeavePage(nil), base...), 0)},
		{"zero scale", mutate(func(p WeavePage) WeavePage {
			// Column 0's Scale field is the second float of the first range.
			for i := 0; i < 4; i++ {
				p[WeaveHeaderSize+4+i] = 0
			}
			return p
		})},
	}
	for _, c := range cases {
		err := c.page.Validate()
		if !errors.Is(err, ErrWeaveCorrupt) {
			t.Errorf("%s: Validate = %v, want ErrWeaveCorrupt", c.name, err)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("pristine page must validate: %v", err)
	}
}

func TestBuildWeavePageRejects(t *testing.T) {
	ranges := []WeaveRange{gridRange}
	rows := [][]float32{{0.5}}
	labels := []float32{1}
	cases := []struct {
		name string
		fn   func() error
	}{
		{"no columns", func() error { _, err := BuildWeavePage(nil, rows, labels); return err }},
		{"no rows", func() error { _, err := BuildWeavePage(ranges, nil, nil); return err }},
		{"label mismatch", func() error { _, err := BuildWeavePage(ranges, rows, nil); return err }},
		{"ragged row", func() error { _, err := BuildWeavePage(ranges, [][]float32{{1, 2}}, labels); return err }},
		{"bad range", func() error {
			_, err := BuildWeavePage([]WeaveRange{{Offset: 0, Scale: 0}}, rows, labels)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.fn(); !errors.Is(err, ErrWeaveUnsupported) {
			t.Errorf("%s: err = %v, want ErrWeaveUnsupported", c.name, err)
		}
	}
}

func TestWeavePageSizeIdentities(t *testing.T) {
	for _, g := range []struct{ ncols, nrows int }{{1, 1}, {1, 64}, {2, 65}, {7, 1000}, {16, 64 * 3}} {
		size := WeavePageSize(g.ncols, g.nrows)
		split := WeaveFixedPageBytes(g.ncols, g.nrows) + WeaveMaxBits*WeaveBitPageBytes(g.ncols, g.nrows)
		if int64(size) != split {
			t.Errorf("(%d,%d): WeavePageSize %d != fixed+32×bit %d", g.ncols, g.nrows, size, split)
		}
	}
	for _, pageSize := range []int{1 << 12, 1 << 15, 1 << 20} {
		for _, ncols := range []int{1, 3, 10, 50} {
			rows := WeavePageRows(pageSize, ncols)
			if rows < 1 {
				t.Fatalf("WeavePageRows(%d,%d) = %d", pageSize, ncols, rows)
			}
			if rows > 1 && WeavePageSize(ncols, rows) > pageSize {
				t.Errorf("WeavePageRows(%d,%d) = %d overflows: page is %d bytes",
					pageSize, ncols, rows, WeavePageSize(ncols, rows))
			}
			if next := WeavePageSize(ncols, rows+1); next <= pageSize {
				t.Errorf("WeavePageRows(%d,%d) = %d not maximal: %d rows still fit (%d bytes)",
					pageSize, ncols, rows, rows+1, next)
			}
		}
	}
}

func TestCheckWeaveSchema(t *testing.T) {
	if err := CheckWeaveSchema(NumericSchema(4)); err != nil {
		t.Fatalf("NumericSchema: %v", err)
	}
	if err := CheckWeaveSchema(RatingSchema()); !errors.Is(err, ErrWeaveUnsupported) {
		t.Errorf("RatingSchema (int4 columns): err = %v, want ErrWeaveUnsupported", err)
	}
	if err := CheckWeaveSchema(NewSchema(Column{Name: "label", Type: TFloat32})); !errors.Is(err, ErrWeaveUnsupported) {
		t.Errorf("single column: err = %v, want ErrWeaveUnsupported", err)
	}
	if err := CheckWeaveSchema(NewSchema(
		Column{Name: "f0", Type: TFloat64},
		Column{Name: "label", Type: TFloat32},
	)); !errors.Is(err, ErrWeaveUnsupported) {
		t.Errorf("float8 feature: err = %v, want ErrWeaveUnsupported", err)
	}
}

func TestWeaveRanges(t *testing.T) {
	feats := [][]float32{{-2, 5, 3}, {4, 5, 1}, {0, 5, 2}}
	ranges := WeaveRanges(feats, 3)
	if ranges[0].Offset != -2 || ranges[0].Scale <= 6 {
		t.Errorf("col 0 range = %+v, want offset -2, scale just above 6", ranges[0])
	}
	// The widened scale keeps the maximum strictly inside [0,1): its code
	// stays below saturation so max round-trips like any interior point.
	if q := WeaveQuantize(4, ranges[0]); q == math.MaxUint32 {
		t.Error("column max saturated; Scale widening failed")
	}
	if ranges[1] != (WeaveRange{Offset: 5, Scale: 1}) {
		t.Errorf("degenerate col 1 range = %+v, want {5 1}", ranges[1])
	}
}

// TestBuildWeaveRelation weaves a whole table the way the weave stage
// does: ranges over every row, then one BuildWeavePage per WeavePageRows
// rows. The pages validate and hold every row's label, in order.
func TestBuildWeaveRelation(t *testing.T) {
	const nfeat, ntup = 3, 1200 // an 8K weave page holds ~500 3-feature rows
	rng := rand.New(rand.NewSource(3))
	feats := make([][]float32, ntup)
	labels := make([]float32, ntup)
	for i := range feats {
		feats[i] = make([]float32, nfeat)
		for c := range feats[i] {
			feats[i][c] = gridVal(rng.Uint32())
		}
		labels[i] = float32(int(rng.Int31n(2))*2 - 1)
	}
	ranges := WeaveRanges(feats, nfeat)
	pageRows := WeavePageRows(PageSize8K, nfeat)
	rows, pages := 0, 0
	for at := 0; at < ntup; at += pageRows {
		end := min(at+pageRows, ntup)
		p, err := BuildWeavePage(ranges, feats[at:end], labels[at:end])
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if p.NumCols() != nfeat {
			t.Fatalf("page %d: %d cols", pages, p.NumCols())
		}
		for r := 0; r < p.NumRows(); r++ {
			if got := p.Label(r); got != labels[rows+r] {
				t.Fatalf("page %d row %d label %v, want %v", pages, r, got, labels[rows+r])
			}
		}
		rows += p.NumRows()
		pages++
	}
	if rows != ntup {
		t.Fatalf("pages hold %d rows, the table has %d", rows, ntup)
	}
	if pages < 2 {
		t.Fatalf("expected multiple pages for %d tuples on 8K budget, got %d", ntup, pages)
	}
}
