package weaving

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dana/internal/storage"
)

var gridRange = storage.WeaveRange{Offset: -1, Scale: 2}

// gridVal lands on the 2⁻²³ grid in [-1,1): lossless under gridRange.
func gridVal(n uint32) float32 {
	return float32(n%(1<<24))*float32(1.0/(1<<23)) - 1
}

func buildPage(t *testing.T, ncols, nrows int, seed int64, grid bool) (storage.WeavePage, [][]float32, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ranges := make([]storage.WeaveRange, ncols)
	feats := make([][]float32, nrows)
	labels := make([]float32, nrows)
	for c := range ranges {
		ranges[c] = gridRange
	}
	for r := range feats {
		row := make([]float32, ncols)
		for c := range row {
			if grid {
				row[c] = gridVal(rng.Uint32())
			} else {
				row[c] = 2*rng.Float32() - 1
			}
		}
		feats[r] = row
		labels[r] = float32(rng.NormFloat64())
	}
	p, err := storage.BuildWeavePage(ranges, feats, labels)
	if err != nil {
		t.Fatalf("BuildWeavePage: %v", err)
	}
	return p, feats, labels
}

func TestNewExtractorBounds(t *testing.T) {
	for _, bits := range []int{-1, 0, 33, 100} {
		if _, err := NewExtractor(bits); err == nil {
			t.Errorf("NewExtractor(%d) accepted", bits)
		}
	}
	if e, err := NewExtractor(32); err != nil {
		t.Fatalf("NewExtractor(32) = %v, %v", e, err)
	}
}

func TestDecodeFullWidthBitExact(t *testing.T) {
	const ncols, nrows = 4, 200
	p, feats, labels := buildPage(t, ncols, nrows, 1, true)
	e, _ := NewExtractor(storage.WeaveMaxBits)
	rows, err := e.DecodeRows(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != nrows {
		t.Fatalf("decoded %d rows, want %d", len(rows), nrows)
	}
	for r, row := range rows {
		if len(row) != ncols+1 {
			t.Fatalf("row %d has %d values", r, len(row))
		}
		for c := 0; c < ncols; c++ {
			if row[c] != feats[r][c] {
				t.Fatalf("row %d col %d: decoded %v, wove %v (grid data must be bit-exact at k=32)",
					r, c, row[c], feats[r][c])
			}
		}
		if row[ncols] != labels[r] {
			t.Fatalf("row %d label: decoded %v, wove %v", r, row[ncols], labels[r])
		}
	}
}

func TestDecodeMatchesScalarDequantize(t *testing.T) {
	// The word-parallel gather must agree exactly with the scalar
	// quantize→truncate→dequantize pipeline at every precision — this
	// pins the decode contract independent of error bounds.
	const ncols, nrows = 3, 190 // partial final plane word
	p, feats, labels := buildPage(t, ncols, nrows, 2, false)
	for _, bits := range []int{1, 2, 3, 7, 8, 15, 16, 27, 31, 32} {
		e, _ := NewExtractor(bits)
		rows, err := e.DecodeRows(p)
		if err != nil {
			t.Fatal(err)
		}
		for r, row := range rows {
			for c := 0; c < ncols; c++ {
				q := storage.WeaveQuantize(feats[r][c], gridRange)
				want := storage.WeaveDequantize(q, bits, gridRange)
				if row[c] != want {
					t.Fatalf("bits=%d row=%d col=%d: decoded %v, scalar pipeline %v", bits, r, c, row[c], want)
				}
			}
			if row[ncols] != labels[r] {
				t.Fatalf("bits=%d row=%d: label %v, want %v", bits, r, row[ncols], labels[r])
			}
		}
	}
}

func TestDecodeBoundedError(t *testing.T) {
	const ncols, nrows = 2, 100
	p, feats, _ := buildPage(t, ncols, nrows, 3, false)
	for _, bits := range []int{4, 8, 16, 24} {
		e, _ := NewExtractor(bits)
		rows, err := e.DecodeRows(p)
		if err != nil {
			t.Fatal(err)
		}
		bound := float64(gridRange.Scale)*(math.Pow(2, -float64(bits))+math.Pow(2, -31)) + 1e-5
		for r, row := range rows {
			for c := 0; c < ncols; c++ {
				if diff := math.Abs(float64(row[c]) - float64(feats[r][c])); diff > bound {
					t.Fatalf("bits=%d row=%d col=%d: |err| %g > bound %g", bits, r, c, diff, bound)
				}
			}
		}
	}
}

func TestDecodePageRejectsCorrupt(t *testing.T) {
	p, _, _ := buildPage(t, 2, 70, 4, true)
	e, _ := NewExtractor(8)
	bad := append(storage.WeavePage(nil), p...)
	bad[0] ^= 0xFF
	if _, err := e.DecodeRows(bad); !errors.Is(err, storage.ErrWeaveCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrWeaveCorrupt", err)
	}
	if _, err := e.DecodeRows(p[:len(p)-1]); !errors.Is(err, storage.ErrWeaveCorrupt) {
		t.Fatalf("truncated planes: err = %v, want ErrWeaveCorrupt", err)
	}
}

func TestDecodeReusesScratchAcrossPages(t *testing.T) {
	// A second, smaller page must not see stale codes from the first:
	// the scratch is never cleared, every decode writes all it exposes.
	big, _, _ := buildPage(t, 3, 150, 6, true)
	small, feats, _ := buildPage(t, 2, 40, 7, true)
	e, _ := NewExtractor(storage.WeaveMaxBits)
	if _, err := e.DecodeRows(big); err != nil {
		t.Fatal(err)
	}
	rows, err := e.DecodeRows(small)
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range rows {
		for c := 0; c < 2; c++ {
			if row[c] != feats[r][c] {
				t.Fatalf("row %d col %d: %v, want %v (stale scratch?)", r, c, row[c], feats[r][c])
			}
		}
	}
}

func TestTrailingZeros64(t *testing.T) {
	if got := trailingZeros64(0); got != 64 {
		t.Fatalf("trailingZeros64(0) = %d", got)
	}
	for i := 0; i < 64; i++ {
		if got := trailingZeros64(uint64(1) << uint(i)); got != i {
			t.Fatalf("trailingZeros64(1<<%d) = %d", i, got)
		}
		if got := trailingZeros64(^uint64(0) << uint(i)); got != i {
			t.Fatalf("trailingZeros64(ones<<%d) = %d", i, got)
		}
	}
}

func TestPageDecodeCycles(t *testing.T) {
	if got := PageDecodeCycles(3, 130, 8); got != int64(8*3*3+130) {
		t.Fatalf("PageDecodeCycles(3,130,8) = %d", got)
	}
	if PageDecodeCycles(0, 10, 8) != 0 || PageDecodeCycles(3, 0, 8) != 0 {
		t.Fatal("degenerate geometry must price to 0")
	}
	// Clamping: bits outside [1,32] price as the nearest bound.
	if PageDecodeCycles(3, 130, 0) != PageDecodeCycles(3, 130, 1) ||
		PageDecodeCycles(3, 130, 99) != PageDecodeCycles(3, 130, 32) {
		t.Fatal("bits clamping broken")
	}
	// Monotone in bits: more planes, more cycles.
	prev := int64(0)
	for bits := 1; bits <= 32; bits++ {
		cur := PageDecodeCycles(5, 1000, bits)
		if cur <= prev {
			t.Fatalf("PageDecodeCycles not increasing at bits=%d: %d <= %d", bits, cur, prev)
		}
		prev = cur
	}
}

func TestRelationGeometryExact(t *testing.T) {
	const tuples, nfeat, pageSize = 1200, 3, 8 * 1024
	g := RelationGeometry(tuples, nfeat, pageSize)
	if g.Pages < 2 {
		t.Fatalf("geometry = %+v, want multiple pages", g)
	}
	// Cross-check against the real builder, paged the way the weave stage
	// pages: page count and exact bytes.
	rng := rand.New(rand.NewSource(8))
	feats, labels := make([][]float32, tuples), make([]float32, tuples)
	for i := range feats {
		feats[i] = make([]float32, nfeat)
		for c := range feats[i] {
			feats[i][c] = rng.Float32()
		}
		labels[i] = rng.Float32()
	}
	ranges := storage.WeaveRanges(feats, nfeat)
	var pages []storage.WeavePage
	for at := 0; at < tuples; at += g.PageRows {
		end := min(at+g.PageRows, tuples)
		p, err := storage.BuildWeavePage(ranges, feats[at:end], labels[at:end])
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	if len(pages) != g.Pages {
		t.Fatalf("builder made %d pages, geometry says %d", len(pages), g.Pages)
	}
	var fixed, bit, total int64
	for _, p := range pages {
		fixed += storage.WeaveFixedPageBytes(p.NumCols(), p.NumRows())
		bit += storage.WeaveBitPageBytes(p.NumCols(), p.NumRows())
		total += int64(len(p))
	}
	if fixed != g.FixedBytes || bit != g.BitBytes {
		t.Fatalf("geometry bytes (%d,%d) != built pages (%d,%d)", g.FixedBytes, g.BitBytes, fixed, bit)
	}
	if g.EffectiveBytes(storage.WeaveMaxBits) != total {
		t.Fatalf("EffectiveBytes(32) = %d, pages total %d", g.EffectiveBytes(32), total)
	}
	// One more bit costs exactly BitBytes, at every k.
	for bits := 2; bits <= storage.WeaveMaxBits; bits++ {
		if d := g.EffectiveBytes(bits) - g.EffectiveBytes(bits-1); d != g.BitBytes {
			t.Fatalf("EffectiveBytes(%d)-EffectiveBytes(%d) = %d, want %d", bits, bits-1, d, g.BitBytes)
		}
	}
	if RelationGeometry(0, nfeat, pageSize) != (Geometry{}) {
		t.Fatal("empty relation must have zero geometry")
	}
}

// BenchmarkDecodePage decodes one page per op: 8 features × 512 rows at
// the edge precisions and 8, and the page shape of the bench workload
// weave_k8 — 54 features × 128 rows at k = 8.
func BenchmarkDecodePage(b *testing.B) {
	cases := []struct {
		name               string
		ncols, nrows, bits int
	}{
		{"bits=1", 8, 512, 1},
		{"bits=8", 8, 512, 8},
		{"bits=32", 8, 512, 32},
		{"weave_k8", 54, 128, 8},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ranges := make([]storage.WeaveRange, tc.ncols)
			feats := make([][]float32, tc.nrows)
			labels := make([]float32, tc.nrows)
			rng := rand.New(rand.NewSource(1))
			for c := range ranges {
				ranges[c] = gridRange
			}
			for r := range feats {
				row := make([]float32, len(ranges))
				for c := range row {
					row[c] = 2*rng.Float32() - 1
				}
				feats[r] = row
				labels[r] = 1
			}
			p, err := storage.BuildWeavePage(ranges, feats, labels)
			if err != nil {
				b.Fatal(err)
			}
			e, _ := NewExtractor(tc.bits)
			b.SetBytes(storage.WeaveFixedPageBytes(tc.ncols, tc.nrows) + int64(tc.bits)*storage.WeaveBitPageBytes(tc.ncols, tc.nrows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.DecodeRows(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
