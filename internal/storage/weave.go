package storage

// BitWeaving-style vertical page layout (MLWeaving, PAPERS.md): the
// repo's second storage format, holding a dense numeric relation as
// per-feature bit planes instead of row-major heap tuples. Each feature
// value is affinely normalized by its column's (Offset, Scale) range,
// quantized to an unsigned 32-bit fixed-point code, and the codes'
// bits are scattered across 32 planes of packed 64-bit words. Planes
// are ordered bit-level-major — all columns' MSB planes first, then the
// next bit level, and so on — so a reader that wants only the top k
// bits of every feature reads one contiguous prefix of the plane area:
// bytes streamed shrink linearly with k, the MLWeaving bandwidth
// tradeoff. Labels are not quantized; they ride along as a raw float32
// array (GLM labels are ±1 or small reals and must stay exact).
//
// The layout is deliberately restrictive: float32 feature columns plus
// a float32 label, NOT NULL, fixed width. Null bitmaps, varlena tails,
// and non-float32 schemas are rejected with the typed ErrWeaveUnsupported
// — the heap layout remains the general format.
//
//	WeavePage layout (little-endian):
//	  [ 0, 4)   magic    "WEAV"
//	  [ 4, 6)   version  (1)
//	  [ 6, 8)   ncols    feature columns (label excluded)
//	  [ 8,12)   nrows    tuples on the page
//	  [12,16)   planeWords  64-bit words per plane = ceil(nrows/64)
//	  [16,24)   reserved (zero)
//	  then ncols × {offset float32, scale float32}   column ranges
//	  then nrows × float32                           labels
//	  then 32 × ncols × planeWords × uint64          bit planes,
//	       level-major (level 0 = MSB), column-minor; word w bit r
//	       (LSB-first) holds row w*64+r's bit at that level.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Weave layout constants.
const (
	// WeaveMagic marks a weave page ("WEAV" read as little-endian bytes).
	WeaveMagic = 0x56414557
	// WeaveVersion is the current layout version.
	WeaveVersion = 1
	// WeaveHeaderSize is the fixed page header size in bytes.
	WeaveHeaderSize = 24
	// WeaveRangeSize is the per-column range record size (two float32s).
	WeaveRangeSize = 8
	// WeaveMaxBits is the full quantized code width: decoding at
	// WeaveMaxBits reads every plane.
	WeaveMaxBits = 32
	// WeaveMaxCols and WeaveMaxRows bound one page's geometry (Validate
	// rejects anything larger before arithmetic on the header fields can
	// overflow downstream size computations).
	WeaveMaxCols = 4096
	WeaveMaxRows = 1 << 22
)

// Typed weave errors.
var (
	// ErrWeaveUnsupported reports data the vertical layout does not
	// accept: non-float32 columns, tuples with null bitmaps, or trailing
	// varlena data. The heap layout remains the general format.
	ErrWeaveUnsupported = errors.New("storage: unsupported by weave layout")
	// ErrWeaveCorrupt reports a weave page violating its structural
	// invariants.
	ErrWeaveCorrupt = errors.New("storage: corrupt weave page")
)

// WeaveRange is one feature column's affine quantization domain:
// values are normalized as (v - Offset) / Scale before quantization, so
// the representable domain is [Offset, Offset+Scale).
type WeaveRange struct {
	Offset float32
	Scale  float32
}

// valid reports whether the range can quantize anything.
func (r WeaveRange) valid() bool {
	return r.Scale > 0 &&
		!math.IsInf(float64(r.Scale), 0) && !math.IsNaN(float64(r.Scale)) &&
		!math.IsInf(float64(r.Offset), 0) && !math.IsNaN(float64(r.Offset))
}

// WeaveQuantize maps v into the range's unsigned Q0.32 fixed-point
// code: round((v-Offset)/Scale × 2³²), clamped to [0, 2³²-1]. The
// arithmetic runs in float64, so any float32 v whose normalized value
// is an exact multiple of 2⁻²⁴ quantizes without rounding error — the
// grid the weave-clean differential scenarios are drawn from.
func WeaveQuantize(v float32, r WeaveRange) uint32 {
	x := (float64(v) - float64(r.Offset)) / float64(r.Scale)
	q := math.Round(x * (1 << 32))
	if q <= 0 || math.IsNaN(q) {
		return 0
	}
	if q >= (1<<32)-1 {
		return math.MaxUint32
	}
	return uint32(q)
}

// WeaveDequantize reconstructs a value from the top bits of its code at
// the given precision: the code truncated to bits planes, scaled back
// into the range's domain. bits = WeaveMaxBits inverts WeaveQuantize
// exactly on the 2⁻²⁴ grid (the code and the scaled product both fit a
// float64 mantissa, and the result fits float32's).
func WeaveDequantize(q uint32, bits int, r WeaveRange) float32 {
	q >>= uint(WeaveMaxBits - bits)
	x := float64(q) / float64(uint64(1)<<uint(bits))
	// The product is rounded on its own: a fused multiply-add would make
	// the value depend on GOARCH.
	return float32(float64(r.Offset) + float64(float64(r.Scale)*x))
}

// weavePlaneWords returns the 64-bit words per plane for nrows rows.
func weavePlaneWords(nrows int) int { return (nrows + 63) / 64 }

// WeavePageSize returns the byte size of a weave page holding nrows
// rows of ncols feature columns.
func WeavePageSize(ncols, nrows int) int {
	return WeaveHeaderSize + ncols*WeaveRangeSize + 4*nrows +
		WeaveMaxBits*ncols*weavePlaneWords(nrows)*8
}

// WeavePageRows returns the largest row count whose weave page fits in
// pageSize bytes (at least 1; weave pages are not forced to heap-page
// sizes, but the cost model sizes them against the same budget).
func WeavePageRows(pageSize, ncols int) int {
	if ncols < 1 {
		ncols = 1
	}
	// Amortized bytes/row: 4 (label) + 32 planes × ncols bits = 4+4·ncols,
	// plus per-64-row word rounding. Solve, then walk down to fit.
	rows := (pageSize - WeaveHeaderSize - ncols*WeaveRangeSize) / (4 + 4*ncols)
	for rows > 1 && WeavePageSize(ncols, rows) > pageSize {
		rows--
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// WeaveFixedPageBytes returns the precision-independent bytes of one
// weave page: header, column ranges, and the label array. These stream
// at every precision.
func WeaveFixedPageBytes(ncols, nrows int) int64 {
	return int64(WeaveHeaderSize) + int64(ncols)*WeaveRangeSize + 4*int64(nrows)
}

// WeaveBitPageBytes returns the bytes of ONE bit level of one weave
// page (all columns' planes at that level). A k-bit read streams the
// fixed bytes plus k × this.
func WeaveBitPageBytes(ncols, nrows int) int64 {
	return int64(ncols) * int64(weavePlaneWords(nrows)) * 8
}

// WeavePage is a raw vertical page.
type WeavePage []byte

// Header accessors. Like Page, truncated buffers read as zero so every
// accessor is total; Validate is the authority on well-formedness.
func (p WeavePage) magicOK() bool {
	return len(p) >= 4 && binary.LittleEndian.Uint32(p) == WeaveMagic
}

// Version returns the layout version recorded in the header.
func (p WeavePage) Version() int {
	if len(p) < 6 {
		return 0
	}
	return int(binary.LittleEndian.Uint16(p[4:]))
}

// NumCols returns the feature-column count (label excluded).
func (p WeavePage) NumCols() int {
	if len(p) < 8 {
		return 0
	}
	return int(binary.LittleEndian.Uint16(p[6:]))
}

// NumRows returns the row count.
func (p WeavePage) NumRows() int {
	if len(p) < 12 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(p[8:]))
}

// PlaneWords returns the recorded 64-bit words per plane.
func (p WeavePage) PlaneWords() int {
	if len(p) < 16 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(p[12:]))
}

// rangeOff/labelOff/planeOff are the area start offsets (valid pages).
func (p WeavePage) rangeOff() int { return WeaveHeaderSize }
func (p WeavePage) labelOff() int { return WeaveHeaderSize + p.NumCols()*WeaveRangeSize }
func (p WeavePage) planeOff() int { return p.labelOff() + 4*p.NumRows() }

// Range returns column c's quantization range.
func (p WeavePage) Range(c int) WeaveRange {
	off := p.rangeOff() + c*WeaveRangeSize
	if c < 0 || c >= p.NumCols() || len(p) < off+WeaveRangeSize {
		return WeaveRange{}
	}
	return WeaveRange{
		Offset: math.Float32frombits(binary.LittleEndian.Uint32(p[off:])),
		Scale:  math.Float32frombits(binary.LittleEndian.Uint32(p[off+4:])),
	}
}

// Label returns row r's label.
func (p WeavePage) Label(r int) float32 {
	off := p.labelOff() + 4*r
	if r < 0 || r >= p.NumRows() || len(p) < off+4 {
		return 0
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(p[off:]))
}

// PlaneOffset returns the byte offset of the plane for (bit level,
// column) — level 0 is the MSB plane. Callers must have validated the
// page; out-of-range arguments return -1.
func (p WeavePage) PlaneOffset(level, col int) int {
	ncols := p.NumCols()
	if level < 0 || level >= WeaveMaxBits || col < 0 || col >= ncols {
		return -1
	}
	return p.planeOff() + (level*ncols+col)*p.PlaneWords()*8
}

// Validate checks the weave page's structural invariants: magic,
// version, bounded geometry, the plane-word/row relation, and the exact
// size equation. A page that validates can be decoded without any
// further bounds checks.
func (p WeavePage) Validate() error {
	if len(p) < WeaveHeaderSize {
		return fmt.Errorf("%w: %d bytes, header needs %d", ErrWeaveCorrupt, len(p), WeaveHeaderSize)
	}
	if !p.magicOK() {
		return fmt.Errorf("%w: bad magic %#x", ErrWeaveCorrupt, binary.LittleEndian.Uint32(p))
	}
	if v := p.Version(); v != WeaveVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrWeaveCorrupt, v, WeaveVersion)
	}
	ncols, nrows := p.NumCols(), p.NumRows()
	if ncols < 1 || ncols > WeaveMaxCols {
		return fmt.Errorf("%w: %d feature columns (max %d)", ErrWeaveCorrupt, ncols, WeaveMaxCols)
	}
	if nrows < 1 || nrows > WeaveMaxRows {
		return fmt.Errorf("%w: %d rows (max %d)", ErrWeaveCorrupt, nrows, WeaveMaxRows)
	}
	if pw := p.PlaneWords(); pw != weavePlaneWords(nrows) {
		return fmt.Errorf("%w: %d plane words for %d rows, want %d", ErrWeaveCorrupt, pw, nrows, weavePlaneWords(nrows))
	}
	if want := WeavePageSize(ncols, nrows); len(p) != want {
		return fmt.Errorf("%w: %d bytes, geometry needs %d", ErrWeaveCorrupt, len(p), want)
	}
	for c := 0; c < ncols; c++ {
		if r := p.Range(c); !r.valid() {
			return fmt.Errorf("%w: column %d range {off=%v scale=%v} invalid", ErrWeaveCorrupt, c, r.Offset, r.Scale)
		}
	}
	return nil
}

// BuildWeavePage weaves rows of feature values plus labels into a
// freshly allocated vertical page. feats holds nrows rows of exactly
// len(ranges) feature values; values outside a column's range clamp to
// its domain edges (quantization saturates).
func BuildWeavePage(ranges []WeaveRange, feats [][]float32, labels []float32) (WeavePage, error) {
	return BuildWeavePageInto(nil, ranges, feats, labels)
}

// BuildWeavePageInto is BuildWeavePage into the caller's buffer: when
// buf has the capacity the page is built in it (whatever it held — every
// byte of the page is written) and the result aliases it; an undersized
// buf is left alone and a fresh page returned.
func BuildWeavePageInto(buf []byte, ranges []WeaveRange, feats [][]float32, labels []float32) (WeavePage, error) {
	ncols, nrows := len(ranges), len(feats)
	if ncols < 1 || ncols > WeaveMaxCols {
		return nil, fmt.Errorf("%w: %d feature columns", ErrWeaveUnsupported, ncols)
	}
	if nrows < 1 || nrows > WeaveMaxRows {
		return nil, fmt.Errorf("%w: %d rows", ErrWeaveUnsupported, nrows)
	}
	if len(labels) != nrows {
		return nil, fmt.Errorf("%w: %d labels for %d rows", ErrWeaveUnsupported, len(labels), nrows)
	}
	for c, r := range ranges {
		if !r.valid() {
			return nil, fmt.Errorf("%w: column %d range {off=%v scale=%v}", ErrWeaveUnsupported, c, r.Offset, r.Scale)
		}
	}
	for row, vals := range feats {
		if len(vals) != ncols {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d", ErrWeaveUnsupported, row, len(vals), ncols)
		}
	}
	p := weaveBuffer(buf, WeavePageSize(ncols, nrows))
	weavePlanes(p, weaveFixed(p, ranges, labels), ranges, feats)
	return p, nil
}

// weaveBuffer cuts buf to a page of size bytes, or makes the page when
// buf cannot hold it.
func weaveBuffer(buf []byte, size int) WeavePage {
	if cap(buf) < size {
		return make([]byte, size)
	}
	return buf[:size]
}

// weaveFixed writes the page's precision-independent bytes — header,
// column ranges, labels — and returns the offset the plane area starts
// at. p has exactly the page's size.
//
//dana:hotpath
func weaveFixed(p WeavePage, ranges []WeaveRange, labels []float32) int {
	binary.LittleEndian.PutUint32(p, WeaveMagic)
	binary.LittleEndian.PutUint16(p[4:], WeaveVersion)
	binary.LittleEndian.PutUint16(p[6:], uint16(len(ranges)))
	binary.LittleEndian.PutUint32(p[8:], uint32(len(labels)))
	binary.LittleEndian.PutUint32(p[12:], uint32(weavePlaneWords(len(labels))))
	binary.LittleEndian.PutUint64(p[16:], 0) // reserved
	off := WeaveHeaderSize
	for _, r := range ranges {
		binary.LittleEndian.PutUint32(p[off:], math.Float32bits(r.Offset))
		binary.LittleEndian.PutUint32(p[off+4:], math.Float32bits(r.Scale))
		off += WeaveRangeSize
	}
	for _, lb := range labels {
		binary.LittleEndian.PutUint32(p[off:], math.Float32bits(lb))
		off += 4
	}
	return off
}

// weaveChunkCols is how many columns one pass over a word's rows
// quantizes: 16 float32 values, one cache line of each row, so the row
// reads stay sequential while the code scratch stays on the stack.
const weaveChunkCols = 16

// weaveCodes is the builder's code scratch: a chunk of columns by one
// plane word's 64 rows, column-major.
type weaveCodes [weaveChunkCols][64]uint32

// weavePlanes writes the plane area, a (column, 64-row word) block at a
// time: the word's rows are quantized row-major, a chunk of columns per
// pass, then each column's 64 codes are transposed by the block kernel
// and its 32 plane words stored, each exactly once. A partial last word
// is the same code with the missing rows' codes zero. The inputs are
// already checked.
//
//dana:hotpath
func weavePlanes(p WeavePage, planeBase int, ranges []WeaveRange, feats [][]float32) {
	ncols, nrows := len(ranges), len(feats)
	pw := weavePlaneWords(nrows)
	var codes weaveCodes
	var planes [32]uint64
	for w := 0; w < pw; w++ {
		rows := feats[w*64 : min(w*64+64, nrows)]
		if len(rows) < 64 {
			codes = weaveCodes{}
		}
		for c0 := 0; c0 < ncols; c0 += weaveChunkCols {
			chunk := ranges[c0:min(c0+weaveChunkCols, ncols)]
			quantizeChunk(&codes, rows, chunk, c0)
			for i := range chunk {
				WeaveBlock(&codes[i], &planes)
				storePlanes(p, planeBase+((c0+i)*pw+w)*8, ncols*pw*8, &planes)
			}
		}
	}
}

// quantizeChunk fills codes[i][r] with row r's code in column c0+i.
//
//dana:hotpath
func quantizeChunk(codes *weaveCodes, rows [][]float32, chunk []WeaveRange, c0 int) {
	for r, vals := range rows {
		vals = vals[c0 : c0+len(chunk)]
		for i, rg := range chunk {
			codes[i][r&63] = WeaveQuantize(vals[i], rg)
		}
	}
}

// storePlanes writes a block's 32 plane words, level 0 at byte `at` and
// each next level levelStride bytes on.
//
//dana:hotpath
func storePlanes(p WeavePage, at, levelStride int, planes *[32]uint64) {
	for _, word := range planes {
		binary.LittleEndian.PutUint64(p[at:], word)
		at += levelStride
	}
}

// CheckWeaveSchema reports whether a heap schema can be rewoven: all
// feature columns and the trailing label must be float32 (the Strider
// datapath width the quantizer normalizes from). Anything else fails
// with ErrWeaveUnsupported — including the int columns of the LRMF
// rating schema, whose row indices are meaningless to quantize.
func CheckWeaveSchema(s *Schema) error {
	if s == nil || s.NumCols() < 2 {
		return fmt.Errorf("%w: weave layout needs at least one feature column and a label", ErrWeaveUnsupported)
	}
	for _, c := range s.Cols {
		if c.Type != TFloat32 {
			return fmt.Errorf("%w: column %q is %v, weave layout takes float4 only", ErrWeaveUnsupported, c.Name, c.Type)
		}
	}
	return nil
}

// WeaveRanges computes per-column quantization ranges over a row set:
// Offset = column minimum, Scale = spread widened one ULP so the
// maximum stays inside [0,1) (degenerate columns get Scale 1). Rows
// shorter than ncols contribute the columns they have; NaN never
// compares, so it is skipped.
func WeaveRanges(feats [][]float32, ncols int) []WeaveRange {
	ranges := make([]WeaveRange, ncols)
	// One row-major pass, Offset standing in for the running minimum and
	// Scale for the running maximum.
	for c := range ranges {
		ranges[c] = WeaveRange{Offset: float32(math.Inf(1)), Scale: float32(math.Inf(-1))}
	}
	for _, row := range feats {
		if len(row) > ncols {
			row = row[:ncols]
		}
		for c, v := range row {
			if v < ranges[c].Offset {
				ranges[c].Offset = v
			}
			if v > ranges[c].Scale {
				ranges[c].Scale = v
			}
		}
	}
	for c, r := range ranges {
		lo, hi := r.Offset, r.Scale
		if lo > hi { // no rows
			lo, hi = 0, 0
		}
		scale := float32(1) // degenerate (constant) columns quantize to code 0
		if spread := hi - lo; spread > 0 && !math.IsInf(float64(spread), 0) {
			scale = math.Nextafter32(spread, float32(math.Inf(1)))
		}
		ranges[c] = WeaveRange{Offset: lo, Scale: scale}
	}
	return ranges
}
