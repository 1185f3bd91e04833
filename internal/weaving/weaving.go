// Package weaving is the any-precision extraction engine over the
// vertical (MLWeaving-style) page layout in internal/storage: the
// sibling of the Strider page walkers, but for bit-plane pages. An
// Extractor configured for k bits reads only the first k bit levels of
// a weave page — one contiguous prefix of the plane area — and decodes
// it into rows in one pass. A block, one feature's 64 rows at one plane
// word, is transposed in place until each row's truncated code sits in a
// lane of the plane words: 8-bit lanes for k ≤ 8, 16-bit for k ≤ 16,
// 32-bit above. Each lane is dequantized into the float32 datapath width
// and written straight into its row of the caller's rows, by an
// unrolled kernel for 8- and 32-bit lanes and one lane-at-a-time loop for
// 16-bit lanes, which no workload reads. Labels pass through untouched.
//
// The decode kernels are //dana:hotpath (allocation-free, enforced by
// danalint hotcall); the column-range scratch lives on the Extractor and
// is grown only in prepare. The cycle model mirrors the Strider one:
// PageDecodeCycles prices a page as one cycle per plane word touched
// plus one per row of assembly/dequantization, so modeled decode time —
// like modeled transfer — shrinks almost linearly with k.
//
// Rows routed through the layout and back (ReweaveRows, the Reweaver) are
// woven page by page and each page decoded at k bits, into a Woven.
// Whoever owns stable rows can lend a Slot to keep the Woven in: the rows
// are then woven and decoded once for as long as the slot lives, and
// every later reader with the same request takes the decoded rows as they
// are. The runtime lends a record-cache entry's slot from the extracting
// epoch that fills the entry on, so a cold Train weaves once and a warm
// one not at all.
package weaving

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"dana/internal/storage"
)

// Extractor decodes weave pages at a fixed precision. Not safe for
// concurrent use; the host executor gives each worker its own.
type Extractor struct {
	bits int
	// inv is 2^-w, the weight of the last bit of the w-bit lanes
	// storage.UnweaveLanes leaves a k-bit block's codes in. A lane's
	// levels past bits are zero, so lane × inv is the truncated code over
	// 2^bits exactly: multiplying by a power of two rounds nothing, so it
	// is storage.WeaveDequantize's division bit for bit.
	inv float64
	// offs and scales are the page's column ranges, decoded once per page
	// and widened to the float64 the dequantization runs in; scales are
	// premultiplied by inv, which is exact too.
	offs, scales []float64
}

// NewExtractor builds an extractor for k-bit reads (1..32).
func NewExtractor(bits int) (*Extractor, error) {
	if bits < 1 || bits > storage.WeaveMaxBits {
		return nil, fmt.Errorf("weaving: precision %d outside [1,%d]", bits, storage.WeaveMaxBits)
	}
	return &Extractor{bits: bits, inv: 1 / float64(uint64(1)<<uint(storage.WeaveLaneBits(bits)))}, nil
}

// prepare sizes the column-range scratch for pages of ncols features, so
// the decode loops never grow it.
func (e *Extractor) prepare(ncols int) {
	if cap(e.offs) < ncols {
		e.offs, e.scales = make([]float64, ncols), make([]float64, ncols)
	}
}

// DecodeRows validates p and decodes it at the extractor's precision
// into caller-owned rows of ncols+1 float32 values (features then
// label), cut from one slab per page.
func (e *Extractor) DecodeRows(p storage.WeavePage) ([][]float32, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ncols, nrows := p.NumCols(), p.NumRows()
	e.prepare(ncols)
	out := make([][]float32, nrows)
	e.decodeInto(p, make([]float32, nrows*(ncols+1)), out)
	return out, nil
}

// decodeInto decodes a validated page the scratch is prepared for into
// slab (nrows × (ncols+1) values) and points rows at its row slices, in
// one pass over (64-row plane word, column) blocks: the block's top
// `bits` plane words are loaded and unwoven in place into lanes
// (storage.UnweaveLanes), and each lane is dequantized straight into its
// row of that column — by the unrolled kernel of the lane width for a
// full word of 8- or 32-bit lanes, by one lane-at-a-time loop for a
// page's partial last word and for 16-bit lanes.
// An all-zero block — the common case for high-order planes of small
// values — skips the unweave and fills its rows with the zero code's
// value. Every value is written, so the slab need not be cleared.
//
//dana:hotpath
func (e *Extractor) decodeInto(p storage.WeavePage, slab []float32, rows [][]float32) {
	ncols, nrows, pw := p.NumCols(), p.NumRows(), p.PlaneWords()
	width, lane := ncols+1, storage.WeaveLaneBits(e.bits)
	for r := range rows {
		row := slab[r*width : (r+1)*width : (r+1)*width]
		row[ncols] = p.Label(r)
		rows[r] = row
	}
	e.offs, e.scales = e.offs[:ncols], e.scales[:ncols]
	for c := range e.offs {
		r := p.Range(c)
		e.offs[c], e.scales[c] = float64(r.Offset), float64(r.Scale)*e.inv
	}
	base, levelStride := p.PlaneOffset(0, 0), ncols*pw*8
	var planes [32]uint64
	for w := 0; w < pw; w++ {
		n := min(64, nrows-w*64)
		word := slab[w*64*width : (w*64+n)*width]
		for c, off := range e.offs {
			s, col := e.scales[c], word[c:]
			if loadPlanes(p, base+(c*pw+w)*8, levelStride, e.bits, &planes) == 0 {
				v := value(0, off, s)
				for i := 0; i < len(col); i += width {
					col[i] = v
				}
				continue
			}
			storage.UnweaveLanes(&planes, e.bits)
			switch {
			case n < 64 || lane == 16:
				lanesPartial(&planes, lane, col, n, width, off, s)
			case lane == 8:
				lanes8(&planes, col, width, off, s)
			default:
				lanes32(&planes, col, width, off, s)
			}
		}
	}
}

// value is one dequantized lane: off + s×lane, s the column's scale
// times inv, the product rounded on its own — a fused multiply-add would
// make the value depend on GOARCH.
func value(lane uint64, off, s float64) float32 {
	return float32(off + float64(s*float64(lane)))
}

// lanes8 writes a full block unwoven into 8-bit lanes down col, one row
// every width values: plane word i holds rows 7-i, 15-i, …, 63-i, one a
// byte.
//
//dana:hotpath
func lanes8(planes *[32]uint64, col []float32, width int, off, s float64) {
	for i, x := range planes[:8] {
		at := (7 - i) * width
		col[at] = value(x&0xFF, off, s)
		at += 8 * width
		col[at] = value(x>>8&0xFF, off, s)
		at += 8 * width
		col[at] = value(x>>16&0xFF, off, s)
		at += 8 * width
		col[at] = value(x>>24&0xFF, off, s)
		at += 8 * width
		col[at] = value(x>>32&0xFF, off, s)
		at += 8 * width
		col[at] = value(x>>40&0xFF, off, s)
		at += 8 * width
		col[at] = value(x>>48&0xFF, off, s)
		at += 8 * width
		col[at] = value(x>>56, off, s)
	}
}

// lanes32 is lanes8 for 32-bit lanes: plane word i holds rows 31-i and
// 63-i.
//
//dana:hotpath
func lanes32(planes *[32]uint64, col []float32, width int, off, s float64) {
	for i, x := range planes {
		at := (31 - i) * width
		col[at] = value(x&0xFFFFFFFF, off, s)
		col[at+32*width] = value(x>>32, off, s)
	}
}

// lanesPartial writes the first n rows of a block unwoven into lane-bit
// lanes, one lane at a time: row r's lane is where storage.UnweaveLanes
// documents it.
//
//dana:hotpath
func lanesPartial(planes *[32]uint64, lane int, col []float32, n, width int, off, s float64) {
	mask := uint64(1)<<uint(lane) - 1
	for r := 0; r < n; r++ {
		q := r & 31
		x := planes[(lane-1-q&(lane-1))&31] >> uint(r&32|q&^(lane-1))
		col[r*width] = value(x&mask, off, s)
	}
}

// loadPlanes reads a block's top `bits` plane words — level 0 at byte
// `at`, each next level levelStride bytes on — and returns their OR.
//
//dana:hotpath
func loadPlanes(p storage.WeavePage, at, levelStride, bits int, planes *[32]uint64) (union uint64) {
	for level := 0; level < bits; level++ {
		planes[level&31] = binary.LittleEndian.Uint64(p[at:])
		union |= planes[level&31]
		at += levelStride
	}
	return union
}

// DefaultReweaveRows is the page row budget ReweaveRows uses when the
// caller doesn't care. Paging never changes decoded values (ranges and
// quantization are per-value); it only shapes the byte geometry.
const DefaultReweaveRows = 1024

// ReweaveRows routes materialized rows (features then a trailing label)
// through the vertical layout and back at k-bit precision: quantize
// against ranges, weave into pages, decode the top k planes. It returns
// the rewoven rows plus the ranges used — nil ranges derive per-column
// min/max over all rows, which is delivery-order independent, so every
// legal stream form of the same epoch reweaves identically. This is the
// single reweaving semantics: the weave backend trains on its output
// and its conformance reference trains the golden float64 trainer on
// the same output. It is a one-shot Reweaver, so the rows are the
// caller's to keep.
func ReweaveRows(rows [][]float32, ranges []storage.WeaveRange, bits, pageRows int) ([][]float32, []storage.WeaveRange, error) {
	w, err := NewReweaver(bits, pageRows)
	if err != nil {
		return nil, nil, err
	}
	wv, err := w.Weave(rows, ranges, nil)
	switch {
	case err != nil:
		return nil, nil, err
	case wv == nil:
		return nil, ranges, nil
	}
	return wv.rows, wv.ranges, nil
}

// Woven is a row set as the any-precision path delivers it: every page
// built, validated and read at k bit levels, its rows decoded into one
// slab. A k-bit read touches only a page's k-level prefix — header,
// ranges, labels and the first k levels, the bytes
// Geometry.EffectiveBytes(k) counts — so the rows are what decoding those
// prefixes gives. Once a Slot holds it, a Woven is never written again.
type Woven struct {
	bits int
	// ranges quantized the rows; derived says they are also what deriving
	// from these rows gives, so the Woven serves a request that pins none.
	ranges  []storage.WeaveRange
	derived bool
	// rows are the decoded rows (features then label), cut from slab.
	rows [][]float32
	slab []float32
}

// Ranges returns the quantization ranges the rows were woven against.
func (wv *Woven) Ranges() []storage.WeaveRange { return wv.ranges }

// Rows returns the decoded rows. They are read-only: a Woven a Slot
// holds is shared by every reader of the slot.
func (wv *Woven) Rows() [][]float32 { return wv.rows }

// Bytes returns the size of the decoded rows: their values and views.
func (wv *Woven) Bytes() int {
	return len(wv.slab)*4 + len(wv.rows)*int(unsafe.Sizeof(wv.rows[0]))
}

// serves reports whether wv is what weaving its rows at bits against
// ranges (nil = derived) would build.
func (wv *Woven) serves(bits int, ranges []storage.WeaveRange) bool {
	if wv.bits != bits {
		return false
	}
	if ranges == nil {
		return wv.derived
	}
	return slices.Equal(wv.ranges, ranges)
}

// Slot is a place to keep the Woven of one stable row set: whoever owns
// the rows owns the slot, lends it with them, and drops it when they
// change, so what it holds never outlives the rows it was woven from. It
// holds one Woven — a different precision or different ranges replace it —
// and concurrent readers and builders are safe: a Woven is published
// complete or not at all. The zero Slot is empty.
type Slot struct {
	wv atomic.Pointer[Woven]
}

// Lookup returns the Woven the slot holds when it is what weaving the
// slot's rows at bits against ranges (nil = derived) would build, else
// nil. A hit costs no weave, no decode and no allocation.
func (s *Slot) Lookup(bits int, ranges []storage.WeaveRange) *Woven {
	if wv := s.wv.Load(); wv != nil && wv.serves(bits, ranges) {
		return wv
	}
	return nil
}

// Reweaver is ReweaveRows with its buffers kept: the extractor, the
// build scratch (one 32-level page and its feature views) and a Woven of
// its own for rows nobody lent a slot with are reused from call to call,
// so a steady stream of equally sized epochs allocates nothing. The rows
// a slotless call returns are valid until the next call.
type Reweaver struct {
	ex       *Extractor
	pageRows int
	page     []byte
	feats    [][]float32
	labels   []float32
	own      Woven
}

// NewReweaver builds a reweaver for k-bit reads through pages of
// pageRows rows (out of range = DefaultReweaveRows).
func NewReweaver(bits, pageRows int) (*Reweaver, error) {
	e, err := NewExtractor(bits)
	if err != nil {
		return nil, err
	}
	if pageRows <= 0 || pageRows > storage.WeaveMaxRows {
		pageRows = DefaultReweaveRows
	}
	return &Reweaver{ex: e, pageRows: pageRows}, nil
}

// Weave weaves rows at the reweaver's precision against ranges (nil =
// derived from rows), every page validated, and decodes them. With a
// slot lent the Woven is a new one, its rows in a slab of their own, and
// is published to the slot (a reader that finds it there with Lookup
// neither weaves nor decodes); with none it is the reweaver's own,
// rebuilt by the next call. No rows weave to nil.
func (w *Reweaver) Weave(rows [][]float32, ranges []storage.WeaveRange, slot *Slot) (*Woven, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	nfeat := len(rows[0]) - 1
	if nfeat < 1 {
		return nil, fmt.Errorf("%w: rows carry %d values, need features plus a label",
			storage.ErrWeaveUnsupported, len(rows[0]))
	}
	for i, r := range rows {
		if len(r) != nfeat+1 {
			return nil, fmt.Errorf("%w: ragged row %d (%d values, want %d)",
				storage.ErrWeaveUnsupported, i, len(r), nfeat+1)
		}
	}
	wv := &w.own
	if slot != nil {
		wv = new(Woven)
	}
	wv.derived = ranges == nil
	switch {
	case wv.derived:
		ranges = storage.WeaveRanges(rows, nfeat)
	case slot != nil:
		// What is published keeps its own copy of the caller's ranges. And
		// pinned ranges that are the rows' own serve a deriving request too:
		// a Train pins its first epoch's derived ranges for the later ones.
		ranges = slices.Clone(ranges)
		wv.derived = slices.Equal(ranges, storage.WeaveRanges(rows, nfeat))
	}
	if len(ranges) != nfeat {
		return nil, fmt.Errorf("%w: %d ranges for rows of %d features",
			storage.ErrWeaveUnsupported, len(ranges), nfeat)
	}
	if err := w.build(wv, rows, ranges); err != nil {
		return nil, err
	}
	if slot != nil {
		slot.wv.Store(wv)
	}
	return wv, nil
}

// build sizes wv's rows and the build scratch, then weaves and decodes
// rows page by page. A new Woven's slab is allocated here; the
// reweaver's own is reused when it is large enough.
func (w *Reweaver) build(wv *Woven, rows [][]float32, ranges []storage.WeaveRange) error {
	nfeat, nrows := len(ranges), len(rows)
	n := nrows * (nfeat + 1)
	if cap(wv.slab) < n {
		wv.slab = make([]float32, n)
	}
	if cap(wv.rows) < nrows {
		wv.rows = make([][]float32, nrows)
	}
	wv.bits, wv.ranges = w.ex.bits, ranges
	wv.slab, wv.rows = wv.slab[:n], wv.rows[:nrows]
	pageRows := min(w.pageRows, nrows)
	if full := storage.WeavePageSize(nfeat, pageRows); cap(w.page) < full {
		w.page = make([]byte, full)
	}
	if cap(w.feats) < pageRows {
		w.feats, w.labels = make([][]float32, pageRows), make([]float32, pageRows)
	}
	w.ex.prepare(nfeat)
	return w.weavePages(wv, rows, pageRows)
}

// weavePages is build's loop: split a page's features from its labels,
// build and validate the 32-level page in the scratch, decode its first
// k levels into the page's rows of wv.
//
//dana:hotpath
func (w *Reweaver) weavePages(wv *Woven, rows [][]float32, pageRows int) error {
	nfeat := len(wv.ranges)
	width := nfeat + 1
	for at := 0; at < len(rows); at += pageRows {
		end := min(at+pageRows, len(rows))
		feats, labels := w.feats[:end-at], w.labels[:end-at]
		for i, r := range rows[at:end] {
			feats[i], labels[i] = r[:nfeat], r[nfeat]
		}
		p, err := storage.BuildWeavePageInto(w.page, wv.ranges, feats, labels)
		if err != nil {
			return err
		}
		if err := p.Validate(); err != nil {
			return err
		}
		w.ex.decodeInto(p, wv.slab[at*width:end*width], wv.rows[at:end])
	}
	return nil
}

// PageDecodeCycles models the cycles an any-precision Strider spends
// decoding one weave page at k bits: one cycle per plane word streamed
// (bits × ncols × planeWords) plus one per row for code assembly and
// dequantization. The k=32 figure is the full-width read; lower k
// shrinks the plane term linearly, mirroring the transfer model.
func PageDecodeCycles(ncols, nrows, bits int) int64 {
	if ncols < 1 || nrows < 1 {
		return 0
	}
	if bits < 1 {
		bits = 1
	}
	if bits > storage.WeaveMaxBits {
		bits = storage.WeaveMaxBits
	}
	pw := int64((nrows + 63) / 64)
	return int64(bits)*int64(ncols)*pw + int64(nrows)
}

// Geometry describes a relation rewoven into vertical pages: the page
// count and the exact per-epoch byte split the transfer model charges —
// fixed bytes (headers, ranges, labels) stream at every precision,
// while BitBytes is the cost of ONE additional bit level across the
// whole relation. A k-bit epoch streams FixedBytes + k×BitBytes.
type Geometry struct {
	Pages      int
	PageRows   int
	FixedBytes int64
	BitBytes   int64
}

// EffectiveBytes returns the exact bytes one epoch streams at k bits.
func (g Geometry) EffectiveBytes(bits int) int64 {
	if bits < 1 {
		bits = 1
	}
	if bits > storage.WeaveMaxBits {
		bits = storage.WeaveMaxBits
	}
	return g.FixedBytes + int64(bits)*g.BitBytes
}

// RelationGeometry computes the weave layout of a relation with tuples
// rows of nfeat feature columns, paged against pageSize bytes. All
// arithmetic is exact integer math — the precision-sweep identity tests
// compare these figures with == against the channel model's charges.
func RelationGeometry(tuples, nfeat, pageSize int) Geometry {
	if tuples < 1 || nfeat < 1 {
		return Geometry{}
	}
	rows := storage.WeavePageRows(pageSize, nfeat)
	g := Geometry{PageRows: rows}
	for at := 0; at < tuples; at += rows {
		n := tuples - at
		if n > rows {
			n = rows
		}
		g.Pages++
		g.FixedBytes += storage.WeaveFixedPageBytes(nfeat, n)
		g.BitBytes += storage.WeaveBitPageBytes(nfeat, n)
	}
	return g
}
