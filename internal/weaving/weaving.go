// Package weaving is the any-precision extraction engine over the
// vertical (MLWeaving-style) page layout in internal/storage: the
// sibling of the Strider page walkers, but for bit-plane pages. An
// Extractor configured for k bits reads only the first k bit levels of
// a weave page — one contiguous prefix of the plane area — and decodes
// it into rows in one pass: each feature's truncated fixed-point codes
// are reassembled word-parallel, 64 rows per plane word, and written
// straight down that column of the caller's rows, dequantized into the
// float32 datapath width. Labels pass through untouched.
//
// The decode kernels are //dana:hotpath (allocation-free, enforced by
// danalint hotcall); the column-range scratch lives on the Extractor and
// is grown only in prepare. The cycle model mirrors the Strider one:
// PageDecodeCycles prices a page as one cycle per plane word touched
// plus one per row of assembly/dequantization, so modeled decode time —
// like modeled transfer — shrinks almost linearly with k.
//
// Rows routed through the layout and back (ReweaveRows, the Reweaver) are
// woven into a Woven — each page's k-level prefix, nothing a k-bit read
// does not touch — and decoded from it. Whoever owns stable rows can lend
// a Slot to keep the Woven in: the rows are then woven once for as long
// as the slot lives and only decoded after that. The runtime lends a
// record-cache entry's slot from the extracting epoch that fills the
// entry on, so a cold Train weaves once.
package weaving

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"dana/internal/storage"
)

// Extractor decodes weave pages at a fixed precision. Not safe for
// concurrent use; the host executor gives each worker its own.
type Extractor struct {
	bits int
	// inv is 2^-bits, the exact constant a truncated code is scaled by:
	// multiplying by a power of two rounds nothing, so it is
	// storage.WeaveDequantize's division bit for bit.
	inv float64
	// offs and scales are the page's column ranges, decoded once per page
	// and widened to the float64 the dequantization runs in.
	offs, scales []float64
}

// NewExtractor builds an extractor for k-bit reads (1..32).
func NewExtractor(bits int) (*Extractor, error) {
	if bits < 1 || bits > storage.WeaveMaxBits {
		return nil, fmt.Errorf("weaving: precision %d outside [1,%d]", bits, storage.WeaveMaxBits)
	}
	return &Extractor{bits: bits, inv: 1 / float64(uint64(1)<<uint(bits))}, nil
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
// `bits` plane words are loaded, transposed back by the block kernel and
// dequantized straight down that column of the slab. An all-zero block —
// the common case for high-order planes of small values — skips the
// kernel and fills its rows with the zero code's value. Every value is
// written, so the slab need not be cleared.
//
//dana:hotpath
func (e *Extractor) decodeInto(p storage.WeavePage, slab []float32, rows [][]float32) {
	ncols, nrows, pw := p.NumCols(), p.NumRows(), p.PlaneWords()
	width := ncols + 1
	for r := range rows {
		row := slab[r*width : (r+1)*width : (r+1)*width]
		row[ncols] = p.Label(r)
		rows[r] = row
	}
	e.offs, e.scales = e.offs[:ncols], e.scales[:ncols]
	for c := range e.offs {
		r := p.Range(c)
		e.offs[c], e.scales[c] = float64(r.Offset), float64(r.Scale)
	}
	base, levelStride := p.PlaneOffset(0, 0), ncols*pw*8
	down := uint(storage.WeaveMaxBits - e.bits)
	var planes [32]uint64
	var block [64]uint32
	for w := 0; w < pw; w++ {
		n := min(64, nrows-w*64)
		word := slab[w*64*width : (w*64+n)*width]
		for c, off := range e.offs {
			scale := e.scales[c]
			if loadPlanes(p, base+(c*pw+w)*8, levelStride, e.bits, &planes) == 0 {
				v := dequantize(0, down, off, scale, e.inv)
				for i := c; i < len(word); i += width {
					word[i] = v
				}
				continue
			}
			storage.UnweaveBlock(&planes, e.bits, &block)
			for r := 0; r < n; r++ {
				word[r*width+c] = dequantize(block[r&63], down, off, scale, e.inv)
			}
		}
	}
}

// dequantize maps a gathered code back into the float32 datapath: its top
// bits (q >> down) scaled by inv = 2^-bits into the column's affine range
// — storage.WeaveDequantize bit for bit.
//
//dana:hotpath
func dequantize(q uint32, down uint, off, scale, inv float64) float32 {
	x := float64(q>>down) * inv
	return float32(off + scale*x)
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
	return w.Reweave(rows, ranges)
}

// Woven is a row set in the form the any-precision path keeps: every
// page's k-level prefix — header, ranges, labels and the first k bit
// levels, the bytes Geometry.EffectiveBytes(k) counts — back to back in
// one buffer. A k-bit read touches nothing past that prefix, so decoding
// a Woven yields the bits decoding the 32-level pages would. Every page
// was validated whole before its prefix was kept. Once a Slot holds it, a
// Woven is never written again.
type Woven struct {
	bits int
	// ranges quantized the rows; derived says they are also what deriving
	// from these rows gives, so the Woven serves a request that pins none.
	ranges  []storage.WeaveRange
	derived bool
	// nrows rows, pageRows to a page (the last may be short), one prefix
	// after another in data.
	nrows, pageRows int
	data            []byte
}

// Ranges returns the quantization ranges the rows were woven against.
func (wv *Woven) Ranges() []storage.WeaveRange { return wv.ranges }

// Bytes returns the size of the held prefixes.
func (wv *Woven) Bytes() int { return len(wv.data) }

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

// Reweaver is ReweaveRows with its buffers kept: the extractor, the
// build scratch (one 32-level page and its feature views), a Woven of its
// own for rows nobody lent a slot with, and one output slab are reused
// from call to call, so a steady stream of equally sized epochs allocates
// nothing. The rows a call returns are valid until the next call.
type Reweaver struct {
	ex       *Extractor
	pageRows int
	page     []byte
	feats    [][]float32
	labels   []float32
	own      Woven
	slab     []float32
	out      [][]float32
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

// Reweave is ReweaveRows into the reweaver's own buffers: weave, then
// decode.
func (w *Reweaver) Reweave(rows [][]float32, ranges []storage.WeaveRange) ([][]float32, []storage.WeaveRange, error) {
	wv, _, err := w.Weave(rows, ranges, nil)
	if err != nil {
		return nil, nil, err
	}
	if wv == nil {
		return nil, ranges, nil
	}
	return w.Decode(wv), wv.ranges, nil
}

// Weave returns rows' Woven at the reweaver's precision against ranges
// (nil = derived from rows): the one slot holds when it serves the
// request, else one built now — every page validated — and published to
// slot. With no slot lent the Woven is the reweaver's own, rebuilt by the
// next call. built says which happened; no rows weave to nil.
func (w *Reweaver) Weave(rows [][]float32, ranges []storage.WeaveRange, slot *Slot) (wv *Woven, built bool, err error) {
	if len(rows) == 0 {
		return nil, false, nil
	}
	if slot != nil {
		if wv := slot.wv.Load(); wv != nil && wv.serves(w.ex.bits, ranges) {
			return wv, false, nil
		}
	}
	nfeat := len(rows[0]) - 1
	if nfeat < 1 {
		return nil, false, fmt.Errorf("%w: rows carry %d values, need features plus a label",
			storage.ErrWeaveUnsupported, len(rows[0]))
	}
	for i, r := range rows {
		if len(r) != nfeat+1 {
			return nil, false, fmt.Errorf("%w: ragged row %d (%d values, want %d)",
				storage.ErrWeaveUnsupported, i, len(r), nfeat+1)
		}
	}
	wv = &w.own
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
		return nil, false, fmt.Errorf("%w: %d ranges for rows of %d features",
			storage.ErrWeaveUnsupported, len(ranges), nfeat)
	}
	if err := w.build(wv, rows, ranges); err != nil {
		return nil, false, err
	}
	if slot != nil {
		slot.wv.Store(wv)
	}
	return wv, true, nil
}

// prefixBytes is the size of a page's k-level prefix: its fixed bytes and
// the first bits bit levels.
func prefixBytes(nfeat, nrows, bits int) int {
	return int(storage.WeaveFixedPageBytes(nfeat, nrows) + int64(bits)*storage.WeaveBitPageBytes(nfeat, nrows))
}

// build weaves rows into wv page by page: split features from labels,
// build and validate the 32-level page in the scratch, keep its k-level
// prefix.
func (w *Reweaver) build(wv *Woven, rows [][]float32, ranges []storage.WeaveRange) error {
	bits, nfeat, nrows := w.ex.bits, len(ranges), len(rows)
	pageRows := min(w.pageRows, nrows)
	size := nrows / pageRows * prefixBytes(nfeat, pageRows, bits)
	if tail := nrows % pageRows; tail > 0 {
		size += prefixBytes(nfeat, tail, bits)
	}
	if cap(wv.data) < size {
		wv.data = make([]byte, size)
	}
	wv.bits, wv.ranges, wv.nrows, wv.pageRows = bits, ranges, nrows, pageRows
	wv.data = wv.data[:size]
	if full := storage.WeavePageSize(nfeat, pageRows); cap(w.page) < full {
		w.page = make([]byte, full)
	}
	if cap(w.feats) < pageRows {
		w.feats, w.labels = make([][]float32, pageRows), make([]float32, pageRows)
	}
	return w.weavePages(wv, rows)
}

// weavePages is build's loop.
//
//dana:hotpath
func (w *Reweaver) weavePages(wv *Woven, rows [][]float32) error {
	nfeat := len(wv.ranges)
	for at, off := 0, 0; at < len(rows); at += wv.pageRows {
		end := min(at+wv.pageRows, len(rows))
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
		off += copy(wv.data[off:], p[:prefixBytes(nfeat, end-at, wv.bits)])
	}
	return nil
}

// Decode decodes wv — of the reweaver's precision — into the reweaver's
// rows. A reweaver that only decodes never sizes the build scratch.
func (w *Reweaver) Decode(wv *Woven) [][]float32 {
	nfeat := len(wv.ranges)
	w.ex.prepare(nfeat)
	if n := wv.nrows * (nfeat + 1); cap(w.slab) < n {
		w.slab = make([]float32, n)
	}
	if cap(w.out) < wv.nrows {
		w.out = make([][]float32, wv.nrows)
	}
	w.out = w.out[:wv.nrows]
	w.decodePages(wv)
	return w.out
}

// decodePages is the held-decode loop: each page's prefix through the
// extractor into the slab.
//
//dana:hotpath
func (w *Reweaver) decodePages(wv *Woven) {
	nfeat := len(wv.ranges)
	width, stride := nfeat+1, prefixBytes(nfeat, wv.pageRows, wv.bits)
	for at, off := 0, 0; at < wv.nrows; at += wv.pageRows {
		end := min(at+wv.pageRows, wv.nrows)
		p := storage.WeavePage(wv.data[off:min(off+stride, len(wv.data))])
		w.ex.decodeInto(p, w.slab[at*width:end*width], w.out[at:end])
		off += len(p)
	}
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
