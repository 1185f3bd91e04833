package accessengine

import (
	"encoding/binary"
	"math"
	"unsafe"

	"dana/internal/storage"
	"dana/internal/strider"
)

// walker is the function of the program strider.Generate emits for a
// line-pointer layout, with everything a page needs resolved once: the
// production path decodes a page with it in one pass and charges the
// program's cost from strider.WalkCost, and the VM — still the
// definition of what the program does — runs only the pages it declines.
// A packed float4 payload already is its row's memory image on a
// little-endian host, so a recycled result's rows are views of the page
// (view); a fresh result's are copied into its extent (decodeF32), and
// so is a page with a payload that is not 4-aligned. Any other schema
// goes through the convert list, one value at a time.
type walker struct {
	hdrEnd   int // page bytes the program's three header readBs need
	lowerOff int // pd_lower
	first    int // address of the first line pointer
	offField strider.FieldDesc
	lenField strider.FieldDesc
	skip     int // tuple header bytes cln strips
	width    int // Schema.DataWidth(): the one payload length accepted
	cols     int
	conv     []colConv // nil when the payload is a packed float4 stream
	views    bool      // a packed stream the host reads in place: rows may be views
}

// colConv is one column's slot in the convert list: where in the payload
// it sits and how it becomes a float32 (Deformat's dispatch, resolved).
type colConv struct {
	off int
	typ storage.ColType
}

// lpSize is the line pointer width the walker reads; a layout with
// another ItemIDSize gets no walker and stays on the VM.
const lpSize = 4

// newWalker resolves the walker for a layout and schema; ok is false when
// the direct pass does not cover them.
func newWalker(layout strider.PageLayout, schema *storage.Schema) (w walker, ok bool) {
	if layout.ItemIDSize != lpSize {
		return walker{}, false
	}
	for _, f := range [...]strider.FieldDesc{layout.ItemOffField, layout.ItemLenField} {
		if f.Width == 0 || f.Width > 32 {
			return walker{}, false // payload reads the fields without Extract's guard
		}
	}
	w = walker{
		hdrEnd:   layout.HeaderReadEnd(),
		lowerOff: layout.LowerOffset,
		first:    layout.HeaderSize,
		offField: layout.ItemOffField,
		lenField: layout.ItemLenField,
		skip:     layout.TupleHeaderSize,
		width:    schema.DataWidth(),
		cols:     schema.NumCols(),
	}
	packed := w.width == 4*w.cols
	for i, col := range schema.Cols {
		if col.Type.Size() == 0 {
			return walker{}, false // Deformat's unsupported-type error stays the VM path's
		}
		packed = packed && col.Type == storage.TFloat32 && schema.ColOffset(i) == 4*i
	}
	if !packed {
		w.conv = make([]colConv, w.cols)
		for i, col := range schema.Cols {
			w.conv[i] = colConv{off: schema.ColOffset(i), typ: col.Type}
		}
	}
	w.views = packed && nativeLE && w.cols > 0
	return w, true
}

// extract decodes the page into res and charges the walk's closed-form
// cost, or declines (false) on a page it does not cover: one the VM
// would trap on, or whose items are not all exactly one tuple payload
// wide. Every bound below is one the program's readB or cln applies. A
// decline leaves in res only what the VM path overwrites.
//
//dana:hotpath
func (w *walker) extract(page []byte, res *PageResult) bool {
	if len(page) < w.hdrEnd {
		return false
	}
	// The loop is a do-while: the pointer at first is read before t0 is
	// compared with pd_lower, and the walk ends at the first t0 >= pd_lower.
	n := 1
	if lower := int(binary.LittleEndian.Uint16(page[w.lowerOff:])); lower > w.first+lpSize {
		n = (lower - w.first + lpSize - 1) / lpSize
	}
	if w.first+lpSize*n > len(page) {
		return false
	}
	lps := page[w.first : w.first+lpSize*n]
	// Only a recycled result takes views: a fresh one is what a caller
	// that keeps rows hands in, and kept rows are replayed faster from
	// one contiguous extent than from views scattered over pages.
	viewed := w.views && cap(res.Rows) > 0 && w.view(page, lps, res)
	if !viewed && !w.copyRows(page, lps, res) {
		return false
	}
	res.Steps, res.Cycles, res.Bytes = strider.WalkCost(n, w.width)
	return true
}

// payload returns where the payload of line pointer i of lps starts, and
// whether it is exactly one tuple payload wide and inside a page of
// pageLen bytes.
//
//dana:hotpath
func (w *walker) payload(lps []byte, i, pageLen int) (start int, ok bool) {
	lp := uint64(binary.LittleEndian.Uint32(lps[lpSize*i:]))
	off, ln := w.offField, w.lenField // Extract, its guard settled by newWalker
	start = int(lp>>off.Start&(1<<off.Width-1)) + w.skip
	return start, int(lp>>ln.Start&(1<<ln.Width-1))-w.skip == w.width && start+w.width <= pageLen
}

// view points res.Rows at the packed payloads in the page image itself,
// one row of w.cols values each, and empties res.Data. It gives up
// (false) on a payload that is not one tuple wide or not 4-aligned and
// leaves the page to copyRows, which declines the one and copies the
// other.
//
//dana:hotpath
func (w *walker) view(page, lps []byte, res *PageResult) bool {
	n := len(lps) / lpSize
	rows := res.emptyRows(n)
	for i := 0; i < n; i++ {
		start, ok := w.payload(lps, i, len(page))
		if !ok {
			return false
		}
		p := unsafe.Pointer(&page[start])
		if uintptr(p)%4 != 0 {
			return false
		}
		rows = append(rows, unsafe.Slice((*float32)(p), w.cols))
	}
	res.Rows, res.Data = rows, res.Data[:0]
	return true
}

// copyRows decodes every payload into res's extent and points res.Rows
// at it, or declines (false).
//
//dana:hotpath
func (w *walker) copyRows(page, lps []byte, res *PageResult) bool {
	n, cols, width := len(lps)/lpSize, w.cols, w.width
	res.reserve(n * cols) // a declined page keeps the extent for the VM path
	data := res.Data[:n*cols]
	for i := 0; i < n; i++ {
		start, ok := w.payload(lps, i, len(page))
		if !ok {
			return false
		}
		src, dst := page[start:start+width], data[i*cols:(i+1)*cols]
		if w.conv == nil {
			decodeF32(dst, src)
		} else {
			w.convert(dst, src)
		}
	}
	res.Data = data
	res.setRows(n, cols)
	return true
}

// decodeF32 converts a little-endian float4 stream, len(src) == 4*len(dst).
// Float32frombits is a pure bit move, so on a little-endian host the
// stream already is the float32 extent's memory image and the conversion
// is one copy (and a view needs none); NaN payloads, -0 and subnormals
// come through unchanged. The VM path (Deformat, colFloat) keeps the
// per-value conversion, so it stays the independent definition this copy
// and the views are diffed against.
//
//dana:hotpath
func decodeF32(dst []float32, src []byte) {
	if nativeLE {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*len(dst)), src)
		return
	}
	decodeF32Loads(dst, src)
}

// nativeLE reports whether the host stores a float32 in the page's byte
// order; it is tested once.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeF32Loads is decodeF32 on a big-endian host: two 8-byte loads per
// four values, about twice the rate of one load per value.
//
//dana:hotpath
func decodeF32Loads(dst []float32, src []byte) {
	for len(dst) >= 4 && len(src) >= 16 {
		a, b := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
		dst[0] = math.Float32frombits(uint32(a))
		dst[1] = math.Float32frombits(uint32(a >> 32))
		dst[2] = math.Float32frombits(uint32(b))
		dst[3] = math.Float32frombits(uint32(b >> 32))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// convert applies the convert list to one payload.
//
//dana:hotpath
func (w *walker) convert(dst []float32, src []byte) {
	for j, c := range w.conv {
		dst[j], _ = colFloat(c.typ, src[c.off:]) // newWalker admitted only convertible types
	}
}
