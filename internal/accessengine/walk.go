package accessengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"dana/internal/fault"
	"dana/internal/storage"
	"dana/internal/strider"
)

// walker is the function of the program strider.Generate emits for a
// line-pointer layout, with everything a page needs resolved once: it
// decodes a page in one pass, charges the program's cost from
// strider.WalkCost, and returns an error wrapping fault.ErrVMTrap at
// every bound where the program's readB or cln traps. strider.VM, which
// interprets the program, stays its definition (Oracle E).
//
// A page whose items are all exactly one payload wide, which is every
// page the storage layer writes, takes a fast path. A packed float4
// payload already is its row's memory image on a little-endian host, so
// a recycled result's rows are views of the page (view); a fresh
// result's are copied into its extent (decodeF32), and so is a page with
// a payload that is not 4-aligned. Any other schema goes through the
// convert list, one value at a time. Every other page takes the general
// path, which cuts the stream of payloads into tuples as the program
// emits it.
type walker struct {
	hdrEnd   int // page bytes the program's three header readBs need
	lowerOff int // pd_lower
	first    int // address of the first line pointer
	offField strider.FieldDesc
	lenField strider.FieldDesc
	skip     int // tuple header bytes cln strips
	width    int // Schema.DataWidth()
	cols     int
	conv     []colConv // nil when the payload is a packed float4 stream
	views    bool      // a packed stream the host reads in place: rows may be views
}

// colConv is one column's slot in the convert list: where in the payload
// it sits and how it becomes a float32.
type colConv struct {
	off int
	typ storage.ColType
}

// lpSize is the one line pointer width the walker reads.
const lpSize = 4

// newWalker resolves the walker for a layout and schema, or says why the
// walk does not cover them.
func newWalker(layout strider.PageLayout, schema *storage.Schema) (walker, error) {
	if layout.ItemIDSize != lpSize {
		return walker{}, fmt.Errorf("accessengine: %d-byte line pointers; the walk reads %d", layout.ItemIDSize, lpSize)
	}
	for _, f := range [...]strider.FieldDesc{layout.ItemOffField, layout.ItemLenField} {
		if f.Width == 0 || f.Width > 32 {
			// payload and item read the fields without Extract's guard
			return walker{}, fmt.Errorf("accessengine: line pointer field %+v is not 1 to 32 bits wide", f)
		}
	}
	if schema.NumCols() == 0 {
		return walker{}, fmt.Errorf("accessengine: schema %s has no columns", schema)
	}
	w := walker{
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
			return walker{}, fmt.Errorf("accessengine: column %q of type %v has no float conversion", col.Name, col.Type)
		}
		packed = packed && col.Type == storage.TFloat32 && schema.ColOffset(i) == 4*i
	}
	if !packed {
		w.conv = make([]colConv, w.cols)
		for i, col := range schema.Cols {
			w.conv[i] = colConv{off: schema.ColOffset(i), typ: col.Type}
		}
	}
	w.views = packed && nativeLE
	return w, nil
}

// extract decodes the page into res and charges the walk's cost, or
// returns the error the program's run ends in: a trap at the header
// reads or the pointer array here, at an item's payload in general, and
// a plain error for a stream that is not whole tuples.
//
//dana:hotpath
func (w *walker) extract(page []byte, res *PageResult) error {
	if len(page) < w.hdrEnd {
		return fmt.Errorf("accessengine: page of %d bytes, the header reads need %d: %w", len(page), w.hdrEnd, fault.ErrVMTrap)
	}
	// The loop is a do-while: the pointer at first is read before t0 is
	// compared with pd_lower, and the walk ends at the first t0 >= pd_lower.
	n := 1
	if lower := int(binary.LittleEndian.Uint16(page[w.lowerOff:])); lower > w.first+lpSize {
		n = (lower - w.first + lpSize - 1) / lpSize
	}
	if w.first+lpSize*n > len(page) {
		return fmt.Errorf("accessengine: %d line pointers at %d on a page of %d bytes: %w", n, w.first, len(page), fault.ErrVMTrap)
	}
	lps := page[w.first : w.first+lpSize*n]
	// Only a recycled result takes views: a fresh one is what a caller
	// that keeps rows hands in, and kept rows are replayed faster from
	// one contiguous extent than from views scattered over pages.
	viewed := w.views && cap(res.Rows) > 0 && w.view(page, lps, res)
	if !viewed && !w.copyRows(page, lps, res) {
		return w.general(page, lps, res)
	}
	res.Steps, res.Cycles, res.Bytes = strider.WalkCost(n, w.width)
	return nil
}

// item returns line pointer i of lps's lp_off and lp_len.
//
//dana:hotpath
func (w *walker) item(lps []byte, i int) (off, ln int) {
	lp := uint64(binary.LittleEndian.Uint32(lps[lpSize*i:]))
	o, l := w.offField, w.lenField // Extract, its guard settled by newWalker
	return int(lp >> o.Start & (1<<o.Width - 1)), int(lp >> l.Start & (1<<l.Width - 1))
}

// payload returns where the payload of line pointer i of lps starts, and
// whether it is exactly one tuple payload wide and inside a page of
// pageLen bytes.
//
//dana:hotpath
func (w *walker) payload(lps []byte, i, pageLen int) (start int, ok bool) {
	off, ln := w.item(lps, i)
	return off + w.skip, ln-w.skip == w.width && off+ln <= pageLen
}

// view points res.Rows at the packed payloads in the page image itself,
// one row of w.cols values each, and empties res.Data. It gives up
// (false) on a payload that is not one tuple wide or not 4-aligned and
// leaves the page to copyRows, which hands the one to the general path
// and copies the other.
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
// at it, or gives up (false) on a payload that is not one tuple wide
// inside the page, leaving the page to the general path.
//
//dana:hotpath
func (w *walker) copyRows(page, lps []byte, res *PageResult) bool {
	n, cols, width := len(lps)/lpSize, w.cols, w.width
	res.reserve(n * cols) // the general path reuses the extent
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
// come through unchanged. Oracle E converts value by value, so it stays
// the independent definition this copy and the views are diffed against.
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
		dst[j] = colFloat(c.typ, src[c.off:])
	}
}

// colFloat converts one column's little-endian bytes to the engine's
// float32 (ints converted to float; float8 narrowed): the "transform
// user data into a floating point format" step of §6.2. newWalker admits
// only the four types it converts.
func colFloat(t storage.ColType, b []byte) float32 {
	switch t {
	case storage.TFloat32:
		return math.Float32frombits(binary.LittleEndian.Uint32(b))
	case storage.TFloat64:
		return float32(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	case storage.TInt32:
		return float32(int32(binary.LittleEndian.Uint32(b)))
	case storage.TInt64:
		return float32(int64(binary.LittleEndian.Uint64(b)))
	}
	return 0
}

// general walks a page whose items are not all one payload wide inside
// the page, as the program does: cln emits each item's payload, lp_len −
// TupleHeaderSize bytes from lp_off + TupleHeaderSize, into one stream,
// which is cut into DataWidth-byte tuples. An lp_len below the tuple
// header or a payload past the page traps the program's cln; a stream
// that is not whole tuples is a plain error. It charges WalkCost's
// general form: Steps = 5 + 7n, Cycles = Steps + Σ⌈pᵢ/8⌉, Bytes = Σpᵢ.
// No page the storage layer writes comes here, so the stream is built
// in a buffer of its own.
func (w *walker) general(page, lps []byte, res *PageResult) error {
	n := len(lps) / lpSize
	var stream []byte
	emit := int64(0)
	for i := 0; i < n; i++ {
		off, ln := w.item(lps, i)
		if ln < w.skip || off+ln > len(page) {
			return fmt.Errorf("accessengine: item %d, lp_off %d, lp_len %d, a %d-byte tuple header, on a page of %d bytes: %w",
				i, off, ln, w.skip, len(page), fault.ErrVMTrap)
		}
		stream = append(stream, page[off+w.skip:off+ln]...)
		emit += int64(ln-w.skip+7) / 8
	}
	if len(stream)%w.width != 0 {
		return fmt.Errorf("accessengine: the items emit %d bytes, not a multiple of tuple width %d", len(stream), w.width)
	}
	tuples, cols := len(stream)/w.width, w.cols
	res.reserve(tuples * cols)
	res.Data = res.Data[:tuples*cols]
	for t := 0; t < tuples; t++ {
		src, dst := stream[t*w.width:(t+1)*w.width], res.Data[t*cols:(t+1)*cols]
		if w.conv == nil {
			decodeF32(dst, src)
		} else {
			w.convert(dst, src)
		}
	}
	res.setRows(tuples, cols)
	res.Steps, res.Cycles, _ = strider.WalkCost(n, 0)
	res.Cycles += emit
	res.Bytes = int64(len(stream))
	return nil
}
