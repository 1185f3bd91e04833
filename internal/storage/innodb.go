package storage

import (
	"encoding/binary"
	"fmt"
)

// InnoDB-style page layout. The paper's Strider ISA claims to "target a
// range of RDBMS engines, such as PostgreSQL and MySQL (innoDB)"
// (§5.1.2); the distinguishing feature of InnoDB pages is that records
// form a singly linked list threaded through the page (each record
// header holds a next-record pointer) instead of PostgreSQL's line
// pointer array — precisely the pointer chasing the ISA is built for.
//
// This is a simplified compact-format page:
//
//	bytes  0..37  FIL header: checksum(4) pageno(4) prev(4) next(4)
//	              lsn(8) type(2) flushLSN(8) spaceID(4)
//	bytes 38..39  record count
//	bytes 40..41  heap top (first free byte)
//	bytes 42..43  offset of the first user record (0 = empty page)
//
// Each record is: header [info(1) heapNo(2) next(2, absolute offset,
// 0 = end of chain)] followed by the fixed-width payload.
const (
	InnoFILHeaderSize    = 38
	InnoPageHeaderSize   = 44 // FIL header + count + heap top + first
	InnoRecordHeaderSize = 5

	innoOffCount   = 38
	innoOffHeapTop = 40
	innoOffFirst   = 42

	innoRecNextOff = 3 // next-pointer offset within the record header
)

// InnoPage is a simplified InnoDB-format page. Records are chained in
// insertion order.
type InnoPage []byte

// NewInnoPage allocates and formats an empty InnoDB-style page.
func NewInnoPage(size int) InnoPage {
	p := InnoPage(make([]byte, size))
	p.Init()
	return p
}

// Init formats the page as empty.
func (p InnoPage) Init() {
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint32(p[4:], 0) // page number
	binary.LittleEndian.PutUint16(p[innoOffCount:], 0)
	binary.LittleEndian.PutUint16(p[innoOffHeapTop:], InnoPageHeaderSize)
	binary.LittleEndian.PutUint16(p[innoOffFirst:], 0)
}

// NumRecords returns the record count.
func (p InnoPage) NumRecords() int { return int(binary.LittleEndian.Uint16(p[innoOffCount:])) }

// HeapTop returns the first free byte offset.
func (p InnoPage) HeapTop() int { return int(binary.LittleEndian.Uint16(p[innoOffHeapTop:])) }

// FirstRecord returns the offset of the first user record (0 if none).
func (p InnoPage) FirstRecord() int { return int(binary.LittleEndian.Uint16(p[innoOffFirst:])) }

// AddRecord appends a payload to the record chain. Records are placed
// at the heap top and linked from the previous tail.
func (p InnoPage) AddRecord(payload []byte) error {
	need := InnoRecordHeaderSize + len(payload)
	top := p.HeapTop()
	if top+need > len(p) {
		return fmt.Errorf("%w: inno page full (%d free, need %d)", ErrPageFull, len(p)-top, need)
	}
	// Record header.
	p[top] = 0 // info bits
	binary.LittleEndian.PutUint16(p[top+1:], uint16(p.NumRecords()+1))
	binary.LittleEndian.PutUint16(p[top+innoRecNextOff:], 0) // end of chain
	copy(p[top+InnoRecordHeaderSize:], payload)

	// Link from the previous tail (or the page header for the first).
	if first := p.FirstRecord(); first == 0 {
		binary.LittleEndian.PutUint16(p[innoOffFirst:], uint16(top))
	} else {
		cur := first
		for {
			next := int(binary.LittleEndian.Uint16(p[cur+innoRecNextOff:]))
			if next == 0 {
				break
			}
			cur = next
		}
		binary.LittleEndian.PutUint16(p[cur+innoRecNextOff:], uint16(top))
	}
	binary.LittleEndian.PutUint16(p[innoOffCount:], uint16(p.NumRecords()+1))
	binary.LittleEndian.PutUint16(p[innoOffHeapTop:], uint16(top+need))
	return nil
}

// Records walks the chain and returns each record's payload slice of
// the given width (records alias the page).
func (p InnoPage) Records(width int) ([][]byte, error) {
	if len(p) < InnoPageHeaderSize {
		return nil, fmt.Errorf("%w: inno page of %d bytes smaller than header", ErrCorrupt, len(p))
	}
	if width < 0 {
		return nil, fmt.Errorf("%w: negative record width %d", ErrCorrupt, width)
	}
	var out [][]byte
	cur := p.FirstRecord()
	for n := 0; cur != 0; n++ {
		if n > p.NumRecords() {
			return nil, fmt.Errorf("%w: record chain longer than count %d", ErrCorrupt, p.NumRecords())
		}
		if cur+InnoRecordHeaderSize+width > len(p) {
			return nil, fmt.Errorf("%w: record at %d overruns page", ErrCorrupt, cur)
		}
		out = append(out, p[cur+InnoRecordHeaderSize:cur+InnoRecordHeaderSize+width])
		cur = int(binary.LittleEndian.Uint16(p[cur+innoRecNextOff:]))
	}
	if len(out) != p.NumRecords() {
		return nil, fmt.Errorf("%w: chain has %d records, header says %d", ErrCorrupt, len(out), p.NumRecords())
	}
	return out, nil
}

// InnoRelation is a heap of InnoDB-style pages for one schema (the
// MySQL counterpart of Relation; payloads carry no per-tuple MVCC
// header, only the schema data).
type InnoRelation struct {
	Name     string
	Schema   *Schema
	PageSize int
	pages    []InnoPage
}

// NewInnoRelation creates an empty InnoDB-style relation.
func NewInnoRelation(name string, schema *Schema, pageSize int) *InnoRelation {
	return &InnoRelation{Name: name, Schema: schema, PageSize: pageSize}
}

// NumPages returns the page count.
func (r *InnoRelation) NumPages() int { return len(r.pages) }

// Page returns page i.
func (r *InnoRelation) Page(i int) (InnoPage, error) {
	if i < 0 || i >= len(r.pages) {
		return nil, fmt.Errorf("storage: inno relation %q has no page %d", r.Name, i)
	}
	return r.pages[i], nil
}

// Insert appends one row.
func (r *InnoRelation) Insert(vals []float64) error {
	buf := make([]byte, r.Schema.DataWidth())
	if err := r.Schema.EncodeValues(buf, vals); err != nil {
		return err
	}
	if len(r.pages) == 0 {
		r.pages = append(r.pages, NewInnoPage(r.PageSize))
	}
	p := r.pages[len(r.pages)-1]
	if err := p.AddRecord(buf); err != nil {
		p = NewInnoPage(r.PageSize)
		r.pages = append(r.pages, p)
		if err := p.AddRecord(buf); err != nil {
			return err
		}
	}
	return nil
}
