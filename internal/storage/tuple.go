package storage

import (
	"encoding/binary"
	"fmt"
)

// Heap tuple header layout, mirroring PostgreSQL's HeapTupleHeaderData:
//
//	t_xmin      uint32  // inserting transaction id
//	t_xmax      uint32  // deleting transaction id
//	t_cid       uint32  // command id
//	t_ctid      6 bytes // (block uint32, offnum uint16)
//	t_infomask2 uint16  // number of attributes + flag bits
//	t_infomask  uint16  // flag bits
//	t_hoff      uint8   // offset to user data (MAXALIGN'd)
//
// 23 bytes of header; with no null bitmap, t_hoff = MAXALIGN(23) = 24.
const (
	tupXminOff      = 0
	tupXmaxOff      = 4
	tupCidOff       = 8
	tupCtidBlockOff = 12
	tupCtidOffnum   = 16
	tupInfomask2Off = 18
	tupInfomaskOff  = 20
	tupHoffOff      = 22

	// TupleHeaderRawSize is the unaligned heap tuple header size.
	TupleHeaderRawSize = 23
	// TupleHeaderSize is t_hoff for tuples without a null bitmap.
	TupleHeaderSize = 24 // MAXALIGN(23)
)

// Infomask bits we model (subset of PostgreSQL's).
const (
	InfomaskHasNull    = 0x0001
	InfomaskXminCommit = 0x0100
	InfomaskXmaxInval  = 0x0800
)

// TID identifies a tuple by (page number, item index).
type TID struct {
	Page uint32
	Item uint16
}

func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Page, t.Item) }

// TupleMeta is the decoded heap tuple header.
type TupleMeta struct {
	Xmin, Xmax uint32
	Cid        uint32
	Ctid       TID
	Infomask2  uint16
	Infomask   uint16
	Hoff       uint8
}

// EncodeTuple serializes a heap tuple (header + row data) for the given
// schema into a fresh byte slice.
func EncodeTuple(s *Schema, vals []float64, xmin uint32, ctid TID) ([]byte, error) {
	buf := make([]byte, TupleHeaderSize+s.DataWidth())
	binary.LittleEndian.PutUint32(buf[tupXminOff:], xmin)
	binary.LittleEndian.PutUint32(buf[tupXmaxOff:], 0)
	binary.LittleEndian.PutUint32(buf[tupCidOff:], 0)
	binary.LittleEndian.PutUint32(buf[tupCtidBlockOff:], ctid.Page)
	binary.LittleEndian.PutUint16(buf[tupCtidOffnum:], ctid.Item+1) // PostgreSQL offsets are 1-based
	binary.LittleEndian.PutUint16(buf[tupInfomask2Off:], uint16(s.NumCols())&0x07FF)
	binary.LittleEndian.PutUint16(buf[tupInfomaskOff:], InfomaskXminCommit|InfomaskXmaxInval)
	buf[tupHoffOff] = TupleHeaderSize
	if err := s.EncodeValues(buf[TupleHeaderSize:], vals); err != nil {
		return nil, err
	}
	return buf, nil
}

// DecodeTupleMeta parses the heap tuple header.
func DecodeTupleMeta(raw []byte) (TupleMeta, error) {
	if len(raw) < TupleHeaderRawSize {
		return TupleMeta{}, fmt.Errorf("%w: tuple of %d bytes shorter than header", ErrCorrupt, len(raw))
	}
	m := TupleMeta{
		Xmin: binary.LittleEndian.Uint32(raw[tupXminOff:]),
		Xmax: binary.LittleEndian.Uint32(raw[tupXmaxOff:]),
		Cid:  binary.LittleEndian.Uint32(raw[tupCidOff:]),
		Ctid: TID{
			Page: binary.LittleEndian.Uint32(raw[tupCtidBlockOff:]),
			Item: binary.LittleEndian.Uint16(raw[tupCtidOffnum:]) - 1,
		},
		Infomask2: binary.LittleEndian.Uint16(raw[tupInfomask2Off:]),
		Infomask:  binary.LittleEndian.Uint16(raw[tupInfomaskOff:]),
		Hoff:      raw[tupHoffOff],
	}
	if int(m.Hoff) > len(raw) {
		return TupleMeta{}, fmt.Errorf("%w: t_hoff %d beyond tuple of %d bytes", ErrCorrupt, m.Hoff, len(raw))
	}
	return m, nil
}

// DecodeTuple parses a raw heap tuple into float64 column values. It
// reads only fixed-width NOT NULL tuples, the only ones the program
// forms: a tuple carrying a null bitmap is refused (its attribute
// offsets are dynamic), rather than silently misread through the
// schema's static offset table.
func DecodeTuple(s *Schema, dst []float64, raw []byte) ([]float64, error) {
	m, err := DecodeTupleMeta(raw)
	if err != nil {
		return dst, err
	}
	if m.Infomask&InfomaskHasNull != 0 {
		return dst, fmt.Errorf("%w: tuple has a null bitmap", ErrCorrupt)
	}
	return s.DecodeValues(dst, raw[m.Hoff:])
}
