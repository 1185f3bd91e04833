// Package storage implements a PostgreSQL-compatible heap page layout:
// slotted pages with a 24-byte page header, an array of 4-byte line
// pointers growing downward from the header, and tuple data growing upward
// from the end of the page (or from the special space, when present).
//
// The layout deliberately mirrors PostgreSQL's so that the Strider ISA
// (internal/strider) has real page headers, line pointers, and tuple
// headers to chase, exactly as in the paper's Figure 6.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Page geometry constants, mirroring PostgreSQL's bufpage.h.
const (
	// PageHeaderSize is the fixed size of the page header:
	// pd_lsn (8) + pd_checksum (2) + pd_flags (2) + pd_lower (2) +
	// pd_upper (2) + pd_special (2) + pd_pagesize_version (2) +
	// pd_prune_xid (4).
	PageHeaderSize = 24

	// ItemIDSize is the size of one line pointer.
	ItemIDSize = 4

	// MaxAlign is PostgreSQL's MAXIMUM_ALIGNOF: tuple starts are aligned
	// to 8-byte boundaries.
	MaxAlign = 8

	// LayoutVersion mirrors PG_PAGE_LAYOUT_VERSION.
	LayoutVersion = 4
)

// Supported page sizes (the paper evaluates 8, 16, and 32 KB).
const (
	PageSize8K  = 8 * 1024
	PageSize16K = 16 * 1024
	PageSize32K = 32 * 1024
)

// Line pointer (ItemID) state flags, mirroring PostgreSQL's LP_* values.
const (
	LPUnused   = 0 // unused (should always have length 0)
	LPNormal   = 1 // used (should always have length > 0)
	LPRedirect = 2 // HOT redirect
	LPDead     = 3 // dead, may or may not have storage
)

// Header byte offsets within a page.
const (
	offLSN             = 0
	offChecksum        = 8
	offFlags           = 10
	offLower           = 12
	offUpper           = 14
	offSpecial         = 16
	offPageSizeVersion = 18
	offPruneXID        = 20
)

var (
	// ErrPageFull is returned by AddItem when the tuple does not fit.
	ErrPageFull = errors.New("storage: page full")
	// ErrBadItem is returned for out-of-range or unused line pointers.
	ErrBadItem = errors.New("storage: invalid line pointer")
	// ErrCorrupt is returned when page invariants do not hold.
	ErrCorrupt = errors.New("storage: corrupt page")
)

// ItemID is a decoded line pointer.
type ItemID struct {
	Off   uint16 // byte offset of the tuple within the page
	Flags uint8  // LP* state
	Len   uint16 // tuple length in bytes
}

// Page is a raw slotted heap page. The zero value is unusable; call
// NewPage or Init first.
type Page []byte

// NewPage allocates and initializes a page of the given size with the
// given special-space size (0 for heap pages).
func NewPage(size, specialSize int) Page {
	p := Page(make([]byte, size))
	p.Init(specialSize)
	return p
}

// Init formats p as an empty page with specialSize bytes reserved at the
// end (PostgreSQL heap pages use 0; index pages use more). A buffer too
// small to hold a header is left zeroed (every accessor then reports it
// as corrupt instead of panicking). Init formats any longer buffer, but
// pd_pagesize_version keeps the size in its high byte, so Validate
// accepts only the lengths it can record, multiples of 256 up to
// 65 280: a page of any other length that Init formats is refused.
func (p Page) Init(specialSize int) {
	for i := range p {
		p[i] = 0
	}
	if len(p) < PageHeaderSize {
		return
	}
	special := len(p) - alignUp(specialSize, MaxAlign)
	if special < PageHeaderSize {
		special = PageHeaderSize
	}
	binary.LittleEndian.PutUint16(p[offLower:], PageHeaderSize)
	binary.LittleEndian.PutUint16(p[offUpper:], uint16(special))
	binary.LittleEndian.PutUint16(p[offSpecial:], uint16(special))
	binary.LittleEndian.PutUint16(p[offPageSizeVersion:], uint16(len(p))|LayoutVersion)
}

// u16 reads a little-endian header field, returning 0 when the buffer is
// too short to hold it — truncated pages read as corrupt, not as a
// bounds panic reachable from every public entry point.
func (p Page) u16(off int) uint16 {
	if len(p) < off+2 {
		return 0
	}
	return binary.LittleEndian.Uint16(p[off:])
}

// Size returns the page size recorded in the header.
func (p Page) Size() int { return int(p.u16(offPageSizeVersion) &^ 0xFF) }

// Version returns the page layout version recorded in the header.
func (p Page) Version() int { return int(p.u16(offPageSizeVersion) & 0xFF) }

// Lower returns pd_lower: the end of the line pointer array.
func (p Page) Lower() int { return int(p.u16(offLower)) }

// Upper returns pd_upper: the start of tuple data.
func (p Page) Upper() int { return int(p.u16(offUpper)) }

// Special returns pd_special: the start of the special space.
func (p Page) Special() int { return int(p.u16(offSpecial)) }

// LSN returns the page LSN (used here only as an opaque stamp).
func (p Page) LSN() uint64 {
	if len(p) < offLSN+8 {
		return 0
	}
	return binary.LittleEndian.Uint64(p[offLSN:])
}

// SetLSN stamps the page LSN (no-op on a truncated page).
func (p Page) SetLSN(v uint64) {
	if len(p) < offLSN+8 {
		return
	}
	binary.LittleEndian.PutUint64(p[offLSN:], v)
}

// Checksum returns the stored page checksum (0 = none stamped).
func (p Page) Checksum() uint16 { return p.u16(offChecksum) }

// SetChecksum stores a page checksum (no-op on a truncated page).
func (p Page) SetChecksum(v uint16) {
	if len(p) < offChecksum+2 {
		return
	}
	binary.LittleEndian.PutUint16(p[offChecksum:], v)
}

// NumItems returns the number of line pointers on the page. On a
// corrupt page whose pd_lower is out of range the count is clamped to
// the line pointers that physically fit, so iteration never over-reads.
func (p Page) NumItems() int {
	n := (p.Lower() - PageHeaderSize) / ItemIDSize
	if max := (len(p) - PageHeaderSize) / ItemIDSize; n > max {
		n = max
	}
	if n < 0 {
		return 0
	}
	return n
}

// FreeSpace returns the bytes available between the line pointer array and
// tuple data, accounting for the line pointer a new tuple would need.
func (p Page) FreeSpace() int {
	free := p.Upper() - p.Lower() - ItemIDSize
	if free < 0 {
		return 0
	}
	return free
}

// ItemID decodes line pointer i (0-based; PostgreSQL offsets are 1-based,
// the +1 translation happens in TID handling).
func (p Page) ItemID(i int) (ItemID, error) {
	if i < 0 || i >= p.NumItems() {
		return ItemID{}, fmt.Errorf("%w: index %d of %d", ErrBadItem, i, p.NumItems())
	}
	raw := binary.LittleEndian.Uint32(p[PageHeaderSize+i*ItemIDSize:])
	return decodeItemID(raw), nil
}

func decodeItemID(raw uint32) ItemID {
	// Layout (LSB first): lp_off:15, lp_flags:2, lp_len:15 — identical to
	// PostgreSQL's ItemIdData bitfields on little-endian machines.
	return ItemID{
		Off:   uint16(raw & 0x7FFF),
		Flags: uint8((raw >> 15) & 0x3),
		Len:   uint16((raw >> 17) & 0x7FFF),
	}
}

func encodeItemID(id ItemID) uint32 {
	return uint32(id.Off&0x7FFF) | uint32(id.Flags&0x3)<<15 | uint32(id.Len&0x7FFF)<<17
}

// AddItem appends item data as a new tuple, returning its 0-based item
// index. The data is copied; tuple starts are MAXALIGN'd.
func (p Page) AddItem(data []byte) (int, error) {
	lower := p.Lower()
	upper := p.Upper()
	// A header that lies about its bounds (torn or fuzzed page) must
	// fail, not drive the copy below out of the buffer.
	if lower < PageHeaderSize || lower > upper || upper > len(p) {
		return 0, fmt.Errorf("%w: lower=%d upper=%d size=%d", ErrCorrupt, lower, upper, len(p))
	}
	alignedLen := alignUp(len(data), MaxAlign)
	newUpper := upper - alignedLen
	if newUpper < lower+ItemIDSize {
		return 0, fmt.Errorf("%w: need %d bytes, have %d", ErrPageFull, alignedLen+ItemIDSize, upper-lower)
	}
	idx := p.NumItems()
	copy(p[newUpper:newUpper+len(data)], data)
	id := ItemID{Off: uint16(newUpper), Flags: LPNormal, Len: uint16(len(data))}
	binary.LittleEndian.PutUint32(p[PageHeaderSize+idx*ItemIDSize:], encodeItemID(id))
	binary.LittleEndian.PutUint16(p[offLower:], uint16(lower+ItemIDSize))
	binary.LittleEndian.PutUint16(p[offUpper:], uint16(newUpper))
	return idx, nil
}

// Item returns the raw bytes of item i. The returned slice aliases the
// page; callers must not retain it past page eviction.
func (p Page) Item(i int) ([]byte, error) {
	id, err := p.ItemID(i)
	if err != nil {
		return nil, err
	}
	return p.item(i, id)
}

// item returns the raw bytes of item i, whose line pointer is id.
func (p Page) item(i int, id ItemID) ([]byte, error) {
	if id.Flags != LPNormal {
		return nil, fmt.Errorf("%w: item %d has state %d", ErrBadItem, i, id.Flags)
	}
	if int(id.Off)+int(id.Len) > len(p) || int(id.Off) < PageHeaderSize {
		return nil, fmt.Errorf("%w: item %d spans [%d,%d) beyond page", ErrCorrupt, i, id.Off, int(id.Off)+int(id.Len))
	}
	return p[id.Off : int(id.Off)+int(id.Len)], nil
}

// DeleteItem marks item i dead without reclaiming space (like a HOT-less
// delete before vacuum).
func (p Page) DeleteItem(i int) error {
	id, err := p.ItemID(i)
	if err != nil {
		return err
	}
	id.Flags = LPDead
	binary.LittleEndian.PutUint32(p[PageHeaderSize+i*ItemIDSize:], encodeItemID(id))
	return nil
}

// SetLinePointer overwrites line pointer i with id, fabricating states
// a normal insert path never produces (LPRedirect chains, LPDead with
// retained storage, LPUnused holes). Scanners must skip or reject these;
// the differential harness uses this to prove they do.
func (p Page) SetLinePointer(i int, id ItemID) error {
	if _, err := p.ItemID(i); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(p[PageHeaderSize+i*ItemIDSize:], encodeItemID(id))
	return nil
}

// Validate checks the structural invariants of the page.
func (p Page) Validate() error {
	if len(p) < PageHeaderSize {
		return fmt.Errorf("%w: page smaller than header", ErrCorrupt)
	}
	lower, upper, special := p.Lower(), p.Upper(), p.Special()
	if lower < PageHeaderSize || lower > upper || upper > special || special > len(p) {
		return fmt.Errorf("%w: lower=%d upper=%d special=%d size=%d", ErrCorrupt, lower, upper, special, len(p))
	}
	if p.Size() != len(p) {
		return fmt.Errorf("%w: header size %d != actual %d", ErrCorrupt, p.Size(), len(p))
	}
	for i := 0; i < p.NumItems(); i++ {
		id, err := p.ItemID(i)
		if err != nil {
			return err
		}
		if id.Flags == LPNormal {
			if int(id.Off) < upper || int(id.Off)+int(id.Len) > special {
				return fmt.Errorf("%w: item %d at [%d,%d) outside data area [%d,%d)", ErrCorrupt, i, id.Off, int(id.Off)+int(id.Len), upper, special)
			}
		}
	}
	return nil
}

// ComputeChecksum returns an FNV-style 16-bit fold of the page contents
// excluding the checksum field itself. The fold runs word-at-a-time over
// four interleaved lanes: verification sits on the buffer pool's
// disk-read path, and a byte loop over a 32 KB page would blow the <5%
// overhead budget the obs/checksum guards enforce.
func (p Page) ComputeChecksum() uint16 {
	const (
		basis = 1469598103934665603
		prime = 1099511628211
	)
	var h0, h1, h2, h3 uint64 = basis, basis + 1, basis + 2, basis + 3
	i := 0
	// Words overlapping the checksum field contribute with those bytes
	// masked to zero, so the stored value never feeds its own hash.
	for ; i+8 <= len(p) && i < offChecksum+2; i += 8 {
		w := binary.LittleEndian.Uint64(p[i:])
		for j := offChecksum; j < offChecksum+2; j++ {
			if j >= i && j < i+8 {
				w &^= uint64(0xFF) << (8 * (j - i))
			}
		}
		h0 = (h0 ^ w) * prime
	}
	// The bulk lanes mix with xor-rotate (pipelined, ~1 cycle/word);
	// injected corruption — bit flips, torn tails — always lands a
	// nonzero difference in some lane, and the multiplicative fold below
	// spreads it across the 16-bit result.
	for ; i+32 <= len(p); i += 32 {
		h0 = bits.RotateLeft64(h0^binary.LittleEndian.Uint64(p[i:]), 29)
		h1 = bits.RotateLeft64(h1^binary.LittleEndian.Uint64(p[i+8:]), 29)
		h2 = bits.RotateLeft64(h2^binary.LittleEndian.Uint64(p[i+16:]), 29)
		h3 = bits.RotateLeft64(h3^binary.LittleEndian.Uint64(p[i+24:]), 29)
	}
	for ; i+8 <= len(p); i += 8 {
		h0 = (h0 ^ binary.LittleEndian.Uint64(p[i:])) * prime
	}
	for ; i < len(p); i++ {
		if i == offChecksum || i == offChecksum+1 {
			continue
		}
		h0 = (h0 ^ uint64(p[i])) * prime
	}
	h := ((h0*prime^h1)*prime^h2)*prime ^ h3
	h = (h ^ h>>32) * prime
	return uint16(h>>16) ^ uint16(h)
}

// StampChecksum computes and stores the page checksum. A computed value
// of zero is stored as 0xFFFF, keeping a stored 0 unambiguous as "no
// checksum stamped" (the same trick PostgreSQL's pg_checksum_page uses).
func (p Page) StampChecksum() {
	c := p.ComputeChecksum()
	if c == 0 {
		c = 0xFFFF
	}
	p.SetChecksum(c)
}

// ChecksumOK verifies the stored checksum against the page contents.
// An unstamped page (stored checksum 0) verifies trivially; stamping
// rules mirror StampChecksum.
func (p Page) ChecksumOK() bool {
	stored := p.Checksum()
	if stored == 0 {
		return true
	}
	c := p.ComputeChecksum()
	if c == 0 {
		c = 0xFFFF
	}
	return stored == c
}

func alignUp(n, a int) int { return (n + a - 1) &^ (a - 1) }
