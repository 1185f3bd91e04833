package storage

// The weave layout's block kernels. A block is one column's 64 rows at
// one plane word: 64 codes on the row side, 32 plane words (one per bit
// level) on the page side. Both directions are a bit-matrix
// transposition — Hacker's Delight figure 7-3, run on 64-bit lanes so
// the low and the high 32 rows of the word transpose side by side: the
// stage masks repeat in both halves of the lane, so no swap carries a
// bit across the middle. HD numbers rows top-down and columns from the
// MSB, so its transposition maps element (i, c) to (31-c, 31-i) in
// LSB-first column numbering; loading row r at index 31-r makes bit r
// of plane word `level` row r's bit at that level, which is the page
// layout.

// Stage masks: at distance j the columns whose index has bit log2(j)
// clear, in both 32-bit halves of the lane.
const (
	weaveMask16 = 0x0000FFFF0000FFFF
	weaveMask8  = 0x00FF00FF00FF00FF
	weaveMask4  = 0x0F0F0F0F0F0F0F0F
	weaveMask2  = 0x3333333333333333
	weaveMask1  = 0x5555555555555555
)

// transposePlanes runs the transposition stages of distance < rows over
// a[0:rows] (rows a power of two, at most 32). Stage j exchanges bit
// log2(j) of the row index with the complement of the same bit of the
// column index and the stages commute, so with rows == 32 this is the
// full transposition, and with fewer it transposes each rows×rows tile
// of a[0:rows] in place: the form the any-precision gather needs, where
// only the top k levels are live.
//
//dana:hotpath
func transposePlanes(a *[32]uint64, rows int) {
	if rows > 16 {
		for i := 0; i < 16; i++ {
			t := (a[i] ^ a[i+16]>>16) & weaveMask16
			a[i] ^= t
			a[i+16] ^= t << 16
		}
	}
	if rows > 8 {
		for b := 0; b < rows; b += 16 {
			for i := b; i < b+8; i++ {
				t := (a[i&31] ^ a[(i+8)&31]>>8) & weaveMask8
				a[i&31] ^= t
				a[(i+8)&31] ^= t << 8
			}
		}
	}
	if rows > 4 {
		for b := 0; b < rows; b += 8 {
			for i := b; i < b+4; i++ {
				t := (a[i&31] ^ a[(i+4)&31]>>4) & weaveMask4
				a[i&31] ^= t
				a[(i+4)&31] ^= t << 4
			}
		}
	}
	if rows > 2 {
		for b := 0; b < rows; b += 4 {
			for i := b; i < b+2; i++ {
				t := (a[i&31] ^ a[(i+2)&31]>>2) & weaveMask2
				a[i&31] ^= t
				a[(i+2)&31] ^= t << 2
			}
		}
	}
	if rows > 1 {
		for i := 0; i < rows; i += 2 {
			t := (a[i&31] ^ a[(i+1)&31]>>1) & weaveMask1
			a[i&31] ^= t
			a[(i+1)&31] ^= t << 1
		}
	}
}

// WeaveBlock weaves one block: codes holds a column's 64 consecutive
// rows (zero past the page's last row), planes receives the block's
// plane word at every bit level, level 0 the MSB.
//
//dana:hotpath
func WeaveBlock(codes *[64]uint32, planes *[32]uint64) {
	for r := 0; r < 32; r++ {
		planes[31-r] = uint64(codes[r]) | uint64(codes[r+32])<<32
	}
	transposePlanes(planes, 32)
}

// UnweaveBlock is WeaveBlock's inverse at the top `bits` levels:
// planes[0:bits] are the block's plane words, codes receives the 64
// codes truncated to their top bits (the rest zero). Only the smallest
// power-of-two tile that holds `bits` levels is transposed, so a k-bit
// read does not pay for 32 levels. planes is scratch: it is overwritten.
//
//dana:hotpath
func UnweaveBlock(planes *[32]uint64, bits int, codes *[64]uint32) {
	tile := 1
	for tile < bits {
		tile <<= 1
	}
	for l := bits; l < tile; l++ {
		planes[l&31] = 0
	}
	transposePlanes(planes, tile)
	// Tile g of row i now holds row g+tile-1-i of each half, its levels
	// MSB-first in the tile's `tile` columns.
	up := uint(WeaveMaxBits - tile)
	for g := 0; g < 32; g += tile {
		for i := 0; i < tile; i++ {
			v := planes[i&31] >> uint(g)
			r := (g + tile - 1 - i) & 31
			codes[r] = uint32(v) << up
			codes[r+32] = uint32(v>>32) << up
		}
	}
}
