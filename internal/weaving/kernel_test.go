package weaving

// The decode pass and the Reweaver against their oracles: the pass must
// write the rows the bit-at-a-time gather it replaced, followed by the
// scalar dequantization, would — both survive here — and the reusable
// Reweaver must return ReweaveRows' bits at every block size.
// The mutation meta-tests plant one fault each and require the same
// differentials to go red.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dana/internal/storage"
)

// gatherPlanesScalar is the reference gather: one set bit of one plane
// word at a time into codes, which it clears first.
func gatherPlanesScalar(p storage.WeavePage, bits int, codes []uint32) {
	for i := range codes {
		codes[i] = 0
	}
	ncols, nrows, pw := p.NumCols(), p.NumRows(), p.PlaneWords()
	base := p.PlaneOffset(0, 0)
	for level := 0; level < bits; level++ {
		shift := uint(storage.WeaveMaxBits - 1 - level)
		for c := 0; c < ncols; c++ {
			off := base + ((level*ncols+c)*pw)*8
			for w := 0; w < pw; w++ {
				word := binary.LittleEndian.Uint64(p[off+w*8:])
				for word != 0 {
					// Isolate the lowest set bit: row w*64+tz has this level set.
					tz := trailingZeros64(word)
					word &= word - 1
					r := w*64 + tz
					if r >= nrows {
						break
					}
					codes[r*ncols+c] |= 1 << shift
				}
			}
		}
	}
}

// trailingZeros64 is bits.TrailingZeros64 in the de Bruijn sequence
// form, branch-free.
func trailingZeros64(x uint64) int {
	if x == 0 {
		return 64
	}
	return int(deBruijnIdx[(x&-x)*0x03f79d71b4ca8b09>>58])
}

var deBruijnIdx = [64]byte{
	0, 1, 56, 2, 57, 49, 28, 3, 61, 58, 42, 50, 38, 29, 17, 4,
	62, 47, 59, 36, 45, 43, 51, 22, 53, 39, 33, 30, 24, 18, 12, 5,
	63, 55, 48, 27, 60, 41, 37, 16, 46, 35, 44, 21, 52, 32, 23, 11,
	54, 26, 40, 15, 34, 20, 31, 10, 25, 14, 19, 9, 13, 8, 7, 6,
}

var (
	kernelRows = []int{1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000}
	kernelCols = []int{1, 2, 7, 54, 384}
)

// kernelRowsOf draws nrows rows of ncols features plus a label. Columns
// cycle through uniform values, the 2⁻²⁴ grid of {-1, 2}, values far
// outside it (saturating), specials, and a constant, so sparse and dense
// blocks sit next to each other.
func kernelRowsOf(seed int64, ncols, nrows int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	rows := make([][]float32, nrows)
	for r := range rows {
		row := make([]float32, ncols+1)
		for c := 0; c < ncols; c++ {
			switch c % 5 {
			case 0:
				row[c] = 2*rng.Float32() - 1
			case 1:
				row[c] = float32(rng.Intn(1<<24))/(1<<23) - 1
			case 2:
				row[c] = float32(rng.NormFloat64() * 4)
			case 3:
				row[c] = specials[rng.Intn(len(specials))]
			case 4:
				row[c] = -1
			}
		}
		row[ncols] = float32(rng.NormFloat64())
		rows[r] = row
	}
	return rows
}

func kernelRanges(ncols int) []storage.WeaveRange {
	ranges := make([]storage.WeaveRange, ncols)
	for c := range ranges {
		ranges[c] = gridRange
	}
	return ranges
}

// pageRanges are the ranges kernelPage weaves against, cycling per column
// (a cycle of 7 against kernelRowsOf's 5, so every value kind meets every
// range): the grid; a negative-zero offset, whose zero code dequantizes
// to +0, not to the offset; a narrow range nearly every value saturates;
// and a range whose upper codes dequantize past float32's maximum, to +Inf.
var pageRanges = []storage.WeaveRange{
	gridRange,
	{Offset: float32(math.Copysign(0, -1)), Scale: 1},
	gridRange,
	{Offset: 0.25, Scale: 1e-6},
	gridRange,
	{Offset: 3e38, Scale: 3e38},
	{Offset: -0.5, Scale: 0.75},
}

func kernelPage(seed int64, ncols, nrows int) (storage.WeavePage, error) {
	rows := kernelRowsOf(seed, ncols, nrows)
	feats, labels := make([][]float32, nrows), make([]float32, nrows)
	for i, r := range rows {
		feats[i], labels[i] = r[:ncols], r[ncols]
	}
	ranges := make([]storage.WeaveRange, ncols)
	for c := range ranges {
		ranges[c] = pageRanges[c%len(pageRanges)]
	}
	return storage.BuildWeavePage(ranges, feats, labels)
}

type decodeFunc func(e *Extractor, p storage.WeavePage, slab []float32, rows [][]float32)

// passFaults are the faults decodeWith can plant; the zero value plants
// none.
type passFaults struct {
	unweave    func(*[32]uint64, int, *[64]uint32) // the block kernel (nil: storage.UnweaveBlock)
	skipZero   bool                                // an all-zero block writes nothing
	zeroAsZero bool                                // an all-zero block writes 0, not its q = 0 value
	noLabel    bool                                // the label is not written
	tileShift  bool                                // codes shift down by 32 − tile, not 32 − k
}

// decodeWith is decodeInto with the faults in f planted: the same pass
// over the same helpers, so with none it is the production pass (which
// the pre-mutation run shows).
func decodeWith(f passFaults) decodeFunc {
	unweave := f.unweave
	if unweave == nil {
		unweave = storage.UnweaveBlock
	}
	return func(e *Extractor, p storage.WeavePage, slab []float32, rows [][]float32) {
		ncols, nrows, pw := p.NumCols(), p.NumRows(), p.PlaneWords()
		width := ncols + 1
		for r := range rows {
			row := slab[r*width : (r+1)*width : (r+1)*width]
			if !f.noLabel {
				row[ncols] = p.Label(r)
			}
			rows[r] = row
		}
		e.offs, e.scales = e.offs[:ncols], e.scales[:ncols]
		for c := range e.offs {
			r := p.Range(c)
			e.offs[c], e.scales[c] = float64(r.Offset), float64(r.Scale)
		}
		base, levelStride := p.PlaneOffset(0, 0), ncols*pw*8
		shift := e.bits
		for f.tileShift && shift&(shift-1) != 0 {
			shift++
		}
		down := uint(storage.WeaveMaxBits - shift)
		var planes [32]uint64
		var block [64]uint32
		for w := 0; w < pw; w++ {
			n := min(64, nrows-w*64)
			word := slab[w*64*width : (w*64+n)*width]
			for c, off := range e.offs {
				scale := e.scales[c]
				if loadPlanes(p, base+(c*pw+w)*8, levelStride, e.bits, &planes) == 0 {
					if f.skipZero {
						continue
					}
					v := dequantize(0, down, off, scale, e.inv)
					if f.zeroAsZero {
						v = 0
					}
					for i := c; i < len(word); i += width {
						word[i] = v
					}
					continue
				}
				unweave(&planes, e.bits, &block)
				for r := 0; r < n; r++ {
					word[r*width+c] = dequantize(block[r&63], down, off, scale, e.inv)
				}
			}
		}
	}
}

// dirtyValue is what a slab holds before a decode: a NaN no decode
// produces, so an unwritten value shows by its bits.
var dirtyValue = math.Float32frombits(0x7FDEADBE)

// checkDecoded holds rows decoded from p at bits to the scalar gather plus
// the scalar dequantization (storage.WeaveDequantize), float32 bit for
// bit, and their labels to the page's. codes is the scalar gather's
// scratch.
func checkDecoded(p storage.WeavePage, bits int, rows [][]float32, codes []uint32) error {
	ncols := p.NumCols()
	gatherPlanesScalar(p, bits, codes)
	for r, row := range rows {
		if len(row) != ncols+1 {
			return fmt.Errorf("row %d has %d values, want %d", r, len(row), ncols+1)
		}
		for c, v := range row[:ncols] {
			want := storage.WeaveDequantize(codes[r*ncols+c], bits, p.Range(c))
			if math.Float32bits(v) != math.Float32bits(want) {
				return fmt.Errorf("row %d col %d decoded %v (%#08x), scalar gather and dequantize %v (%#08x)",
					r, c, v, math.Float32bits(v), want, math.Float32bits(want))
			}
		}
		if got, want := row[ncols], p.Label(r); math.Float32bits(got) != math.Float32bits(want) {
			return fmt.Errorf("row %d label %v (%#08x), page holds %v", r, got, math.Float32bits(got), want)
		}
	}
	return nil
}

// diffDecode holds the pass to the scalar gather and dequantization at
// every precision over the kernel geometries. The slab arrives dirty: the
// pass's contract is that it writes every value.
func diffDecode(decode decodeFunc) error {
	for _, nrows := range kernelRows {
		for _, ncols := range kernelCols {
			p, err := kernelPage(int64(1000*nrows+ncols), ncols, nrows)
			if err != nil {
				return err
			}
			slab, rows, codes := make([]float32, nrows*(ncols+1)), make([][]float32, nrows), make([]uint32, nrows*ncols)
			for bits := 1; bits <= storage.WeaveMaxBits; bits++ {
				e, err := NewExtractor(bits)
				if err != nil {
					return err
				}
				e.prepare(ncols)
				for i := range slab {
					slab[i] = dirtyValue
				}
				decode(e, p, slab, rows)
				if err := checkDecoded(p, bits, rows, codes); err != nil {
					return fmt.Errorf("%d rows × %d cols at %d bits: %w", nrows, ncols, bits, err)
				}
			}
		}
	}
	return nil
}

// The production pass against the scalar gather and dequantization.
func TestGatherPlanesMatchesScalar(t *testing.T) {
	if err := diffDecode((*Extractor).decodeInto); err != nil {
		t.Fatal(err)
	}
}

// Padding bits past the last row of a partial word are not the page's to
// define: the pass, like the scalar gather, must ignore them.
func TestGatherPlanesIgnoresPadding(t *testing.T) {
	p, err := kernelPage(9, 3, 70)
	if err != nil {
		t.Fatal(err)
	}
	const padding = ^uint64(1<<6 - 1) // word 1 holds rows 64..69
	for level := 0; level < storage.WeaveMaxBits; level++ {
		for c := 0; c < 3; c++ {
			off := p.PlaneOffset(level, c) + 8
			binary.LittleEndian.PutUint64(p[off:], binary.LittleEndian.Uint64(p[off:])|padding)
		}
	}
	slab, rows, codes := make([]float32, 70*4), make([][]float32, 70), make([]uint32, 70*3)
	for _, bits := range []int{1, 8, 32} {
		e, err := NewExtractor(bits)
		if err != nil {
			t.Fatal(err)
		}
		e.prepare(3)
		e.decodeInto(p, slab, rows)
		if err := checkDecoded(p, bits, rows, codes); err != nil {
			t.Fatalf("bits %d: %v", bits, err)
		}
	}
}

// reweaveBlockRows are the functional block sizes the Reweaver is held
// to ReweaveRows at, next to the modeled geometry's own page rows.
var reweaveBlockRows = []int{64, 128, 1024}

type reweaveFunc func(w *Reweaver, rows [][]float32, ranges []storage.WeaveRange) ([][]float32, error)

func reweaveDirect(w *Reweaver, rows [][]float32, ranges []storage.WeaveRange) ([][]float32, error) {
	out, _, err := w.Reweave(rows, ranges)
	return out, err
}

// diffReweaver holds a Reweaver that is reused — across epochs of
// different sizes and widths, at every block size, its page, held
// prefixes and output slab scribbled over between epochs — to the scalar
// pipeline (quantize, truncate, dequantize per value) and to a fresh
// ReweaveRows, float32 bit for bit.
func diffReweaver(reweave reweaveFunc, newExtractor func(bits int) (*Extractor, error)) error {
	shapes := []struct{ ncols, nrows int }{{54, 300}, {7, 129}, {384, 65}, {2, 1}, {54, 300}}
	// The modeled page rows of these widths at 8 KB: 1 (54 and 384
	// features), 236 and 640.
	blocks := append([]int(nil), reweaveBlockRows...)
	for _, ncols := range []int{54, 7, 2} {
		blocks = append(blocks, storage.WeavePageRows(storage.PageSize8K, ncols))
	}
	for _, bits := range []int{1, 8, 32} {
		for _, block := range blocks {
			w, err := NewReweaver(bits, block)
			if err != nil {
				return err
			}
			if w.ex, err = newExtractor(bits); err != nil {
				return err
			}
			for i, sh := range shapes {
				rows := kernelRowsOf(int64(i), sh.ncols, sh.nrows)
				ranges := kernelRanges(sh.ncols)
				// Whatever the last epoch left behind must not show.
				for _, buf := range [][]byte{w.page, w.own.data[:cap(w.own.data)]} {
					for j := range buf {
						buf[j] = 0xA5
					}
				}
				for j := range w.slab[:cap(w.slab)] {
					w.slab[:cap(w.slab)][j] = dirtyValue
				}
				got, err := reweave(w, rows, ranges)
				if err != nil {
					return err
				}
				want, _, err := ReweaveRows(rows, ranges, bits, block)
				if err != nil {
					return err
				}
				if len(got) != len(rows) || len(want) != len(rows) {
					return fmt.Errorf("bits %d block %d: %d and %d rows back from %d", bits, block, len(got), len(want), len(rows))
				}
				for r, row := range rows {
					for c, v := range row {
						model := v // the label
						if c < sh.ncols {
							model = storage.WeaveDequantize(storage.WeaveQuantize(v, ranges[c]), bits, ranges[c])
						}
						if math.Float32bits(got[r][c]) != math.Float32bits(model) {
							return fmt.Errorf("bits %d block %d shape %d×%d row %d col %d: rewove %v, scalar model %v",
								bits, block, sh.nrows, sh.ncols, r, c, got[r][c], model)
						}
						if math.Float32bits(want[r][c]) != math.Float32bits(model) {
							return fmt.Errorf("bits %d block %d shape %d×%d row %d col %d: ReweaveRows %v, scalar model %v",
								bits, block, sh.nrows, sh.ncols, r, c, want[r][c], model)
						}
					}
				}
			}
		}
	}
	return nil
}

// reweaverGreen is the differential on the unmutated Reweaver, run once
// for the test that is about it and the meta-test that needs it green.
var reweaverGreen = sync.OnceValue(func() error { return diffReweaver(reweaveDirect, NewExtractor) })

func TestReweaverMatchesReweaveRows(t *testing.T) {
	if err := reweaverGreen(); err != nil {
		t.Fatal(err)
	}
}

// ReweaveRows hands its rows over: a later call must not touch them.
func TestReweaveRowsAreCallerOwned(t *testing.T) {
	rows := kernelRowsOf(1, 5, 200)
	first, _, err := ReweaveRows(rows, kernelRanges(5), 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	keep := make([][]float32, len(first))
	for i, r := range first {
		keep[i] = append([]float32(nil), r...)
	}
	if _, _, err := ReweaveRows(kernelRowsOf(2, 5, 200), kernelRanges(5), 8, 64); err != nil {
		t.Fatal(err)
	}
	for i := range keep {
		for c := range keep[i] {
			if math.Float32bits(first[i][c]) != math.Float32bits(keep[i][c]) {
				t.Fatalf("row %d col %d changed under a later ReweaveRows", i, c)
			}
		}
	}
}

func TestReweaveRejects(t *testing.T) {
	w, err := NewReweaver(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		rows   [][]float32
		ranges []storage.WeaveRange
	}{
		"label only":       {[][]float32{{1}}, nil},
		"ragged":           {[][]float32{{1, 2, 3}, {1, 2}}, nil},
		"too many ranges":  {[][]float32{{1, 2, 3}}, kernelRanges(3)},
		"too few ranges":   {[][]float32{{1, 2, 3}}, kernelRanges(1)},
		"invalid range":    {[][]float32{{1, 2}}, []storage.WeaveRange{{Offset: 0, Scale: 0}}},
		"non-finite range": {[][]float32{{1, 2}}, []storage.WeaveRange{{Offset: float32(math.Inf(1)), Scale: 1}}},
	} {
		if _, _, err := w.Reweave(tc.rows, tc.ranges); !errors.Is(err, storage.ErrWeaveUnsupported) {
			t.Errorf("%s: err = %v, want ErrWeaveUnsupported", name, err)
		}
	}
	if out, ranges, err := w.Reweave(nil, kernelRanges(2)); out != nil || len(ranges) != 2 || err != nil {
		t.Errorf("no rows: %v, %v, %v", out, ranges, err)
	}
	if _, err := NewReweaver(33, 64); err == nil {
		t.Error("NewReweaver(33) accepted")
	}
}

func TestReweaverSteadyStateAllocations(t *testing.T) {
	rows := kernelRowsOf(3, 54, 2904)
	ranges := kernelRanges(54)
	w, err := NewReweaver(8, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Reweave(rows, ranges); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := w.Reweave(rows, ranges); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reweave allocates %v times per call from the second call on, want 0", allocs)
	}
}

// Mutation meta-tests. Each plants one fault in the side under test and
// requires the differential to report it, after the same harness passed
// without the fault.

// passMutants are the pass with one fault each.
var passMutants = map[string]passFaults{
	// The kernel's store order flipped in each 32-row half.
	"codes stored un-reversed": {unweave: func(planes *[32]uint64, bits int, block *[64]uint32) {
		storage.UnweaveBlock(planes, bits, block)
		for r := 0; r < 16; r++ {
			block[r], block[31-r] = block[31-r], block[r]
			block[32+r], block[63-r] = block[63-r], block[32+r]
		}
	}},
	"high 32-row half dropped": {unweave: func(planes *[32]uint64, bits int, block *[64]uint32) {
		for l := range planes {
			planes[l] &= 1<<32 - 1
		}
		storage.UnweaveBlock(planes, bits, block)
	}},
	// Skip the all-zero block and trust a cleared slab, which nothing
	// clears.
	"stale codes left under an all-zero block":          {skipZero: true},
	"all-zero block filled with 0, not its q = 0 value": {zeroAsZero: true},
	"label not written":                                 {noLabel: true},
	"codes shifted by 32 − tile, not 32 − k":            {tileShift: true},
}

// nonPowerOfTwo plants the dequantization fault: scaling codes onto
// [0, 1] divides by 2ᵏ-1, whose reciprocal is not exact, and neither
// form is the model's x/2ᵏ.
func nonPowerOfTwo(bits int) (*Extractor, error) {
	e, err := NewExtractor(bits)
	if err == nil {
		e.inv = 1 / float64(uint64(1)<<uint(bits)-1)
	}
	return e, err
}

func TestMetaGatherFaultsCaught(t *testing.T) {
	if err := diffDecode(decodeWith(passFaults{})); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	for name, faults := range passMutants {
		t.Run(name, func(t *testing.T) {
			err := diffDecode(decodeWith(faults))
			if err == nil {
				t.Fatal("mutant passed the differential: the check cannot fail")
			}
			t.Log(err)
		})
	}
}

func TestMetaReweaverFaultsCaught(t *testing.T) {
	if err := reweaverGreen(); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	t.Run("division restored with a non-power-of-two", func(t *testing.T) {
		err := diffReweaver(reweaveDirect, nonPowerOfTwo)
		if err == nil {
			t.Fatal("mutant passed the differential: the check cannot fail")
		}
		t.Log(err)
	})
}
