package weaving

// The gather kernel and the Reweaver against their oracles: the
// bit-at-a-time gather the kernel replaced survives here, and the
// reusable Reweaver must return ReweaveRows' bits at every block size.
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

func kernelPage(seed int64, ncols, nrows int) (storage.WeavePage, error) {
	rows := kernelRowsOf(seed, ncols, nrows)
	feats, labels := make([][]float32, nrows), make([]float32, nrows)
	for i, r := range rows {
		feats[i], labels[i] = r[:ncols], r[ncols]
	}
	return storage.BuildWeavePage(kernelRanges(ncols), feats, labels)
}

type gatherFunc func(p storage.WeavePage, bits int, codes []uint32)

// gatherWith is gatherPlanes with the block kernel swapped: the same
// loop over the same helpers, so with storage.UnweaveBlock it is the
// production gather (which the pre-mutation run shows).
func gatherWith(unweave func(*[32]uint64, int, *[64]uint32)) gatherFunc {
	return func(p storage.WeavePage, bits int, codes []uint32) {
		ncols, nrows, pw := p.NumCols(), p.NumRows(), p.PlaneWords()
		base, levelStride := p.PlaneOffset(0, 0), ncols*pw*8
		var planes [32]uint64
		var block [64]uint32
		for w := 0; w < pw; w++ {
			n := min(64, nrows-w*64)
			word := codes[w*64*ncols : (w*64+n)*ncols]
			for c := 0; c < ncols; c++ {
				if loadPlanes(p, base+(c*pw+w)*8, levelStride, bits, &planes) == 0 {
					block = [64]uint32{}
				} else {
					unweave(&planes, bits, &block)
				}
				storeCodes(word, ncols, c, n, &block)
			}
		}
	}
}

// diffGather holds gather to the scalar gather at every precision over
// the kernel geometries. The scratch arrives dirty: the kernel's
// contract is that it writes every code.
func diffGather(gather gatherFunc) error {
	for _, nrows := range kernelRows {
		for _, ncols := range kernelCols {
			p, err := kernelPage(int64(1000*nrows+ncols), ncols, nrows)
			if err != nil {
				return err
			}
			got, want := make([]uint32, nrows*ncols), make([]uint32, nrows*ncols)
			for bits := 1; bits <= storage.WeaveMaxBits; bits++ {
				for i := range got {
					got[i] = 0xDEADBEEF
				}
				gather(p, bits, got)
				gatherPlanesScalar(p, bits, want)
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("%d rows × %d cols at %d bits: row %d col %d gathered %#08x, scalar gather %#08x",
							nrows, ncols, bits, i/ncols, i%ncols, got[i], want[i])
					}
				}
			}
		}
	}
	return nil
}

func TestGatherPlanesMatchesScalar(t *testing.T) {
	if err := diffGather(gatherPlanes); err != nil {
		t.Fatal(err)
	}
}

// Padding bits past the last row of a partial word are not the page's to
// define: both gathers must ignore them.
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
	got, want := make([]uint32, 70*3), make([]uint32, 70*3)
	for _, bits := range []int{1, 8, 32} {
		gatherPlanes(p, bits, got)
		gatherPlanesScalar(p, bits, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bits %d: code %d gathered %#08x, scalar gather %#08x", bits, i, got[i], want[i])
			}
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
// prefixes and code scratch scribbled over between epochs — to the scalar
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
				for j := range w.ex.codes[:cap(w.ex.codes)] {
					w.ex.codes[:cap(w.ex.codes)][j] = 0xDEADBEEF
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

// gatherMutants are the gather with one fault each.
var gatherMutants = map[string]gatherFunc{
	// The kernel's store order flipped in each 32-row half.
	"codes stored un-reversed": gatherWith(func(planes *[32]uint64, bits int, block *[64]uint32) {
		storage.UnweaveBlock(planes, bits, block)
		for r := 0; r < 16; r++ {
			block[r], block[31-r] = block[31-r], block[r]
			block[32+r], block[63-r] = block[63-r], block[32+r]
		}
	}),
	"high 32-row half dropped": gatherWith(func(planes *[32]uint64, bits int, block *[64]uint32) {
		for l := range planes {
			planes[l] &= 1<<32 - 1
		}
		storage.UnweaveBlock(planes, bits, block)
	}),
	// The old contract: skip the all-zero block and trust a cleared
	// scratch, which nothing clears any more.
	"stale codes left under an all-zero block": func(p storage.WeavePage, bits int, codes []uint32) {
		keep := append([]uint32(nil), codes...)
		gatherPlanes(p, bits, codes)
		for i, q := range codes {
			if q == 0 {
				codes[i] = keep[i]
			}
		}
	},
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
	if err := diffGather(gatherWith(storage.UnweaveBlock)); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	for name, gather := range gatherMutants {
		t.Run(name, func(t *testing.T) {
			err := diffGather(gather)
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
