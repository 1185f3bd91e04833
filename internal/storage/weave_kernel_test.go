package storage

// The block kernels against their oracle: the bit-at-a-time builder the
// kernels replaced survives here, and BuildWeavePage must match it byte
// for byte at every geometry. The mutation meta-tests plant one kernel
// fault each and require the same differential to go red.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// buildWeavePageScalar is the reference builder: every set bit of every
// code is OR'd into its plane word on its own. The inputs must be ones
// BuildWeavePage accepts.
func buildWeavePageScalar(ranges []WeaveRange, feats [][]float32, labels []float32) WeavePage {
	ncols, nrows := len(ranges), len(feats)
	pw := weavePlaneWords(nrows)
	p := WeavePage(make([]byte, WeavePageSize(ncols, nrows)))
	binary.LittleEndian.PutUint32(p, WeaveMagic)
	binary.LittleEndian.PutUint16(p[4:], WeaveVersion)
	binary.LittleEndian.PutUint16(p[6:], uint16(ncols))
	binary.LittleEndian.PutUint32(p[8:], uint32(nrows))
	binary.LittleEndian.PutUint32(p[12:], uint32(pw))
	for c, r := range ranges {
		off := p.rangeOff() + c*WeaveRangeSize
		binary.LittleEndian.PutUint32(p[off:], math.Float32bits(r.Offset))
		binary.LittleEndian.PutUint32(p[off+4:], math.Float32bits(r.Scale))
	}
	for i, lb := range labels {
		binary.LittleEndian.PutUint32(p[p.labelOff()+4*i:], math.Float32bits(lb))
	}
	for row, vals := range feats {
		word, bit := row/64, uint(row%64)
		for c, v := range vals {
			q := WeaveQuantize(v, ranges[c])
			for level := 0; level < WeaveMaxBits; level++ {
				if q&(1<<uint(WeaveMaxBits-1-level)) == 0 {
					continue
				}
				off := p.planeOff() + ((level*ncols+c)*pw+word)*8
				w := binary.LittleEndian.Uint64(p[off:])
				binary.LittleEndian.PutUint64(p[off:], w|uint64(1)<<bit)
			}
		}
	}
	return p
}

var (
	kernelRows = []int{1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000}
	kernelCols = []int{1, 2, 7, 54, 384}
)

// kernelInputs draws one seeded geometry over the range {-1, 2}. Columns
// cycle through five kinds so that every block shape occurs next to
// every other: uniform values, the 2⁻²⁴ grid, values far outside the
// range on both sides (saturating), specials (NaN, ±Inf, ±0), and a
// column that sits on the range's low edge (all-zero planes).
func kernelInputs(seed int64, ncols, nrows int) ([]WeaveRange, [][]float32, []float32) {
	rng := rand.New(rand.NewSource(seed))
	ranges := make([]WeaveRange, ncols)
	for c := range ranges {
		ranges[c] = WeaveRange{Offset: -1, Scale: 2}
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	feats := make([][]float32, nrows)
	labels := make([]float32, nrows)
	for r := range feats {
		row := make([]float32, ncols)
		for c := range row {
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
		feats[r] = row
		labels[r] = float32(rng.NormFloat64())
	}
	return ranges, feats, labels
}

type weaveBuilder func(ranges []WeaveRange, feats [][]float32, labels []float32) (WeavePage, error)

// diffBuild holds build to the scalar builder, byte for byte, over the
// kernel geometries.
func diffBuild(build weaveBuilder) error {
	for _, nrows := range kernelRows {
		for _, ncols := range kernelCols {
			ranges, feats, labels := kernelInputs(int64(1000*nrows+ncols), ncols, nrows)
			got, err := build(ranges, feats, labels)
			if err != nil {
				return fmt.Errorf("%d rows × %d cols: %w", nrows, ncols, err)
			}
			if err := got.Validate(); err != nil {
				return fmt.Errorf("%d rows × %d cols: %w", nrows, ncols, err)
			}
			want := buildWeavePageScalar(ranges, feats, labels)
			if i := firstDiff(got, want); i >= 0 {
				return fmt.Errorf("%d rows × %d cols: byte %d is %#02x, scalar builder wrote %#02x (planes start at %d)",
					nrows, ncols, i, got[i], want[i], got.planeOff())
			}
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestBuildWeavePageMatchesScalar(t *testing.T) {
	if err := diffBuild(BuildWeavePage); err != nil {
		t.Fatal(err)
	}
}

// The buffer-taking form must not depend on what the buffer held: a
// dirty, larger buffer gives the allocating form's bytes, in place.
func TestBuildWeavePageIntoDirtyBuffer(t *testing.T) {
	var buf []byte
	err := diffBuild(func(ranges []WeaveRange, feats [][]float32, labels []float32) (WeavePage, error) {
		size := WeavePageSize(len(ranges), len(feats))
		buf = bytes.Repeat([]byte{0xA5}, size+64)
		p, err := BuildWeavePageInto(buf, ranges, feats, labels)
		if err == nil && &p[0] != &buf[0] {
			t.Errorf("%d rows × %d cols: page not built in the buffer handed in", len(feats), len(ranges))
		}
		for i, b := range buf[size:] {
			if b != 0xA5 {
				t.Fatalf("%d rows × %d cols: byte %d past the page was written", len(feats), len(ranges), i)
			}
		}
		return p, err
	})
	if err != nil {
		t.Fatal(err)
	}

	ranges, feats, labels := kernelInputs(1, 3, 70)
	small := bytes.Repeat([]byte{0xA5}, 16)
	p, err := BuildWeavePageInto(small, ranges, feats, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, buildWeavePageScalar(ranges, feats, labels)) {
		t.Fatal("undersized buffer: fresh page differs from the scalar builder's")
	}
	if !bytes.Equal(small, bytes.Repeat([]byte{0xA5}, 16)) {
		t.Fatal("undersized buffer was written")
	}
}

// scalarBlock is the block kernels' own oracle: plane word `level` bit r
// is code r's bit 31-level.
func scalarBlock(codes *[64]uint32) (planes [32]uint64) {
	for r, q := range codes {
		for level := 0; level < 32; level++ {
			planes[level] |= uint64(q>>uint(31-level)&1) << uint(r)
		}
	}
	return planes
}

func TestWeaveBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var codes [64]uint32
		for r := range codes {
			codes[r] = rng.Uint32() >> uint(rng.Intn(33)) << uint(rng.Intn(8))
		}
		var planes [32]uint64
		WeaveBlock(&codes, &planes)
		if want := scalarBlock(&codes); planes != want {
			t.Fatalf("trial %d: WeaveBlock differs from the bit-at-a-time block", trial)
		}
		for bits := 1; bits <= WeaveMaxBits; bits++ {
			scratch := planes
			// Levels the read does not load must not be looked at.
			for l := bits; l < 32; l++ {
				scratch[l] = ^uint64(0)
			}
			var back [64]uint32
			UnweaveBlock(&scratch, bits, &back)
			for r, q := range codes {
				if want := q >> uint(32-bits) << uint(32-bits); back[r] != want {
					t.Fatalf("trial %d bits %d row %d: unwove %#08x, want %#08x", trial, bits, r, back[r], want)
				}
			}
		}
	}
}

// transposeLooped is Hacker's Delight 7-3 as printed — one loop, the
// shift a variable — with the stage masks as data, so a test can hand it
// a wrong one.
func transposeLooped(a *[32]uint64, masks [5]uint64) {
	for s, j := 0, 16; j != 0; s, j = s+1, j>>1 {
		for k := 0; k < 32; k = (k + j + 1) &^ j {
			t := (a[k] ^ a[k+j]>>uint(j)) & masks[s]
			a[k] ^= t
			a[k+j] ^= t << uint(j)
		}
	}
}

var weaveMasks = [5]uint64{weaveMask16, weaveMask8, weaveMask4, weaveMask2, weaveMask1}

func TestTransposePlanesMatchesLoopedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var a, b [32]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	b = a
	transposePlanes(&a, 32)
	transposeLooped(&b, weaveMasks)
	if a != b {
		t.Fatal("unrolled stages differ from the looped form")
	}
	transposePlanes(&a, 32)
	transposeLooped(&b, weaveMasks)
	if a != b {
		t.Fatal("unrolled stages differ from the looped form on the way back")
	}
}

// weaveMutants are WeaveBlock with one fault each.
var weaveMutants = []struct {
	name  string
	weave func(codes *[64]uint32, planes *[32]uint64)
}{
	{"rows loaded un-reversed", func(codes *[64]uint32, planes *[32]uint64) {
		for r := 0; r < 32; r++ {
			planes[r] = uint64(codes[r]) | uint64(codes[r+32])<<32
		}
		transposePlanes(planes, 32)
	}},
	{"high 32-row half dropped", func(codes *[64]uint32, planes *[32]uint64) {
		for r := 0; r < 32; r++ {
			planes[31-r] = uint64(codes[r])
		}
		transposePlanes(planes, 32)
	}},
	{"stage-4 mask shifted", func(codes *[64]uint32, planes *[32]uint64) {
		for r := 0; r < 32; r++ {
			planes[31-r] = uint64(codes[r]) | uint64(codes[r+32])<<32
		}
		masks := weaveMasks
		masks[2] <<= 1
		transposeLooped(planes, masks)
	}},
	// The builder reuses one plane array for every block: a kernel that
	// skips the words it has nothing to set leaves the last block's.
	{"stale plane word in the reused block buffer", func(codes *[64]uint32, planes *[32]uint64) {
		var fresh [32]uint64
		WeaveBlock(codes, &fresh)
		for level, w := range fresh {
			if w != 0 {
				planes[level] = w
			}
		}
	}},
}

// mutantBuilder is BuildWeavePage with the block kernel swapped: the
// plane loop is weavePlanes' over the same helpers, so with WeaveBlock
// it is the production builder (which the pre-mutation run shows).
func mutantBuilder(weave func(*[64]uint32, *[32]uint64)) weaveBuilder {
	return func(ranges []WeaveRange, feats [][]float32, labels []float32) (WeavePage, error) {
		ncols, nrows := len(ranges), len(feats)
		p := WeavePage(make([]byte, WeavePageSize(ncols, nrows)))
		planeBase, pw := weaveFixed(p, ranges, labels), weavePlaneWords(nrows)
		var codes weaveCodes
		var planes [32]uint64
		for w := 0; w < pw; w++ {
			rows := feats[w*64 : min(w*64+64, nrows)]
			if len(rows) < 64 {
				codes = weaveCodes{}
			}
			for c0 := 0; c0 < ncols; c0 += weaveChunkCols {
				chunk := ranges[c0:min(c0+weaveChunkCols, ncols)]
				quantizeChunk(&codes, rows, chunk, c0)
				for i := range chunk {
					weave(&codes[i], &planes)
					storePlanes(p, planeBase+((c0+i)*pw+w)*8, ncols*pw*8, &planes)
				}
			}
		}
		return p, nil
	}
}

func TestMetaWeaveKernelFaultsCaught(t *testing.T) {
	if err := diffBuild(mutantBuilder(WeaveBlock)); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	for _, m := range weaveMutants {
		t.Run(m.name, func(t *testing.T) {
			err := diffBuild(mutantBuilder(m.weave))
			if err == nil {
				t.Fatal("mutant passed the differential: the check cannot fail")
			}
			t.Log(err)
		})
	}
}

// weaveRangesColumnMajor is WeaveRanges as it was: every row once per
// column.
func weaveRangesColumnMajor(feats [][]float32, ncols int) []WeaveRange {
	ranges := make([]WeaveRange, ncols)
	for c := range ranges {
		lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
		for _, row := range feats {
			if c >= len(row) {
				continue
			}
			if v := row[c]; v < lo {
				lo = v
			}
			if v := row[c]; v > hi {
				hi = v
			}
		}
		if lo > hi {
			lo, hi = 0, 0
		}
		scale := float32(1)
		if spread := hi - lo; spread > 0 && !math.IsInf(float64(spread), 0) {
			scale = math.Nextafter32(spread, float32(math.Inf(1)))
		}
		ranges[c] = WeaveRange{Offset: lo, Scale: scale}
	}
	return ranges
}

func TestWeaveRangesMatchesColumnMajor(t *testing.T) {
	nz := float32(math.Copysign(0, -1))
	cases := map[string][][]float32{
		"zero rows":      nil,
		"signed zeros":   {{0, nz, 1}, {nz, 0, 1}},
		"constant":       {{3, 3}, {3, 3}, {3, 3}},
		"all NaN column": {{float32(math.NaN()), 1}, {float32(math.NaN()), 2}},
		"infinities":     {{float32(math.Inf(1)), float32(math.Inf(-1)), 5}, {0, 0, float32(math.Inf(1))}},
		"ragged":         {{1, 2, 3, 4}, {5}, {}, {-1, 7}, {0, 0, 0, 0, 9, 9}},
	}
	rng := rand.New(rand.NewSource(5))
	for seed := 0; seed < 8; seed++ {
		_, feats, _ := kernelInputs(int64(seed), 1+rng.Intn(12), rng.Intn(200))
		for r := range feats {
			feats[r] = feats[r][:rng.Intn(len(feats[r])+1)]
		}
		cases[fmt.Sprintf("seed %d", seed)] = feats
	}
	for name, feats := range cases {
		for _, ncols := range []int{1, 3, 5, 12} {
			got, want := WeaveRanges(feats, ncols), weaveRangesColumnMajor(feats, ncols)
			for c := range want {
				if math.Float32bits(got[c].Offset) != math.Float32bits(want[c].Offset) ||
					math.Float32bits(got[c].Scale) != math.Float32bits(want[c].Scale) {
					t.Errorf("%s, %d cols: column %d is %+v, column-major form gives %+v", name, ncols, c, got[c], want[c])
				}
			}
		}
	}
}
