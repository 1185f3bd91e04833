package storage_test

// FuzzWeavePageDecode lives in the external test package so it can
// drive the internal/weaving extraction engine over arbitrary bytes
// without an import cycle (weaving imports storage).

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"dana/internal/fuzzcorpus"
	"dana/internal/storage"
	"dana/internal/weaving"
)

// weavePageSeeds builds the committed corpus: well-formed weave pages
// (whole and truncated at every structural boundary) plus
// deliberately malformed headers.
func weavePageSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(7))
	build := func(nfeat, nrows int) storage.WeavePage {
		ranges := make([]storage.WeaveRange, nfeat)
		for c := range ranges {
			ranges[c] = storage.WeaveRange{Offset: -1, Scale: 2}
		}
		feats := make([][]float32, nrows)
		labels := make([]float32, nrows)
		for i := range feats {
			row := make([]float32, nfeat)
			for c := range row {
				row[c] = float32(rng.Intn(1<<24))/(1<<23) - 1
			}
			feats[i] = row
			labels[i] = float32(rng.NormFloat64())
		}
		p, err := storage.BuildWeavePage(ranges, feats, labels)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}

	whole := build(3, 130) // 3 plane words: one partial
	tiny := build(1, 1)
	// The block kernels' edges: exactly one plane word, and one row into
	// a second whose padding bits are set (a valid page: no reader may
	// look at them).
	full := build(2, 64)
	padded := build(2, 65)
	for level := 0; level < storage.WeaveMaxBits; level++ {
		for c := 0; c < 2; c++ {
			off := padded.PlaneOffset(level, c) + 8
			binary.LittleEndian.PutUint64(padded[off:], binary.LittleEndian.Uint64(padded[off:])|^uint64(1))
		}
	}

	var seeds [][]byte
	seeds = append(seeds, []byte(whole), []byte(tiny), []byte(full), []byte(padded))
	// Truncations at each structural boundary: header, ranges, labels,
	// mid-plane, one byte short.
	for _, cut := range []int{
		storage.WeaveHeaderSize - 3,
		storage.WeaveHeaderSize,
		storage.WeaveHeaderSize + 2*storage.WeaveRangeSize,
		storage.WeaveHeaderSize + 3*storage.WeaveRangeSize + 4*130,
		len(whole) / 2,
		len(whole) - 1,
	} {
		if cut >= 0 && cut < len(whole) {
			seeds = append(seeds, []byte(whole[:cut]))
		}
	}
	// Malformed headers: wrong magic, wrong version, huge counts, zero
	// scale.
	badMagic := append([]byte(nil), tiny...)
	badMagic[0] ^= 0xFF
	badVersion := append([]byte(nil), tiny...)
	badVersion[4] = 0x7F
	hugeCols := append([]byte(nil), tiny...)
	hugeCols[6], hugeCols[7] = 0xFF, 0xFF
	hugeRows := append([]byte(nil), tiny...)
	hugeRows[8], hugeRows[9], hugeRows[10], hugeRows[11] = 0xFF, 0xFF, 0xFF, 0xFF
	zeroScale := append([]byte(nil), tiny...)
	for i := 0; i < 4; i++ {
		zeroScale[storage.WeaveHeaderSize+4+i] = 0 // Scale float32 = 0
	}
	seeds = append(seeds, badMagic, badVersion, hugeCols, hugeRows, zeroScale)
	return seeds
}

// scalarWeaveValue reads row r's column c the slow way: the code's top
// bits one plane bit at a time through the page's accessors, then the
// scalar dequantization.
func scalarWeaveValue(p storage.WeavePage, bits, r, c int) float32 {
	var q uint32
	for level := 0; level < bits; level++ {
		word := binary.LittleEndian.Uint64(p[p.PlaneOffset(level, c)+r/64*8:])
		q |= uint32(word>>uint(r%64)&1) << uint(storage.WeaveMaxBits-1-level)
	}
	return storage.WeaveDequantize(q, bits, p.Range(c))
}

// FuzzWeavePageDecode throws arbitrary bytes at the weave page reader
// and the any-precision extraction engine: validation and decode must
// fail with the typed weave sentinels on garbage — never panic, never
// over-read, never return rows from an invalid page — and on a valid
// page the block-kernel decode must equal the scalar one bit for bit, at
// the edge precisions, an odd one, and 8, the weave benchmark's.
func FuzzWeavePageDecode(f *testing.F) {
	for _, s := range weavePageSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := storage.WeavePage(data)
		verr := p.Validate()
		if verr != nil && !errors.Is(verr, storage.ErrWeaveCorrupt) {
			t.Fatalf("Validate returned an untyped error: %v", verr)
		}
		for _, bits := range []int{1, 7, 8, 32} {
			e, err := weaving.NewExtractor(bits)
			if err != nil {
				t.Fatal(err)
			}
			rows, derr := e.DecodeRows(p)
			if verr != nil {
				if derr == nil {
					t.Fatalf("decode at %d bits accepted a page Validate rejects (%v)", bits, verr)
				}
				continue
			}
			if derr != nil {
				t.Fatalf("decode at %d bits rejected a valid page: %v", bits, derr)
			}
			if len(rows) != p.NumRows() {
				t.Fatalf("decode at %d bits returned %d rows from a %d-row page", bits, len(rows), p.NumRows())
			}
			ncols := p.NumCols()
			for r, row := range rows {
				if len(row) != ncols+1 {
					t.Fatalf("decode at %d bits: row %d has %d values, page has %d columns", bits, r, len(row), ncols)
				}
				for c, v := range row[:ncols] {
					if want := scalarWeaveValue(p, bits, r, c); math.Float32bits(v) != math.Float32bits(want) {
						t.Fatalf("decode at %d bits: row %d col %d is %v, scalar decode %v", bits, r, c, v, want)
					}
				}
				if math.Float32bits(row[ncols]) != math.Float32bits(p.Label(r)) {
					t.Fatalf("decode at %d bits: row %d label %v, page holds %v", bits, r, row[ncols], p.Label(r))
				}
			}
		}
	})
}

// TestWriteWeaveCorpus regenerates the committed seed corpus when
// DANA_WRITE_FUZZ_CORPUS is set.
func TestWriteWeaveCorpus(t *testing.T) {
	if !fuzzcorpus.ShouldWrite() {
		t.Skipf("set %s=1 to regenerate the corpus", fuzzcorpus.WriteEnv)
	}
	if err := fuzzcorpus.WriteBytes("testdata/fuzz/FuzzWeavePageDecode", weavePageSeeds(t)); err != nil {
		t.Fatal(err)
	}
}
