package verify

// Oracle W: the any-precision weave data path. Ground-truth feature
// rows quantized into the vertical bit-plane layout must decode back
// exactly per the scalar quantization model at every read precision —
// bit-exact reconstruction at k=32 for values on the range grid,
// bounded quantization error at k<32, labels exact always.

import (
	"fmt"
	"math"

	"dana/internal/storage"
	"dana/internal/weaving"
)

// WeaveScenario is a seeded ground truth for the weave oracle: feature
// rows on the quantization grid of fixed ranges, labels, and the built
// weave pages.
type WeaveScenario struct {
	Feats  [][]float32
	Labels []float32
	Ranges []storage.WeaveRange
	Pages  []storage.WeavePage
}

// WeaveScenario generates maxRows-bounded rows over 1..8 feature
// columns. Every feature sits on the 2⁻²³ grid of the fixed range
// {Offset: -1, Scale: 2}, so a full-width read reconstructs it
// bit-for-bit; labels are arbitrary float32s (they bypass
// quantization).
func (g *Gen) WeaveScenario(pageSize, maxRows int) (*WeaveScenario, error) {
	nfeat := 1 + g.rng.Intn(8)
	nrows := 1 + g.rng.Intn(maxRows)
	sc := &WeaveScenario{
		Feats:  make([][]float32, nrows),
		Labels: make([]float32, nrows),
		Ranges: make([]storage.WeaveRange, nfeat),
	}
	for c := range sc.Ranges {
		sc.Ranges[c] = storage.WeaveRange{Offset: -1, Scale: 2}
	}
	for i := range sc.Feats {
		row := make([]float32, nfeat)
		for c := range row {
			// n·2⁻²³ − 1 is exact in float32 for n < 2²⁴ and survives
			// Q0.32 quantization against {−1, 2} without rounding.
			n := g.rng.Intn(1 << 24)
			row[c] = float32(n)/(1<<23) - 1
		}
		sc.Feats[i] = row
		sc.Labels[i] = float32(g.rng.NormFloat64())
	}
	rowsPer := storage.WeavePageRows(pageSize, nfeat)
	if rowsPer < 1 {
		return nil, fmt.Errorf("verify: page size %d holds no %d-feature weave rows", pageSize, nfeat)
	}
	for at := 0; at < nrows; at += rowsPer {
		end := at + rowsPer
		if end > nrows {
			end = nrows
		}
		p, err := storage.BuildWeavePage(sc.Ranges, sc.Feats[at:end], sc.Labels[at:end])
		if err != nil {
			return nil, err
		}
		sc.Pages = append(sc.Pages, p)
	}
	return sc, nil
}

// CheckWeaveOracle decodes every page at the given precision and holds
// the result to three legs:
//
//  1. every decoded feature equals the scalar quantize→truncate→
//     dequantize model of the ground-truth value, exactly — a flipped
//     bit in any plane the read touches breaks this;
//  2. the quantization error against ground truth is within the
//     analytic bound Scale·(2⁻ᵏ+2⁻³¹) (grid values at k=32 come back
//     bit-identical, which the bound's zero-error case covers and leg 1
//     enforces exactly);
//  3. labels round-trip bit-exactly at every precision.
func (sc *WeaveScenario) CheckWeaveOracle(bits int) error {
	e, err := weaving.NewExtractor(bits)
	if err != nil {
		return fmt.Errorf("oracle W: %w", err)
	}
	return sc.CheckWeaveDecoder(bits, e.DecodeRows)
}

// CheckWeaveDecoder is CheckWeaveOracle over any page decoder claiming
// to read at the given precision — the extraction engine's, or a test's
// copy of it with a fault planted.
func (sc *WeaveScenario) CheckWeaveDecoder(bits int, decode func(storage.WeavePage) ([][]float32, error)) error {
	next := 0
	for pn, p := range sc.Pages {
		rows, err := decode(p)
		if err != nil {
			return fmt.Errorf("oracle W: page %d: %w", pn, err)
		}
		for _, row := range rows {
			if next >= len(sc.Feats) {
				return fmt.Errorf("oracle W: decoded more rows than ground truth (%d)", len(sc.Feats))
			}
			want := sc.Feats[next]
			if len(row) != len(want)+1 {
				return fmt.Errorf("oracle W: row %d: %d values, want %d features + label", next, len(row), len(want))
			}
			for c, v := range row[:len(want)] {
				rng := sc.Ranges[c]
				exact := storage.WeaveDequantize(storage.WeaveQuantize(want[c], rng), bits, rng)
				if math.Float32bits(v) != math.Float32bits(exact) {
					return fmt.Errorf("oracle W: row %d col %d at %d bits: decoded %v, scalar model says %v",
						next, c, bits, v, exact)
				}
				bound := float64(rng.Scale)*(math.Pow(2, -float64(bits))+math.Pow(2, -31)) + 1e-5
				if diff := math.Abs(float64(v) - float64(want[c])); diff > bound {
					return fmt.Errorf("oracle W: row %d col %d at %d bits: error %g exceeds bound %g",
						next, c, bits, diff, bound)
				}
				if bits == storage.WeaveMaxBits && math.Float32bits(v) != math.Float32bits(want[c]) {
					return fmt.Errorf("oracle W: row %d col %d: full-width read %v != grid value %v (bit-exact required)",
						next, c, v, want[c])
				}
			}
			if got := row[len(want)]; math.Float32bits(got) != math.Float32bits(sc.Labels[next]) {
				return fmt.Errorf("oracle W: row %d label: %v != %v (labels bypass quantization)", next, got, sc.Labels[next])
			}
			next++
		}
	}
	if next != len(sc.Feats) {
		return fmt.Errorf("oracle W: decoded %d rows, ground truth has %d", next, len(sc.Feats))
	}
	return nil
}
