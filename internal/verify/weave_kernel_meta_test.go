package verify

// Oracle W against block-kernel faults. The packages that own the
// kernels diff them against their scalar forms (internal/storage's byte
// differential, internal/weaving's gather and Reweaver differentials)
// and plant these same faults there; here each fault must also trip the
// oracle's scalar-model leg, so the oracle is not blind to the class of
// bug the kernels can have. The faults are planted from the layers'
// exported pieces — storage.WeaveBlock / UnweaveBlock, PlaneOffset,
// WeaveQuantize — around which a page and a decode are reassembled the
// way the builder and the extractor assemble them.

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"dana/internal/storage"
)

// kernelScenario is a ground truth on the 2⁻²³ grid of {-1, 2}: three
// feature columns over 200 rows in 70-row pages — full and partial
// plane words, both 32-row halves — the middle column constant at the
// range's low edge, so its blocks are all-zero next to dense ones.
func kernelScenario(t *testing.T) *WeaveScenario {
	t.Helper()
	const nfeat, nrows, pageRows = 3, 200, 70
	rng := rand.New(rand.NewSource(metaSeed + 30))
	sc := &WeaveScenario{Ranges: make([]storage.WeaveRange, nfeat)}
	for c := range sc.Ranges {
		sc.Ranges[c] = storage.WeaveRange{Offset: -1, Scale: 2}
	}
	for r := 0; r < nrows; r++ {
		row := make([]float32, nfeat)
		for c := range row {
			row[c] = float32(rng.Intn(1<<24))/(1<<23) - 1
		}
		row[1] = -1
		sc.Feats = append(sc.Feats, row)
		sc.Labels = append(sc.Labels, float32(rng.NormFloat64()))
	}
	for at := 0; at < nrows; at += pageRows {
		end := min(at+pageRows, nrows)
		p, err := storage.BuildWeavePage(sc.Ranges, sc.Feats[at:end], sc.Labels[at:end])
		if err != nil {
			t.Fatal(err)
		}
		sc.Pages = append(sc.Pages, p)
	}
	return sc
}

// reweavePlanes overwrites every page's plane area with what a builder
// whose block kernel is weave would have written: the block's codes from
// the ground truth, through weave, into one plane array that — like the
// builder's — is reused from block to block.
func (sc *WeaveScenario) reweavePlanes(weave func(codes *[64]uint32, planes *[32]uint64)) {
	at := 0
	var planes [32]uint64
	for _, p := range sc.Pages {
		for w := 0; w < p.PlaneWords(); w++ {
			for c := 0; c < p.NumCols(); c++ {
				var codes [64]uint32
				for r := 0; r < 64 && w*64+r < p.NumRows(); r++ {
					codes[r] = storage.WeaveQuantize(sc.Feats[at+w*64+r][c], sc.Ranges[c])
				}
				weave(&codes, &planes)
				for level, word := range planes {
					binary.LittleEndian.PutUint64(p[p.PlaneOffset(level, c)+w*8:], word)
				}
			}
		}
		at += p.NumRows()
	}
}

// transposeLooped is Hacker's Delight 7-3 on 64-bit lanes with the stage
// masks as data, so a fault can hand it a wrong one.
func transposeLooped(a *[32]uint64, masks [5]uint64) {
	for s, j := 0, 16; j != 0; s, j = s+1, j>>1 {
		for k := 0; k < 32; k = (k + j + 1) &^ j {
			t := (a[k] ^ a[k+j]>>uint(j)) & masks[s]
			a[k] ^= t
			a[k+j] ^= t << uint(j)
		}
	}
}

var stageMasks = [5]uint64{0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF, 0x0F0F0F0F0F0F0F0F, 0x3333333333333333, 0x5555555555555555}

func TestWeaveOracleDetectsBuildKernelFaults(t *testing.T) {
	faults := map[string]func(codes *[64]uint32, planes *[32]uint64){
		// Loading row r at index r and not 31-r is the kernel fed each
		// 32-row half backwards.
		"rows loaded un-reversed": func(codes *[64]uint32, planes *[32]uint64) {
			var rev [64]uint32
			for r := 0; r < 32; r++ {
				rev[r], rev[32+r] = codes[31-r], codes[63-r]
			}
			storage.WeaveBlock(&rev, planes)
		},
		"high 32-row half dropped": func(codes *[64]uint32, planes *[32]uint64) {
			low := *codes
			for r := 32; r < 64; r++ {
				low[r] = 0
			}
			storage.WeaveBlock(&low, planes)
		},
		"stage-4 mask shifted": func(codes *[64]uint32, planes *[32]uint64) {
			for r := 0; r < 32; r++ {
				planes[31-r] = uint64(codes[r]) | uint64(codes[r+32])<<32
			}
			masks := stageMasks
			masks[2] <<= 1
			transposeLooped(planes, masks)
		},
		"stale plane word left in the reused block buffer": func(codes *[64]uint32, planes *[32]uint64) {
			var fresh [32]uint64
			storage.WeaveBlock(codes, &fresh)
			for level, word := range fresh {
				if word != 0 {
					planes[level] = word
				}
			}
		},
	}
	sc := kernelScenario(t)
	sc.reweavePlanes(storage.WeaveBlock)
	for _, bits := range weaveOracleBits {
		if err := sc.CheckWeaveOracle(bits); err != nil {
			t.Fatalf("pre-mutation bits %d: %v", bits, err)
		}
	}
	for name, weave := range faults {
		sc.reweavePlanes(weave)
		// A build fault need not reach the top planes; the full-width read
		// sees all of them.
		err := sc.CheckWeaveOracle(storage.WeaveMaxBits)
		if err == nil {
			t.Errorf("%s: oracle W passed the mutant", name)
		} else if !strings.Contains(err.Error(), "scalar model") {
			t.Errorf("%s: tripped %q, want the scalar-model leg", name, err)
		}
	}
	sc.reweavePlanes(storage.WeaveBlock)
	if err := sc.CheckWeaveOracle(storage.WeaveMaxBits); err != nil {
		t.Fatalf("post-restore: %v", err)
	}
}

// blockDecoder is a k-bit page decode assembled the extractor's way — a
// block's plane words loaded, unwoven, its codes scaled by inv and mapped
// through the column's range — with the block kernel and the scale as
// parameters. With storage.UnweaveBlock and 2⁻ᵏ it is the scalar model.
func blockDecoder(bits int, unweave func(*[32]uint64, int, *[64]uint32), inv float64) func(storage.WeavePage) ([][]float32, error) {
	return func(p storage.WeavePage) ([][]float32, error) {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		ncols, nrows := p.NumCols(), p.NumRows()
		rows := make([][]float32, nrows)
		for r := range rows {
			rows[r] = make([]float32, ncols+1)
			rows[r][ncols] = p.Label(r)
		}
		for w := 0; w < p.PlaneWords(); w++ {
			for c := 0; c < ncols; c++ {
				var planes [32]uint64
				for level := 0; level < bits; level++ {
					planes[level] = binary.LittleEndian.Uint64(p[p.PlaneOffset(level, c)+w*8:])
				}
				var codes [64]uint32
				unweave(&planes, bits, &codes)
				rg := p.Range(c)
				for r := 0; r < 64 && w*64+r < nrows; r++ {
					x := float64(codes[r]>>uint(storage.WeaveMaxBits-bits)) * inv
					rows[w*64+r][c] = float32(float64(rg.Offset) + float64(rg.Scale)*x)
				}
			}
		}
		return rows, nil
	}
}

func TestWeaveOracleDetectsDecodeKernelFaults(t *testing.T) {
	sc := kernelScenario(t)
	for _, bits := range []int{1, 8, 32} {
		exact := 1 / float64(uint64(1)<<uint(bits))
		if err := sc.CheckWeaveDecoder(bits, blockDecoder(bits, storage.UnweaveBlock, exact)); err != nil {
			t.Fatalf("bits %d pre-mutation: %v", bits, err)
		}
		faults := map[string]func(storage.WeavePage) ([][]float32, error){
			"codes stored un-reversed": blockDecoder(bits, func(planes *[32]uint64, bits int, codes *[64]uint32) {
				storage.UnweaveBlock(planes, bits, codes)
				for r := 0; r < 16; r++ {
					codes[r], codes[31-r] = codes[31-r], codes[r]
					codes[32+r], codes[63-r] = codes[63-r], codes[32+r]
				}
			}, exact),
			"high 32-row half dropped": blockDecoder(bits, func(planes *[32]uint64, bits int, codes *[64]uint32) {
				for level := range planes {
					planes[level] &= 1<<32 - 1
				}
				storage.UnweaveBlock(planes, bits, codes)
			}, exact),
			// Scaling codes onto [0, 1] divides by 2ᵏ-1: its reciprocal is
			// not exact, and neither form is the model's x/2ᵏ.
			"division restored with a non-power-of-two": blockDecoder(bits, storage.UnweaveBlock,
				1/float64(uint64(1)<<uint(bits)-1)),
		}
		for name, decode := range faults {
			err := sc.CheckWeaveDecoder(bits, decode)
			if err == nil {
				t.Errorf("bits %d, %s: oracle W passed the mutant", bits, name)
			} else if !strings.Contains(err.Error(), "scalar model") {
				t.Errorf("bits %d, %s: tripped %q, want the scalar-model leg", bits, name, err)
			}
		}
	}
}
