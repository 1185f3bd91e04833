package experiments

// Precision sweep: the MLWeaving any-precision tradeoff curve. Each
// sweep point trains a seeded scenario through the weave backend at k
// bits per feature and reports the modeled link transfer alongside the
// epochs the quantized run needed to reach the golden float64 trainer's
// loss (within a per-precision margin).
//
// The sweep doubles as an executable proof of the data path's
// contracts; PrecisionSweep returns an error — and `danabench -exp
// precision` exits non-zero — if any of these break:
//
//  1. modeled transfer seconds are monotone non-increasing as k drops
//     (fewer planes, fewer bytes);
//  2. a full-width (k=32) weave run on range-grid data is bit-identical
//     to the accelerator path — same model bits, same modeled counters;
//  3. every k<32 run converges within its toleranced epoch budget.

import (
	"fmt"
	"math"

	"dana/internal/backend"
	"dana/internal/backend/backendtest"
	"dana/internal/cost"
	"dana/internal/ml"
	"dana/internal/storage"
	"dana/internal/weaving"
)

// PrecisionBits is the sweep's read-precision ladder, full width first.
var PrecisionBits = []int{32, 16, 8, 4, 2, 1}

// PrecisionSeeds are the committed scenario seeds the sweep trains
// (a logistic-regression and an SVM workload; see backendtest.GenScenario).
var PrecisionSeeds = []int64{1, 2}

// PrecisionRow is one (scenario, bits) sweep point.
type PrecisionRow struct {
	Scenario      string
	Seed          int64
	Bits          int
	TransferBytes int64   // per-epoch effective link bytes at k planes
	TransferSec   float64 // per-epoch modeled link time
	Epochs        int     // epochs to reach the golden loss + margin
	Budget        int     // epoch allowance at this precision
	Loss          float64 // final mean loss on the original tuples
	GoldenLoss    float64 // golden float64 trainer's loss
	Margin        float64 // allowed slack over the golden loss
	FullWidthID   bool    // k=32 only: bit-identical to the accelerator
}

// precisionEpochBudget mirrors the MLWeaving observation that coarse
// quantization needs a few more passes to the same quality.
func precisionEpochBudget(epochs, bits int) int {
	switch {
	case bits >= 8:
		return epochs
	case bits >= 4:
		return 2 * epochs
	default:
		return 4 * epochs
	}
}

// precisionLossMargin is the allowed slack over the golden trainer's
// loss: the 2⁻ᵏ quantization floor plus a small float32 allowance.
func precisionLossMargin(bits int) float64 {
	return float64(1.5*math.Pow(2, -float64(bits))) + 0.02
}

// snapScenarioToGrid rewrites the scenario's features onto the 2⁻²³
// grid of the fixed range {Offset: -1, Scale: 2}, so a full-width weave
// read reconstructs every value bit-for-bit and the k=32 identity leg
// is exact, not toleranced.
func snapScenarioToGrid(sc *backendtest.Scenario, nfeat int) {
	snap := func(v float64) float64 {
		n := math.Round((v + 1) * (1 << 23))
		if n < 0 {
			n = 0
		}
		if n > (1<<24)-1 {
			n = (1 << 24) - 1
		}
		return float64(n/(1<<23)) - 1
	}
	for i, t := range sc.Tuples {
		for c := 0; c < nfeat; c++ {
			t[c] = snap(t[c])
			sc.Rows32[i][c] = float32(t[c])
		}
	}
}

// PrecisionSweep trains the committed scenarios across PrecisionBits
// and verifies the three contracts above at every point.
func PrecisionSweep(env Env) ([]PrecisionRow, error) {
	benv := backend.Env{Cost: env.Cost, FPGA: env.FPGA, Segments: env.Segments}
	var rows []PrecisionRow
	for _, seed := range PrecisionSeeds {
		sc := backendtest.GenScenario(seed)
		p, err := backendtest.BuildProgram(sc, benv)
		if err != nil {
			return nil, err
		}
		nfeat := sc.Spec.TupleWidth() - 1
		snapScenarioToGrid(&sc, nfeat)

		algo := sc.Spec.Algorithm()
		golden, err := backendtest.GoldenReference(sc)
		if err != nil {
			return nil, err
		}
		goldenLoss := ml.MeanLoss(algo, golden, sc.Tuples)

		// The accelerator path on the same grid rows: the k=32 identity
		// target.
		accel := backend.NewAccel(benv)
		if err := accel.Configure(p); err != nil {
			return nil, err
		}
		epochs := sc.Spec.Epochs
		if epochs < 1 {
			epochs = 1
		}
		for e := 0; e < epochs; e++ {
			if err := accel.RunEpoch(&backend.Stream{Rows32: sc.Rows32}); err != nil {
				return nil, err
			}
		}

		g := weaving.RelationGeometry(len(sc.Tuples), nfeat, p.PageSize)
		prevTransfer := math.Inf(1)
		for _, bits := range PrecisionBits {
			w := cost.Workload{
				Pages:           g.Pages,
				WeaveBits:       bits,
				WeaveFixedBytes: g.FixedBytes,
				WeaveBitBytes:   g.BitBytes,
			}
			transfer := cost.TransferSec(w, env.Cost)
			if transfer > prevTransfer {
				return nil, fmt.Errorf("precision sweep: seed %d: transfer %.9g s at %d bits exceeds %.9g s at higher precision (monotone non-increasing required)",
					seed, transfer, bits, prevTransfer)
			}
			prevTransfer = transfer

			pw := p
			pw.Bits = bits
			pw.Ranges = gridRanges(nfeat)
			be := backend.NewWeaveAccel(benv)
			if err := be.Configure(pw); err != nil {
				return nil, err
			}
			budget := precisionEpochBudget(epochs, bits)
			margin := precisionLossMargin(bits)
			ran, loss := 0, math.Inf(1)
			// The scenario's rows never change, so one holder per sweep
			// point lets the epoch budget weave them once.
			st := &backend.Stream{Rows32: sc.Rows32, Held: new(backend.Held)}
			for e := 1; e <= budget; e++ {
				if err := be.RunEpoch(st); err != nil {
					return nil, err
				}
				ran = e
				loss = ml.MeanLoss(algo, be.Model(), sc.Tuples)
				// The full-width run never stops early: the identity leg
				// below compares it against the accelerator's full epoch
				// schedule.
				if bits < 32 && loss <= goldenLoss+margin {
					break
				}
			}
			if loss > goldenLoss+margin {
				return nil, fmt.Errorf("precision sweep: seed %d at %d bits: loss %.6f after %d epochs never reached golden %.6f + margin %.6f",
					seed, bits, loss, budget, goldenLoss, margin)
			}
			row := PrecisionRow{
				Scenario:      string(sc.Spec.Kind),
				Seed:          seed,
				Bits:          bits,
				TransferBytes: g.EffectiveBytes(bits),
				TransferSec:   transfer,
				Epochs:        ran,
				Budget:        budget,
				Loss:          loss,
				GoldenLoss:    goldenLoss,
				Margin:        margin,
			}
			if bits == 32 {
				if ran != epochs {
					return nil, fmt.Errorf("precision sweep: seed %d: full-width run did %d epochs, accelerator schedule has %d", seed, ran, epochs)
				}
				if err := fullWidthIdentity(accel, be); err != nil {
					return nil, fmt.Errorf("precision sweep: seed %d: %w", seed, err)
				}
				row.FullWidthID = true
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// gridRanges pins every feature to the fixed {-1, 2} quantization range
// of the grid snap.
func gridRanges(nfeat int) []storage.WeaveRange {
	ranges := make([]storage.WeaveRange, nfeat)
	for i := range ranges {
		ranges[i] = storage.WeaveRange{Offset: -1, Scale: 2}
	}
	return ranges
}

// fullWidthIdentity requires the full-width weave run to be
// indistinguishable from the accelerator path: bit-identical model and
// bit-identical modeled counters.
func fullWidthIdentity(accel, weave *backend.Accel) error {
	am, wm := accel.Model(), weave.Model()
	if len(am) == 0 || len(am) != len(wm) {
		return fmt.Errorf("full-width identity: model lengths %d vs %d", len(am), len(wm))
	}
	for i := range am {
		if math.Float64bits(am[i]) != math.Float64bits(wm[i]) {
			return fmt.Errorf("full-width identity: model[%d] %v (accelerator) != %v (weave@32)", i, am[i], wm[i])
		}
	}
	if ac, wc := accel.Counters(), weave.Counters(); ac != wc {
		return fmt.Errorf("full-width identity: counters diverge:\n  accelerator=%+v\n  weave=%+v", ac, wc)
	}
	return nil
}

// FormatPrecision renders one sweep row for the danabench table.
func FormatPrecision(r PrecisionRow) string {
	id := ""
	if r.FullWidthID {
		id = " =accel"
	}
	return fmt.Sprintf("%-10s %2d bits  %9d B/epoch  %.6g s  epochs %d/%d  loss %.4f (golden %.4f +%.4f)%s",
		r.Scenario, r.Bits, r.TransferBytes, r.TransferSec, r.Epochs, r.Budget, r.Loss, r.GoldenLoss, r.Margin, id)
}
