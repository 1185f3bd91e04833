package backend

import (
	"fmt"
	"math"

	"dana/internal/hdfg"
)

// Inference over an explicit model, shared by the backends. Each class
// has one scoring rule — dot product (linear), sigmoid probability
// (logistic), raw margin (SVM), factor-row dot product (LRMF) — and
// each backend evaluates it at its own precision: score[float64]
// (CPU-class backends), or score[float32] with every intermediate
// narrowed to float32 (the simulated FPGA datapaths). The cycle model for scoring
// is future work (ROADMAP inference serving); these are the functional
// semantics the conformance suite pins.

// ScoreFloat64 evaluates the class's scoring rule at full float64
// precision over an explicit model — the entry point for out-of-package
// reference-precision backends (greenplum's Sharded).
func ScoreFloat64(class Class, g *hdfg.Graph, model []float64, rows [][]float64) ([]float64, error) {
	return score[float64](class, g, model, rows)
}

func scoreCheck(class Class, g *hdfg.Graph, model []float64, rows [][]float64) (nf int, err error) {
	if g == nil || g.Model == nil {
		return 0, ErrNotConfigured
	}
	if len(model) != g.ModelSize() {
		return 0, fmt.Errorf("backend: score model size %d, want %d", len(model), g.ModelSize())
	}
	if class == ClassLRMF {
		nf = 2
	} else {
		nf = g.Model.Shape.Size()
	}
	for i, row := range rows {
		if len(row) < nf {
			return 0, fmt.Errorf("backend: score row %d has %d values, need >= %d", i, len(row), nf)
		}
	}
	return nf, nil
}

// score evaluates the class's scoring rule with the model and every
// intermediate held in F.
func score[F float32 | float64](class Class, g *hdfg.Graph, model []float64, rows [][]float64) ([]float64, error) {
	nf, err := scoreCheck(class, g, model, rows)
	if err != nil {
		return nil, err
	}
	m := make([]F, len(model))
	for i, v := range model {
		m[i] = F(v)
	}
	out := make([]float64, len(rows))
	for i, row := range rows {
		var s F
		if class == ClassLRMF {
			rank := g.Model.Shape[1]
			u, v := int(math.Round(row[0])), int(math.Round(row[1]))
			rowsTotal := g.Model.Shape[0]
			if u < 0 || u >= rowsTotal || v < 0 || v >= rowsTotal {
				return nil, fmt.Errorf("backend: score row %d: factor index (%d,%d) out of [0,%d)", i, u, v, rowsTotal)
			}
			for k := 0; k < rank; k++ {
				s += m[u*rank+k] * m[v*rank+k]
			}
		} else {
			for j := 0; j < nf; j++ {
				s += m[j] * F(row[j])
			}
			if class == ClassLogistic {
				s = F(1 / (1 + math.Exp(-float64(s))))
			}
		}
		out[i] = float64(s)
	}
	return out, nil
}
