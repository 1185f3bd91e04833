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

// RowScorer scores rows one at a time with the model and every
// intermediate held in F: the class's rule and the model, checked and
// converted once, for a caller that streams rows rather than holding them
// (the server's score jobs score as the scan delivers).
type RowScorer[F float32 | float64] struct {
	class Class
	g     *hdfg.Graph
	nf    int // values a row must carry
	m     []F
}

// NewRowScorer checks the model against the graph and converts it to F.
func NewRowScorer[F float32 | float64](class Class, g *hdfg.Graph, model []float64) (*RowScorer[F], error) {
	if g == nil || g.Model == nil {
		return nil, ErrNotConfigured
	}
	if len(model) != g.ModelSize() {
		return nil, fmt.Errorf("backend: score model size %d, want %d", len(model), g.ModelSize())
	}
	s := &RowScorer[F]{class: class, g: g, nf: 2, m: make([]F, len(model))}
	if class != ClassLRMF {
		s.nf = g.Model.Shape.Size()
	}
	for i, v := range model {
		s.m[i] = F(v)
	}
	return s, nil
}

// checkWidth rejects row i when it is too short to score.
func (s *RowScorer[F]) checkWidth(i int, row []float64) error {
	if len(row) < s.nf {
		return fmt.Errorf("backend: score row %d has %d values, need >= %d", i, len(row), s.nf)
	}
	return nil
}

// Score evaluates the class's scoring rule on row, the i-th of its run.
func (s *RowScorer[F]) Score(i int, row []float64) (float64, error) {
	if err := s.checkWidth(i, row); err != nil {
		return 0, err
	}
	return s.score(i, row)
}

func (s *RowScorer[F]) score(i int, row []float64) (float64, error) {
	var sum F
	m := s.m
	if s.class == ClassLRMF {
		rank, rowsTotal := s.g.Model.Shape[1], s.g.Model.Shape[0]
		u, v := int(math.Round(row[0])), int(math.Round(row[1]))
		if u < 0 || u >= rowsTotal || v < 0 || v >= rowsTotal {
			return 0, fmt.Errorf("backend: score row %d: factor index (%d,%d) out of [0,%d)", i, u, v, rowsTotal)
		}
		for k := 0; k < rank; k++ {
			sum += m[u*rank+k] * m[v*rank+k]
		}
		return float64(sum), nil
	}
	for j := 0; j < s.nf; j++ {
		sum += m[j] * F(row[j])
	}
	if s.class == ClassLogistic {
		sum = F(1 / (1 + math.Exp(-float64(sum))))
	}
	return float64(sum), nil
}

// score evaluates the class's scoring rule on every row: all widths are
// checked before any row is scored.
func score[F float32 | float64](class Class, g *hdfg.Graph, model []float64, rows [][]float64) ([]float64, error) {
	s, err := NewRowScorer[F](class, g, model)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if err := s.checkWidth(i, row); err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(rows))
	for i, row := range rows {
		if out[i], err = s.score(i, row); err != nil {
			return nil, err
		}
	}
	return out, nil
}
