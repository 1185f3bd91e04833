package backend

import (
	"fmt"
	"math"

	"dana/internal/hdfg"
)

// RowScorer is inference over an explicit model: each class has one
// scoring rule — dot product (linear), sigmoid probability (logistic), raw
// margin (SVM), factor-row dot product (LRMF) — evaluated in float64, one
// row at a time, for a caller that streams rows rather than holding them
// (runtime's System.Score scores each row as extraction delivers it).
// Scoring has no cycle model yet.
type RowScorer struct {
	class Class
	g     *hdfg.Graph
	nf    int // values a row must carry
	m     []float64
}

// NewRowScorer checks the model against the graph and keeps it: the
// caller must not change it while the scorer is in use.
func NewRowScorer(class Class, g *hdfg.Graph, model []float64) (*RowScorer, error) {
	if g == nil || g.Model == nil {
		return nil, ErrNotConfigured
	}
	if len(model) != g.ModelSize() {
		return nil, fmt.Errorf("backend: score model size %d, want %d", len(model), g.ModelSize())
	}
	s := &RowScorer{class: class, g: g, nf: 2, m: model}
	if class != ClassLRMF {
		s.nf = g.Model.Shape.Size()
	}
	return s, nil
}

// Score evaluates the class's scoring rule on row, the i-th of its run.
// Rows may be full training tuples; only the feature prefix is read.
// Each product is rounded before its add, so no port fuses the two and
// a score does not depend on GOARCH.
func (s *RowScorer) Score(i int, row []float64) (float64, error) {
	if len(row) < s.nf {
		return 0, fmt.Errorf("backend: score row %d has %d values, need >= %d", i, len(row), s.nf)
	}
	var sum float64
	m := s.m
	if s.class == ClassLRMF {
		rank, rowsTotal := s.g.Model.Shape[1], s.g.Model.Shape[0]
		u, v := int(math.Round(row[0])), int(math.Round(row[1]))
		if u < 0 || u >= rowsTotal || v < 0 || v >= rowsTotal {
			return 0, fmt.Errorf("backend: score row %d: factor index (%d,%d) out of [0,%d)", i, u, v, rowsTotal)
		}
		for k := 0; k < rank; k++ {
			sum += float64(m[u*rank+k] * m[v*rank+k])
		}
		return sum, nil
	}
	for j := 0; j < s.nf; j++ {
		sum += float64(m[j] * row[j])
	}
	if s.class == ClassLogistic {
		sum = 1 / (1 + math.Exp(-sum))
	}
	return sum, nil
}
