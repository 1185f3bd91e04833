// Package golden holds the reference semantics every execution path is
// held to: a pure-Go float64 trainer written directly from the DSL
// update-rule semantics, in the exact floating-point operation order
// the hDFG evaluator uses, plus the seeded training-instance draws and
// the scaled model comparison the oracles share. It sits below both
// the backend seam (whose conformance suite and registrations declare
// their semantics against it) and the verify harness (Oracle C), so
// production packages never import a test harness to name it.
package golden

import (
	"fmt"
	"math"

	"dana/internal/algos"
	"dana/internal/ml"
)

// Spec describes one training instance.
type Spec struct {
	Kind               algos.Kind
	NFeat              int // GLMs
	Users, Items, Rank int // LRMF
	LR, Lambda         float64
	MergeCoef          int
	Epochs             int
}

// Topology returns the algos.Build topology vector.
func (sp Spec) Topology() []int {
	if sp.Kind == algos.KindLRMF {
		return []int{sp.Users, sp.Items, sp.Rank}
	}
	return []int{sp.NFeat}
}

// Hyper returns the algos hyper-parameters.
func (sp Spec) Hyper() algos.Hyper {
	return algos.Hyper{LR: sp.LR, Lambda: sp.Lambda, MergeCoef: sp.MergeCoef, Epochs: sp.Epochs}
}

// ModelSize returns the flat parameter count.
func (sp Spec) ModelSize() int {
	if sp.Kind == algos.KindLRMF {
		return (sp.Users + sp.Items) * sp.Rank
	}
	return sp.NFeat
}

// TupleWidth returns values per training tuple.
func (sp Spec) TupleWidth() int {
	if sp.Kind == algos.KindLRMF {
		return 3
	}
	return sp.NFeat + 1
}

// Algorithm returns the ml-package baseline for the spec.
func (sp Spec) Algorithm() ml.Algorithm {
	switch sp.Kind {
	case algos.KindLinear:
		return ml.Linear{NFeatures: sp.NFeat, LR: sp.LR}
	case algos.KindLogistic:
		return ml.Logistic{NFeatures: sp.NFeat, LR: sp.LR}
	case algos.KindSVM:
		return ml.SVM{NFeatures: sp.NFeat, LR: sp.LR, Lambda: sp.Lambda}
	default:
		return ml.LRMF{Users: sp.Users, Items: sp.Items, Rank: sp.Rank, LR: sp.LR}
	}
}

// grad computes one tuple's gradient in DSL evaluation order:
// s = Σ mo[i]*in[i] accumulated left-to-right, then the kind-specific
// gradient expression exactly as algos builds it.
func (sp Spec) grad(model, tuple, grad []float64) error {
	nf := sp.NFeat
	s := 0.0
	for i := 0; i < nf; i++ {
		s += model[i] * tuple[i]
	}
	out := tuple[nf]
	switch sp.Kind {
	case algos.KindLinear:
		er := s - out
		for i := 0; i < nf; i++ {
			grad[i] = er * tuple[i]
		}
	case algos.KindLogistic:
		p := 1 / (1 + math.Exp(-s))
		er := p - out
		for i := 0; i < nf; i++ {
			grad[i] = er * tuple[i]
		}
	case algos.KindSVM:
		margin := out * s
		ind := 0.0
		if margin < 1 {
			ind = 1
		}
		for i := 0; i < nf; i++ {
			// Sub(Mul(lam, mo), Mul(ind, Mul(out, in))).
			grad[i] = sp.Lambda*model[i] - ind*(out*tuple[i])
		}
	default:
		return fmt.Errorf("golden: grad undefined for kind %q", sp.Kind)
	}
	return nil
}

// Train runs the golden trainer in place on model.
func (sp Spec) Train(model []float64, tuples [][]float64) error {
	if len(model) != sp.ModelSize() {
		return fmt.Errorf("golden: model size %d, want %d", len(model), sp.ModelSize())
	}
	if sp.Kind == algos.KindLRMF {
		return sp.trainLRMF(model, tuples)
	}
	bs := sp.MergeCoef
	if bs < 1 {
		bs = 1
	}
	epochs := sp.Epochs
	if epochs < 1 {
		epochs = 1
	}
	g := make([]float64, sp.NFeat)
	acc := make([]float64, sp.NFeat)
	for e := 0; e < epochs; e++ {
		for at := 0; at < len(tuples); at += bs {
			end := at + bs
			if end > len(tuples) {
				end = len(tuples)
			}
			batch := tuples[at:end]
			if bs == 1 {
				// Plain SGD: update per tuple.
				for _, t := range batch {
					if err := sp.grad(model, t, g); err != nil {
						return err
					}
					for i := range model {
						// Sub(mo, Mul(lr, grad)).
						model[i] = model[i] - sp.LR*g[i]
					}
				}
				continue
			}
			// Merged batch: gradients all from the batch-entry model,
			// summed in tuple order, one post-merge update.
			for ti, t := range batch {
				if err := sp.grad(model, t, g); err != nil {
					return err
				}
				if ti == 0 {
					copy(acc, g)
				} else {
					for i := range acc {
						acc[i] = acc[i] + g[i]
					}
				}
			}
			for i := range model {
				model[i] = model[i] - sp.LR*acc[i]
			}
		}
	}
	return nil
}

// trainLRMF is the row-update golden path: gather both factor rows,
// compute both updates from the pre-update rows, then write user row
// before item row (the graph's RowUpdates order).
func (sp Spec) trainLRMF(model []float64, tuples [][]float64) error {
	epochs := sp.Epochs
	if epochs < 1 {
		epochs = 1
	}
	rank := sp.Rank
	rows := sp.Users + sp.Items
	ur := make([]float64, rank)
	vr := make([]float64, rank)
	for e := 0; e < epochs; e++ {
		for _, t := range tuples {
			u, v := int(math.Round(t[0])), int(math.Round(t[1]))
			if u < 0 || u >= rows || v < 0 || v >= rows {
				return fmt.Errorf("golden: LRMF row index (%d,%d) out of [0,%d)", u, v, rows)
			}
			copy(ur, model[u*rank:(u+1)*rank])
			copy(vr, model[v*rank:(v+1)*rank])
			pred := 0.0
			for k := 0; k < rank; k++ {
				pred += ur[k] * vr[k]
			}
			e := pred - t[2]
			for k := 0; k < rank; k++ {
				// Sub(ur, Mul(lr, Mul(e, vr))).
				model[u*rank+k] = ur[k] - sp.LR*(e*vr[k])
			}
			for k := 0; k < rank; k++ {
				model[v*rank+k] = vr[k] - sp.LR*(e*ur[k])
			}
		}
	}
	return nil
}

// CompareModels checks |a-b| <= tol * (1 + max(|a|,|b|)) per parameter;
// tol 0 demands bit-identity.
func CompareModels(what string, a, b []float64, tol float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("oracle C (%s): model sizes %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if tol == 0 {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Errorf("oracle C (%s): param %d: %v != %v (bit-exact required)", what, i, a[i], b[i])
			}
			continue
		}
		scale := 1 + math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if math.Abs(a[i]-b[i]) > tol*scale || math.IsNaN(a[i]) != math.IsNaN(b[i]) {
			return fmt.Errorf("oracle C (%s): param %d: %v vs %v exceeds tol %g", what, i, a[i], b[i], tol)
		}
	}
	return nil
}

// Source is the seeded integer stream training instances are drawn
// from (*math/rand.Rand and verify.Gen both satisfy it).
type Source interface{ Intn(n int) int }

// TrainingTuples draws a well-scaled dataset for the spec. Features are
// float32-quantized so both the engine's float32 datapath and float4
// heap columns round-trip the exact same values; labels are drawn from
// the kind's natural domain (±1 for SVM, {0,1} for logistic, bounded
// quarter-steps for LRMF ratings).
func TrainingTuples(g Source, sp Spec, n int) [][]float64 {
	tuples := make([][]float64, n)
	for i := range tuples {
		t := make([]float64, sp.TupleWidth())
		if sp.Kind == algos.KindLRMF {
			t[0] = float64(g.Intn(sp.Users))
			t[1] = float64(sp.Users + g.Intn(sp.Items))
			t[2] = float64(g.Intn(5)) * 0.25
		} else {
			for j := 0; j < sp.NFeat; j++ {
				t[j] = float64(float32(float64(g.Intn(2001)-1000) / 500))
			}
			switch sp.Kind {
			case algos.KindSVM:
				t[sp.NFeat] = float64(2*g.Intn(2) - 1) // {-1,+1}
			case algos.KindLogistic:
				t[sp.NFeat] = float64(g.Intn(2)) // {0,1}
			default:
				t[sp.NFeat] = float64(float32(float64(g.Intn(2001)-1000) / 500))
			}
		}
		tuples[i] = t
	}
	return tuples
}

// InitModelFor draws an initial model for the spec: zeros for the GLMs
// (matching ml.InitModel) and small positive float32-quantized factors
// for LRMF so gradients are non-degenerate.
func InitModelFor(g Source, sp Spec) []float64 {
	init := make([]float64, sp.ModelSize())
	if sp.Kind == algos.KindLRMF {
		for i := range init {
			init[i] = float64(float32(0.05 + 0.01*float64(g.Intn(10))))
		}
	}
	return init
}
