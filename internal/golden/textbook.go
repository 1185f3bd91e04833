package golden

import (
	"fmt"

	"dana/internal/ml"
)

// The textbook-order reference: each ml.Algorithm's per-tuple IGD rule
// as MADlib's Bismarck-style aggregate states it, loss gradient first
// and one model update per tuple. Spec.Train is the same math in the
// DSL's evaluation order, so the two agree within float64 round-off
// (Oracle C's second leg holds them to 1e-9).

// dot computes w[:n] · x[:n].
func dot(w, x []float64, n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += float64(w[i] * x[i])
	}
	return s
}

// Update applies one textbook-order IGD step for the tuple.
func Update(a ml.Algorithm, model, tuple []float64) error {
	switch a := a.(type) {
	case ml.Linear:
		e := dot(model, tuple, a.NFeatures) - tuple[a.NFeatures]
		for i := 0; i < a.NFeatures; i++ {
			model[i] -= float64(a.LR * e * tuple[i])
		}
	case ml.Logistic:
		p := ml.Sigmoid(dot(model, tuple, a.NFeatures))
		e := p - tuple[a.NFeatures]
		for i := 0; i < a.NFeatures; i++ {
			model[i] -= float64(a.LR * e * tuple[i])
		}
	case ml.SVM:
		y := tuple[a.NFeatures]
		margin := y * dot(model, tuple, a.NFeatures)
		for i := 0; i < a.NFeatures; i++ {
			g := float64(a.Lambda * model[i])
			if margin < 1 {
				g -= float64(y * tuple[i])
			}
			model[i] -= float64(a.LR * g)
		}
	case ml.LRMF:
		r := a.Rank
		u := model[int(tuple[0])*r : (int(tuple[0])+1)*r]
		v := model[int(tuple[1])*r : (int(tuple[1])+1)*r]
		e := dot(u, v, r) - tuple[2]
		for i := 0; i < r; i++ {
			ui, vi := u[i], v[i]
			u[i] = ui - float64(a.LR*e*vi)
			v[i] = vi - float64(a.LR*e*ui)
		}
	default:
		return fmt.Errorf("golden: no textbook update for %T", a)
	}
	return nil
}

// TrainSGD runs plain IGD in place on model: one pass per epoch, one
// Update per tuple.
func TrainSGD(a ml.Algorithm, model []float64, tuples [][]float64, epochs int) error {
	if len(model) != a.ModelSize() {
		return fmt.Errorf("golden: model size %d, want %d", len(model), a.ModelSize())
	}
	for e := 0; e < epochs; e++ {
		for _, t := range tuples {
			if err := Update(a, model, t); err != nil {
				return err
			}
		}
	}
	return nil
}
