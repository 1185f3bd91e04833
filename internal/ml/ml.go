// Package ml describes the paper's four workload algorithms — linear
// regression, logistic regression, SVM (hinge loss), and low-rank matrix
// factorization — by their float64 losses, model sizes and per-tuple
// flop counts: what the CPU cost model prices, what the experiments
// score models with, and the model averaging the Greenplum baseline
// merges segments by. Training runs the algorithms as DSL programs.
package ml

import (
	"math"
	"math/rand"
)

// Algorithm is one trainable model, trained by incremental gradient
// (IGD) updates in the Bismarck/MADlib style the paper benchmarks
// against.
type Algorithm interface {
	// ModelSize is the number of float64 parameters.
	ModelSize() int
	// Loss returns the tuple's loss under the model.
	Loss(model, tuple []float64) float64
	// FlopsPerUpdate approximates floating-point operations per tuple
	// update, used by the CPU cost model.
	FlopsPerUpdate() int
}

// dot computes w[:n] · x[:n].
func dot(w, x []float64, n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += float64(w[i] * x[i])
	}
	return s
}

// Linear is least-squares linear regression.
type Linear struct {
	NFeatures int
	LR        float64
}

func (l Linear) ModelSize() int { return l.NFeatures }

func (l Linear) Loss(model, tuple []float64) float64 {
	e := dot(model, tuple, l.NFeatures) - tuple[l.NFeatures]
	return 0.5 * e * e
}

func (l Linear) FlopsPerUpdate() int { return 4 * l.NFeatures }

// Logistic is binary logistic regression with labels in {0, 1}.
type Logistic struct {
	NFeatures int
	LR        float64
}

func (l Logistic) ModelSize() int { return l.NFeatures }

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func (l Logistic) Loss(model, tuple []float64) float64 {
	p := Sigmoid(dot(model, tuple, l.NFeatures))
	y := tuple[l.NFeatures]
	const eps = 1e-12
	return -(float64(y*math.Log(p+eps)) + float64((1-y)*math.Log(1-p+eps)))
}

func (l Logistic) FlopsPerUpdate() int { return 4*l.NFeatures + 8 }

// SVM is a linear SVM trained on the L2-regularized hinge loss with
// labels in {-1, +1}.
type SVM struct {
	NFeatures int
	LR        float64
	Lambda    float64
}

func (s SVM) ModelSize() int { return s.NFeatures }

func (s SVM) Loss(model, tuple []float64) float64 {
	y := tuple[s.NFeatures]
	margin := float64(y * dot(model, tuple, s.NFeatures))
	loss := 0.0
	if margin < 1 {
		loss = 1 - margin
	}
	reg := 0.0
	for i := 0; i < s.NFeatures; i++ {
		reg += float64(model[i] * model[i])
	}
	return loss + float64(0.5*s.Lambda*reg)
}

func (s SVM) FlopsPerUpdate() int { return 6 * s.NFeatures }

// LRMF is low-rank matrix factorization: the model stacks the user
// factor matrix (Users x Rank) above the item factor matrix
// (Items x Rank); a tuple is (userRow, itemRow, rating), where itemRow
// already includes the Users offset.
type LRMF struct {
	Users, Items, Rank int
	LR                 float64
}

func (m LRMF) ModelSize() int { return (m.Users + m.Items) * m.Rank }

func (m LRMF) rowOf(model []float64, idx int) []float64 {
	return model[idx*m.Rank : (idx+1)*m.Rank]
}

func (m LRMF) Loss(model, tuple []float64) float64 {
	u := m.rowOf(model, int(tuple[0]))
	v := m.rowOf(model, int(tuple[1]))
	e := dot(u, v, m.Rank) - tuple[2]
	return 0.5 * e * e
}

func (m LRMF) FlopsPerUpdate() int { return 8 * m.Rank }

// InitModel returns a small random initialization appropriate for the
// algorithm (zeros for GLMs, scaled uniform for LRMF).
func InitModel(a Algorithm, seed int64) []float64 {
	model := make([]float64, a.ModelSize())
	if _, ok := a.(LRMF); ok {
		rng := rand.New(rand.NewSource(seed))
		for i := range model {
			model[i] = 0.2 * rng.Float64()
		}
	}
	return model
}

// MeanLoss averages the loss over the tuples.
func MeanLoss(a Algorithm, model []float64, tuples [][]float64) float64 {
	if len(tuples) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range tuples {
		s += a.Loss(model, t)
	}
	return s / float64(len(tuples))
}

// AverageModels averages k models elementwise (model-averaging merge,
// used by the Greenplum-style segmented baseline).
func AverageModels(models [][]float64) []float64 {
	if len(models) == 0 {
		return nil
	}
	out := make([]float64, len(models[0]))
	for _, m := range models {
		for i, v := range m {
			out[i] += v
		}
	}
	inv := 1 / float64(len(models))
	for i := range out {
		out[i] *= inv
	}
	return out
}
