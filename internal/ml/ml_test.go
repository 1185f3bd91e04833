package ml_test

// The algorithms train here on golden's textbook-order IGD reference
// (golden.TrainSGD), whose per-tuple rules descend each ml.Algorithm's
// Loss.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dana/internal/golden"
	"dana/internal/ml"
)

// dot computes w[:n] · x[:n].
func dot(w, x []float64, n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += w[i] * x[i]
	}
	return s
}

func genLinear(n, nf int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	truth := make([]float64, nf)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	tuples := make([][]float64, n)
	for i := range tuples {
		t := make([]float64, nf+1)
		s := 0.0
		for j := 0; j < nf; j++ {
			t[j] = rng.NormFloat64()
			s += truth[j] * t[j]
		}
		t[nf] = s
		tuples[i] = t
	}
	return tuples, truth
}

func TestLinearConvergesToTruth(t *testing.T) {
	tuples, truth := genLinear(512, 8, 1)
	a := ml.Linear{NFeatures: 8, LR: 0.05}
	model := ml.InitModel(a, 0)
	if err := golden.TrainSGD(a, model, tuples, 30); err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(model[i]-truth[i]) > 1e-3 {
			t.Errorf("w[%d] = %v, want %v", i, model[i], truth[i])
		}
	}
	if ml.MeanLoss(a, model, tuples) > 1e-5 {
		t.Errorf("loss = %v", ml.MeanLoss(a, model, tuples))
	}
}

func TestLogisticSeparatesClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nf = 6
	truth := make([]float64, nf)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	tuples := make([][]float64, 800)
	for i := range tuples {
		x := make([]float64, nf+1)
		s := 0.0
		for j := 0; j < nf; j++ {
			x[j] = rng.NormFloat64()
			s += truth[j] * x[j]
		}
		if s > 0 {
			x[nf] = 1
		}
		tuples[i] = x
	}
	a := ml.Logistic{NFeatures: nf, LR: 0.2}
	model := ml.InitModel(a, 0)
	if err := golden.TrainSGD(a, model, tuples, 20); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, x := range tuples {
		p := ml.Sigmoid(dot(model, x, nf))
		if (p > 0.5) == (x[nf] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tuples)); acc < 0.97 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestSVMSeparatesClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nf = 6
	truth := make([]float64, nf)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	tuples := make([][]float64, 800)
	for i := range tuples {
		x := make([]float64, nf+1)
		s := 0.0
		for j := 0; j < nf; j++ {
			x[j] = rng.NormFloat64()
			s += truth[j] * x[j]
		}
		if s >= 0 {
			x[nf] = 1
		} else {
			x[nf] = -1
		}
		tuples[i] = x
	}
	a := ml.SVM{NFeatures: nf, LR: 0.05, Lambda: 0.001}
	model := ml.InitModel(a, 0)
	if err := golden.TrainSGD(a, model, tuples, 20); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, x := range tuples {
		m := dot(model, x, nf)
		if (m >= 0) == (x[nf] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tuples)); acc < 0.95 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestLRMFReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const users, items, rank = 30, 40, 4
	truthU := make([]float64, users*rank)
	truthV := make([]float64, items*rank)
	for i := range truthU {
		truthU[i] = rng.Float64()
	}
	for i := range truthV {
		truthV[i] = rng.Float64()
	}
	tuples := make([][]float64, 2000)
	for i := range tuples {
		u, v := rng.Intn(users), rng.Intn(items)
		r := 0.0
		for k := 0; k < rank; k++ {
			r += truthU[u*rank+k] * truthV[v*rank+k]
		}
		tuples[i] = []float64{float64(u), float64(users + v), r}
	}
	a := ml.LRMF{Users: users, Items: items, Rank: rank, LR: 0.05}
	model := ml.InitModel(a, 7)
	before := ml.MeanLoss(a, model, tuples)
	if err := golden.TrainSGD(a, model, tuples, 30); err != nil {
		t.Fatal(err)
	}
	after := ml.MeanLoss(a, model, tuples)
	if after > before/20 {
		t.Errorf("loss %v -> %v: insufficient improvement", before, after)
	}
}

func TestTrainSGDSizeCheck(t *testing.T) {
	a := ml.Linear{NFeatures: 3, LR: 0.1}
	if err := golden.TrainSGD(a, make([]float64, 2), nil, 1); err == nil {
		t.Error("wrong model size accepted")
	}
}

func TestAverageModels(t *testing.T) {
	got := ml.AverageModels([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if got[0] != 3 || got[1] != 4 {
		t.Errorf("avg = %v", got)
	}
	if ml.AverageModels(nil) != nil {
		t.Error("empty average should be nil")
	}
}

func TestFlopsPositive(t *testing.T) {
	algos := []ml.Algorithm{
		ml.Linear{NFeatures: 10, LR: 0.1},
		ml.Logistic{NFeatures: 10, LR: 0.1},
		ml.SVM{NFeatures: 10, LR: 0.1, Lambda: 0.01},
		ml.LRMF{Users: 5, Items: 5, Rank: 4, LR: 0.1},
	}
	for _, a := range algos {
		if a.FlopsPerUpdate() <= 0 || a.ModelSize() <= 0 {
			t.Errorf("%T: bad metadata", a)
		}
	}
}

// Property: the SVM update with margin >= 1 is pure weight decay.
func TestSVMDecayProperty(t *testing.T) {
	a := ml.SVM{NFeatures: 4, LR: 0.1, Lambda: 0.5}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model := make([]float64, 4)
		for i := range model {
			model[i] = rng.NormFloat64()
		}
		// Construct a tuple with a huge positive margin.
		tuple := make([]float64, 5)
		for i := 0; i < 4; i++ {
			tuple[i] = model[i] * 100
		}
		tuple[4] = 1
		before := append([]float64(nil), model...)
		if err := golden.Update(a, model, tuple); err != nil {
			t.Fatal(err)
		}
		for i := range model {
			want := before[i] * (1 - a.LR*a.Lambda)
			if math.Abs(model[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
