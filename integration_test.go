package dana

// System-level integration tests: the accelerated pipeline and the CPU
// baselines must agree on what they learn, across all four algorithm
// families, through the public API only.

import (
	"math"
	"testing"

	"dana/internal/ml"
)

// trainBoth trains a workload with DAnA and MADlib at equal epochs and
// returns both models plus the dataset tuples.
func trainBoth(t *testing.T, workload string, scale float64, mergeCoef, epochs int) (dana []float32, mad []float64, tuples [][]float64, alg MLAlgorithm) {
	t.Helper()
	eng, err := Open(Config{PageSize: 8 << 10, PoolBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.LoadWorkload(workload, scale, 77)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.DSLAlgo(mergeCoef)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(epochs)
	if err := eng.RegisterUDF(a, mergeCoef); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	alg = d.MLAlgorithm()
	madRes, err := eng.TrainMADlib(d.Rel.Name, alg, epochs)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.SQL("SELECT * FROM " + d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	return res.Model, madRes.Model, rows.Rows, alg
}

// lossOf evaluates the f32 model under the reference loss.
func lossOf(alg MLAlgorithm, model []float32, tuples [][]float64) float64 {
	m := make([]float64, len(model))
	for i, v := range model {
		m[i] = float64(v)
	}
	return ml.MeanLoss(alg, m, tuples)
}

func TestSystemsAgreeLinear(t *testing.T) {
	dana, mad, tuples, alg := trainBoth(t, "Patient", 0.01, 16, 6)
	ld := lossOf(alg, dana, tuples)
	lm := ml.MeanLoss(alg, mad, tuples)
	// Batched-gradient DAnA and per-tuple MADlib follow different
	// trajectories but must both fit the data.
	base := ml.MeanLoss(alg, make([]float64, len(mad)), tuples)
	if ld > base/3 {
		t.Errorf("DAnA loss %v vs untrained %v", ld, base)
	}
	if lm > base/3 {
		t.Errorf("MADlib loss %v vs untrained %v", lm, base)
	}
}

func TestSystemsAgreeLogistic(t *testing.T) {
	dana, mad, tuples, _ := trainBoth(t, "Remote Sensing LR", 0.001, 16, 6)
	// Prediction agreement between the two classifiers.
	nf := len(mad)
	agree := 0
	for _, tup := range tuples {
		var sd, sm float64
		for j := 0; j < nf; j++ {
			sd += float64(dana[j]) * tup[j]
			sm += mad[j] * tup[j]
		}
		if (sd > 0) == (sm > 0) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(tuples)); frac < 0.9 {
		t.Errorf("classifier agreement %.2f < 0.9", frac)
	}
}

func TestSystemsAgreeSVM(t *testing.T) {
	dana, mad, tuples, _ := trainBoth(t, "Remote Sensing SVM", 0.001, 16, 6)
	nf := len(mad)
	agree := 0
	for _, tup := range tuples {
		var sd, sm float64
		for j := 0; j < nf; j++ {
			sd += float64(dana[j]) * tup[j]
			sm += mad[j] * tup[j]
		}
		if (sd >= 0) == (sm >= 0) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(tuples)); frac < 0.9 {
		t.Errorf("classifier agreement %.2f < 0.9", frac)
	}
}

func TestSystemsAgreeLRMF(t *testing.T) {
	// LRMF: compare training RMSE of DAnA's factor model against the
	// MADlib reference (both SGD from small random inits).
	danaM, madM, tuples, alg := trainBoth(t, "Netflix", 0.001, 1, 6)
	ld := lossOf(alg, danaM, tuples)
	lm := ml.MeanLoss(alg, madM, tuples)
	if math.IsNaN(ld) || math.IsNaN(lm) {
		t.Fatal("NaN loss")
	}
	if ld > 5*lm+0.05 {
		t.Errorf("DAnA LRMF loss %v far above MADlib %v", ld, lm)
	}
}

func TestGreenplumSegmentsSameData(t *testing.T) {
	eng, err := Open(Config{PageSize: 8 << 10, PoolBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.LoadWorkload("Blog Feedback", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	alg := LinearRegression{NFeatures: 280, LR: 0.0018}
	var prev *BaselineResult
	for _, segs := range []int{1, 4, 8} {
		r, err := eng.TrainGreenplum(d.Rel.Name, alg, segs, 4)
		if err != nil {
			t.Fatal(err)
		}
		if r.Tuples != int64(4*d.Tuples) {
			t.Errorf("%d segments: %d tuple updates", segs, r.Tuples)
		}
		if prev != nil && r.FinalLoss > 20*prev.FinalLoss+1e-6 {
			t.Errorf("%d segments: loss %v vastly worse than %v", segs, r.FinalLoss, prev.FinalLoss)
		}
		prev = r
	}
}

func TestColdVsWarmFunctionalIO(t *testing.T) {
	eng, err := Open(Config{PageSize: 8 << 10, PoolBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.LoadWorkload("WLAN", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(2)
	if err := eng.RegisterUDF(a, 8); err != nil {
		t.Fatal(err)
	}
	// Cold run: first epoch reads everything from "disk".
	cold, err := eng.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Pool.Misses == 0 {
		t.Error("cold run had no misses")
	}
	// Warm run: pool retains the table; a second training query should
	// be nearly all hits.
	eng.Pool().ResetStats()
	warm, err := eng.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pool.Misses != 0 {
		t.Errorf("warm run had %d misses", warm.Pool.Misses)
	}
	if warm.SimulatedSeconds >= cold.SimulatedSeconds {
		t.Errorf("warm %.4fs not faster than cold %.4fs", warm.SimulatedSeconds, cold.SimulatedSeconds)
	}
}
