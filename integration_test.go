package dana

// System-level integration tests: the accelerated pipeline and the CPU
// baselines must agree on what they learn, across all four algorithm
// families, through the public API only.

import (
	"math"
	"testing"

	"dana/internal/ml"
)

// trainBoth trains a workload with DAnA and with the MADlib baseline
// (the cpu backend, its UDF at merge coefficient 1) at equal epochs and
// returns both models plus the dataset tuples.
func trainBoth(t *testing.T, workload string, scale float64, mergeCoef, epochs int) (dana []float32, mad []float64, tuples [][]float64, alg ml.Algorithm) {
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
	cpu, cd, ca := baselineEngine(t, Config{PageSize: 8 << 10, PoolBytes: 64 << 20, Backend: "cpu"}, workload, scale, 77, epochs)
	madRes, err := cpu.Train(ca.Name, cd.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.SQL("SELECT * FROM " + d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	return res.Model, widen(madRes.Model), rows.Rows, d.MLAlgorithm()
}

// lossOf evaluates the f32 model under the reference loss.
func lossOf(alg ml.Algorithm, model []float32, tuples [][]float64) float64 {
	return ml.MeanLoss(alg, widen(model), tuples)
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

// TestGreenplumSegmentsSameData trains the Greenplum baseline (the
// sharded backend) at 1, 4 and 8 segments over one table: no count's
// loss is vastly worse than the count before, and one segment is the
// MADlib baseline, bit for bit.
func TestGreenplumSegmentsSameData(t *testing.T) {
	const epochs = 4
	cfg := Config{PageSize: 8 << 10, PoolBytes: 64 << 20, Backend: "cpu"}
	eng, d, a := baselineEngine(t, cfg, "Blog Feedback", 0.01, 5, epochs)
	mad, err := eng.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.SQL("SELECT * FROM " + d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	alg := d.MLAlgorithm()
	prev := math.Inf(1)
	for _, segs := range []int{1, 4, 8} {
		cfg.Backend, cfg.Segments = "sharded", segs
		eng, d, a := baselineEngine(t, cfg, "Blog Feedback", 0.01, 5, epochs)
		r, err := eng.Train(a.Name, d.Rel.Name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Epochs != epochs {
			t.Errorf("%d segments: %d epochs", segs, r.Epochs)
		}
		if segs == 1 {
			for i := range mad.Model {
				if math.Float32bits(r.Model[i]) != math.Float32bits(mad.Model[i]) {
					t.Fatalf("one segment: model[%d] %v, madlib %v", i, r.Model[i], mad.Model[i])
				}
			}
		}
		loss := ml.MeanLoss(alg, widen(r.Model), rows.Rows)
		if loss > 20*prev+1e-6 {
			t.Errorf("%d segments: loss %v vastly worse than %v", segs, loss, prev)
		}
		prev = loss
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
