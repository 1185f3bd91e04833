package compiler

import (
	"math"
	"math/rand"
	"testing"

	"dana/internal/engine"
)

func runMicroCross(t *testing.T, prog *engine.Program, cfg engine.Config, width, n int, seed int64, init []float32) {
	t.Helper()
	cfg.Threads = 1
	mac, err := engine.NewMachine(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := engine.Lower(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mic := engine.NewMicroMachine(mp)
	if init != nil {
		if err := mac.SetModel(init); err != nil {
			t.Fatal(err)
		}
		if err := mic.SetModel(init); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tuple := make([]float32, width)
		for j := range tuple {
			tuple[j] = float32(rng.NormFloat64())
		}
		if err := mac.RunBatch([][]float32{tuple}); err != nil {
			t.Fatal(err)
		}
		if err := mic.RunTuple(tuple); err != nil {
			t.Fatal(err)
		}
	}
	a, b := mac.Model(), mic.Model()
	for i := range a {
		diff := math.Abs(float64(a[i] - b[i]))
		if diff/math.Max(1, math.Abs(float64(a[i]))) > 1e-4 {
			t.Fatalf("model[%d]: macro %v vs micro %v", i, a[i], b[i])
		}
	}
}

func TestMicroLoweringLinear(t *testing.T) {
	_, p := mustCompile(t, linearAlgo(13, 0, 0.03))
	runMicroCross(t, p, cfg(1, 2), 14, 50, 1, nil)
}

func TestMicroLoweringLinearWithMerge(t *testing.T) {
	_, p := mustCompile(t, linearAlgo(10, 8, 0.02))
	runMicroCross(t, p, cfg(1, 2), 11, 40, 2, nil)
}

func TestMicroLoweringLogistic(t *testing.T) {
	_, p := mustCompile(t, logisticAlgo(9, 4, 0.1))
	runMicroCross(t, p, cfg(1, 1), 10, 40, 3, nil)
}

func TestMicroLoweringSVM(t *testing.T) {
	_, p := mustCompile(t, svmAlgo(12, 4, 0.05, 0.01))
	runMicroCross(t, p, cfg(1, 2), 13, 40, 4, nil)
}

func TestMicroLoweringLRMF(t *testing.T) {
	_, p := mustCompile(t, lrmfAlgo(12, 5, 0.05))
	init := make([]float32, 60)
	rng := rand.New(rand.NewSource(5))
	for i := range init {
		init[i] = float32(0.2 * rng.Float64())
	}
	cfg := engine.Config{Threads: 1, ACsPerThread: 1, AUsPerAC: 8}
	mac, err := engine.NewMachine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := engine.Lower(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mic := engine.NewMicroMachine(mp)
	if err := mac.SetModel(init); err != nil {
		t.Fatal(err)
	}
	if err := mic.SetModel(init); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		tuple := []float32{
			float32(rng.Intn(6)),     // user row 0..5
			float32(6 + rng.Intn(6)), // item row 6..11
			float32(rng.NormFloat64()),
		}
		if err := mac.RunBatch([][]float32{tuple}); err != nil {
			t.Fatal(err)
		}
		if err := mic.RunTuple(tuple); err != nil {
			t.Fatal(err)
		}
	}
	a, b := mac.Model(), mic.Model()
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-5 {
			t.Fatalf("model[%d]: macro %v vs micro %v", i, a[i], b[i])
		}
	}
}

func TestMicroInstructionFootprint(t *testing.T) {
	// The micro expansion of a 54-feature linear program should stay in
	// the hundreds of AC instructions — a compact footprint per §5.1.2.
	_, p := mustCompile(t, linearAlgo(54, 16, 0.01))
	mp, err := engine.Lower(p, engine.Config{Threads: 1, ACsPerThread: 7, AUsPerAC: 8})
	if err != nil {
		t.Fatal(err)
	}
	pt, pm, _ := mp.Count()
	if pt == 0 {
		t.Fatal("no per-tuple micro ops")
	}
	if pt+pm > 1500 {
		t.Errorf("micro footprint %d+%d unexpectedly large", pt, pm)
	}
}
