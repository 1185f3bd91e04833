package engine_test

import (
	"math"
	"math/rand"
	"testing"

	"dana/internal/algos"
	"dana/internal/compiler"
	"dana/internal/engine"
	"dana/internal/hdfg"
)

// The lowering of compiled programs: each program compiler.Compile emits
// for the paper's algorithms, lowered to per-AC micro-instruction streams
// and run on the MicroMachine one tuple at a time, trains the model the
// macro Machine trains at one thread, batch 1. (Package engine cannot
// import the compiler, so this file drives the exported API and the
// MicroMachine its test files declare.)

// compiled compiles one of the paper's algorithms.
func compiled(t *testing.T, kind algos.Kind, topology []int, h algos.Hyper) *engine.Program {
	t.Helper()
	h.Epochs = 1
	a, err := algos.Build(kind, topology, h)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// microCross feeds the same tuples to the macro Machine and to the
// MicroMachine from the same initial model (nil = zeros) and compares
// the models within tol, relative to max(1, |macro|).
func microCross(t *testing.T, prog *engine.Program, cfg engine.Config, init []float32, tuples [][]float32, tol float64) {
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
	for _, tuple := range tuples {
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
		if diff/math.Max(1, math.Abs(float64(a[i]))) > tol {
			t.Fatalf("model[%d]: macro %v vs micro %v", i, a[i], b[i])
		}
	}
}

// normalTuples draws n tuples of standard-normal values.
func normalTuples(n, width int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([][]float32, n)
	for i := range tuples {
		tuples[i] = make([]float32, width)
		for j := range tuples[i] {
			tuples[i][j] = float32(rng.NormFloat64())
		}
	}
	return tuples
}

func acs(n int) engine.Config {
	return engine.Config{Threads: 1, ACsPerThread: n, AUsPerAC: engine.DefaultAUsPerAC}
}

func TestMicroLoweringLinear(t *testing.T) {
	p := compiled(t, algos.KindLinear, []int{13}, algos.Hyper{LR: 0.03})
	microCross(t, p, acs(2), nil, normalTuples(50, 14, 1), 1e-4)
}

func TestMicroLoweringLinearWithMerge(t *testing.T) {
	p := compiled(t, algos.KindLinear, []int{10}, algos.Hyper{LR: 0.02, MergeCoef: 8})
	microCross(t, p, acs(2), nil, normalTuples(40, 11, 2), 1e-4)
}

func TestMicroLoweringLogistic(t *testing.T) {
	p := compiled(t, algos.KindLogistic, []int{9}, algos.Hyper{LR: 0.1, MergeCoef: 4})
	microCross(t, p, acs(1), nil, normalTuples(40, 10, 3), 1e-4)
}

func TestMicroLoweringSVM(t *testing.T) {
	p := compiled(t, algos.KindSVM, []int{12}, algos.Hyper{LR: 0.05, Lambda: 0.01, MergeCoef: 4})
	microCross(t, p, acs(2), nil, normalTuples(40, 13, 4), 1e-4)
}

// TestMicroLoweringLRMF: 6 users and 6 items of rank 5, tuples (user row,
// item row pre-offset by the users, rating).
func TestMicroLoweringLRMF(t *testing.T) {
	p := compiled(t, algos.KindLRMF, []int{6, 6, 5}, algos.Hyper{LR: 0.05})
	rng := rand.New(rand.NewSource(5))
	init := make([]float32, 60)
	for i := range init {
		init[i] = float32(0.2 * rng.Float64())
	}
	tuples := make([][]float32, 60)
	for i := range tuples {
		tuples[i] = []float32{float32(rng.Intn(6)), float32(6 + rng.Intn(6)), float32(rng.NormFloat64())}
	}
	microCross(t, p, acs(1), init, tuples, 1e-5)
}
