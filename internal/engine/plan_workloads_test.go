package engine_test

import (
	"math"
	"math/rand"
	hostrt "runtime"
	"testing"

	"dana/internal/algos"
	"dana/internal/compiler"
	"dana/internal/datagen"
	"dana/internal/engine"
	"dana/internal/golden"
	"dana/internal/hdfg"
)

// TestPlanMatchesReferenceTable3: the programs compiler.Compile emits
// for every Table 3 real workload (logistic, SVM, linear, LRMF at the
// paper's widths) run bit-identically on the plan and on the reference
// executor, counters included, after every batch: n < k, n == k,
// n = 3k+1, merge-coefficient batches with a trailing partial one, and
// one wide enough to clear the fan-out floor, at host workers 1/2/4.
// (Package engine cannot import the compiler, so this file drives the
// exported API; plan_test.go holds the in-package harness.)
func TestPlanMatchesReferenceTable3(t *testing.T) {
	old := hostrt.GOMAXPROCS(4)
	defer hostrt.GOMAXPROCS(old)
	const k = 8
	cfg := engine.Config{Threads: k, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}
	for _, w := range datagen.Real() {
		sp := golden.Spec{Kind: w.Kind, LR: w.LR, Lambda: w.Lambda, MergeCoef: 2 * k, Epochs: 1}
		if w.Kind == algos.KindLRMF {
			// Netflix's shape at a tenth of its rows (the row count only
			// sizes the model; rank 10 is the kernel's width).
			sp.Users, sp.Items, sp.Rank, sp.MergeCoef = w.Topology[0]/10, w.Topology[1]/10, w.Topology[2], 1
		} else {
			sp.NFeat = w.Topology[0]
		}
		a, err := algos.Build(sp.Kind, sp.Topology(), sp.Hyper())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		g, err := hdfg.Translate(a)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		prog, err := compiler.Compile(g)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		rng := rand.New(rand.NewSource(9))
		tuples := narrow(golden.TrainingTuples(rng, sp, 11*k+3))
		init := narrow([][]float64{golden.InitModelFor(rng, sp)})[0]
		wide := int(40000/prog.Estimate(cfg).PerTuple) + 1
		sizes := []int{k - 1, k, 3*k + 1, 2 * k, 2 * k, 2 * k, k / 2, wide}
		for _, workers := range []int{1, 2, 4} {
			pm, err := engine.NewMachine(prog, cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			rm, _ := engine.NewMachine(prog, cfg)
			pm.SetHostWorkers(workers)
			if err := pm.SetModel(init); err != nil {
				t.Fatal(err)
			}
			if err := rm.SetModel(init); err != nil {
				t.Fatal(err)
			}
			at := 0
			for bi, n := range sizes {
				batch := make([][]float32, n)
				for i := range batch {
					batch[i] = tuples[(at+i)%len(tuples)]
				}
				at += n
				if err := pm.RunBatch(batch); err != nil {
					t.Fatalf("%s: plan: %v", w.Name, err)
				}
				if err := rm.RunBatchReference(batch); err != nil {
					t.Fatalf("%s: reference: %v", w.Name, err)
				}
				got, want := pm.Model(), rm.Model()
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s workers=%d batch %d (n=%d): model[%d] plan %v != reference %v", w.Name, workers, bi, n, i, got[i], want[i])
					}
				}
				if pm.Stats() != rm.Stats() {
					t.Fatalf("%s workers=%d batch %d (n=%d): stats diverge:\n  plan      %+v\n  reference %+v", w.Name, workers, bi, n, pm.Stats(), rm.Stats())
				}
			}
			pm.Close()
		}
	}
}

func narrow(rows [][]float64) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = make([]float32, len(r))
		for j, v := range r {
			out[i][j] = float32(v)
		}
	}
	return out
}
