package engine_test

import (
	"math/rand"
	"strings"
	"testing"

	"dana/internal/algos"
	"dana/internal/compiler"
	"dana/internal/datagen"
	"dana/internal/engine"
	"dana/internal/golden"
	"dana/internal/hdfg"
	"dana/internal/verify"
)

// The plan against the reference executor on Oracle C's instances. The
// differential suite's Oracle C compares the golden trainer with the
// plan on verify.TrainingCase's instances; this file compares the plan
// with the reference executor on the same ones, so the chain runs golden
// ↔ plan ↔ reference on the same inputs. (Package engine cannot import
// verify, which imports it; the reference executor is handed over by
// being a test file of package engine.)

// TestPlanMatchesReferenceOnOracleC: every instance TrainingCase draws for
// the differential suite's seeds, compiled to the design hwgen chooses
// for it and trained on both executors as Oracle C trains the plan —
// RunEpoch at the merge coefficient, Converged after each epoch, up to
// the spec's epochs — ends with equal model bits and equal Stats, every
// counter. One more input is the merge batch server_mix spends most of
// its engine time in (BenchmarkEnginePartitionBatch at the root times
// it): the compiled Patient program at 64 threads over 107 tuples, so
// threads 0–42 run two tuples and 43–63 one, and lane group 40–43 holds
// both.
func TestPlanMatchesReferenceOnOracleC(t *testing.T) {
	for i := 0; i < verify.NumInstances; i++ {
		seed := int64(verify.BaseSeed + i)
		sp, tuples, init := verify.TrainingCase(seed)
		if err := trainBoth(sp, tuples, init); err != nil {
			t.Errorf("seed 0x%X (%s, merge %d): %v", seed, sp.Kind, sp.MergeCoef, err)
		}
	}
	if err := partitionBatchBoth(); err != nil {
		t.Errorf("Patient partition batch: %v", err)
	}
}

// trainBoth trains one Oracle C instance on the plan and on the reference
// executor and compares the two machines.
func trainBoth(sp golden.Spec, tuples [][]float64, init []float64) error {
	prog, cfg, err := verify.EngineProgram(sp, len(tuples))
	if err != nil {
		return err
	}
	t32 := make([][]float32, len(tuples))
	for i, t := range tuples {
		t32[i] = verify.Narrow(t)
	}
	pm, rm, err := machines(prog, cfg, verify.Narrow(init))
	if err != nil {
		return err
	}
	batch, epochs := max(sp.MergeCoef, 1), max(sp.Epochs, 1)
	for e := 0; e < epochs; e++ {
		if err := pm.RunEpoch(t32, batch); err != nil {
			return err
		}
		done, err := pm.Converged()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	if _, err := rm.TrainReference(t32, batch, epochs); err != nil {
		return err
	}
	return sameMachines(pm, rm)
}

// partitionBatchBoth runs BenchmarkEnginePartitionBatch's batch once on
// each executor from the same model.
func partitionBatchBoth() error {
	const n, threads = 107, 64
	w, err := datagen.ByName("Patient")
	if err != nil {
		return err
	}
	a, err := algos.Build(w.Kind, w.Topology, algos.Hyper{LR: w.LR, Lambda: w.Lambda, MergeCoef: n, Epochs: 1})
	if err != nil {
		return err
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		return err
	}
	prog, err := compiler.Compile(g)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(35))
	init := make([]float32, prog.ModelSlot.Len)
	for i := range init {
		init[i] = float32(rng.NormFloat64() * 0.1)
	}
	batch := make([][]float32, n)
	for i := range batch {
		batch[i] = make([]float32, prog.InputSlot.Len)
		for j := range batch[i] {
			batch[i][j] = float32(rng.NormFloat64() * 0.5)
		}
	}
	pm, rm, err := machines(prog, engine.Config{Threads: threads, ACsPerThread: 2, AUsPerAC: 8}, init)
	if err != nil {
		return err
	}
	if err := pm.RunBatch(batch); err != nil {
		return err
	}
	if err := rm.RunBatchReference(batch); err != nil {
		return err
	}
	return sameMachines(pm, rm)
}

// machines builds the plan's and the reference's machine from one
// program and initial model.
func machines(prog *engine.Program, cfg engine.Config, init []float32) (pm, rm *engine.Machine, err error) {
	if pm, err = engine.NewMachine(prog, cfg); err != nil {
		return nil, nil, err
	}
	if rm, err = engine.NewMachine(prog, cfg); err != nil {
		return nil, nil, err
	}
	if err := pm.SetModel(init); err != nil {
		return nil, nil, err
	}
	return pm, rm, rm.SetModel(init)
}

// sameMachines holds the plan's model bits and Stats to the reference's,
// through Oracle C's comparators.
func sameMachines(pm, rm *engine.Machine) error {
	if err := verify.CompareModelBits("plan vs reference", pm.Model(), rm.Model()); err != nil {
		return err
	}
	return verify.CompareEngineStats("plan vs reference", pm.Stats(), rm.Stats())
}

// TestMetaPlanFaultFailsBothLinks: one planted plan fault — the step
// kernel's subtraction with its operands in the wrong order — fails both
// links of the chain on a plain-SGD linear instance: the plan-vs-reference
// comparison above and Oracle C's golden-vs-engine leg. Both pass on the
// same instance without it.
func TestMetaPlanFaultFailsBothLinks(t *testing.T) {
	sp := golden.Spec{Kind: algos.KindLinear, NFeat: 6, LR: 0.05, Epochs: 2, MergeCoef: 1}
	rng := rand.New(rand.NewSource(47))
	tuples := golden.TrainingTuples(rng, sp, 30)
	init := golden.InitModelFor(rng, sp)
	oracleC := func() error { return verify.CheckTrainingEquivalence(sp, init, tuples, verify.EquivalenceOpt{}) }
	if err := trainBoth(sp, tuples, init); err != nil {
		t.Fatalf("pre-mutation, plan vs reference: %v", err)
	}
	if err := oracleC(); err != nil {
		t.Fatalf("pre-mutation, Oracle C: %v", err)
	}
	undo := engine.PlantStepFault()
	defer undo()
	if err := trainBoth(sp, tuples, init); err == nil || !strings.Contains(err.Error(), "plan vs reference") {
		t.Errorf("the planted step fault reads %v on plan vs reference, want a divergence", err)
	}
	if err := oracleC(); err == nil || !strings.Contains(err.Error(), "golden vs engine") {
		t.Errorf("the planted step fault reads %v on Oracle C, want a golden-vs-engine divergence", err)
	}
}
