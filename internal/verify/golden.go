package verify

import (
	"fmt"
	"math"

	"dana/internal/algos"
	"dana/internal/compiler"
	"dana/internal/engine"
	"dana/internal/golden"
	"dana/internal/hdfg"
	"dana/internal/hwgen"
)

// Oracle C: training equivalence. golden.Spec.Train is a pure-Go float64
// trainer written directly from the DSL update-rule semantics, in the
// exact floating-point operation order the hDFG evaluator uses. The
// hierarchy of checks, loosening as implementations diverge in number
// representation:
//
//	golden == hDFG interpreter      bit-identical float64
//	golden ≈ textbook IGD           1e-9 (same math, different op order)
//	golden ≈ engine simulator       5e-3 (float32 datapath)
//
// and the engine's tests close the chain on the same instances
// (TrainingCase): engine plan == reference executor, bit-identical
// float32 and every counter.

// CompareModels checks |a-b| <= tol * (1 + max(|a|,|b|)) per parameter;
// tol 0 demands bit-identity.
func CompareModels(what string, a, b []float64, tol float64) error {
	return golden.CompareModels(what, a, b, tol)
}

// EquivalenceOpt tunes CheckTrainingEquivalence.
type EquivalenceOpt struct {
	SkipEngine bool    // skip the float32 engine leg
	EngineTol  float64 // default 5e-3
	MLTol      float64 // default 1e-9
}

// CheckTrainingEquivalence runs the full Oracle C hierarchy for one
// (spec, init, tuples) instance.
func CheckTrainingEquivalence(sp golden.Spec, init []float64, tuples [][]float64, opt EquivalenceOpt) error {
	if opt.EngineTol == 0 {
		opt.EngineTol = 5e-3
	}
	if opt.MLTol == 0 {
		opt.MLTol = 1e-9
	}
	for _, t := range tuples {
		if len(t) != sp.TupleWidth() {
			return fmt.Errorf("oracle C: tuple width %d, want %d", len(t), sp.TupleWidth())
		}
	}

	gold := append([]float64(nil), init...)
	if err := sp.Train(gold, tuples); err != nil {
		return err
	}

	// Leg 1: hDFG interpreter, bit-identical.
	a, err := algos.Build(sp.Kind, sp.Topology(), sp.Hyper())
	if err != nil {
		return err
	}
	graph, err := hdfg.Translate(a)
	if err != nil {
		return err
	}
	it, err := hdfg.NewInterp(graph, init)
	if err != nil {
		return err
	}
	limit := graph.Epochs // the algorithm's budget, or sp.Epochs if smaller and positive
	if limit <= 0 || (sp.Epochs > 0 && sp.Epochs < limit) {
		limit = sp.Epochs
	}
	if err := trainEpochs(limit, func() error { return it.Epoch(tuples) }, it.Converged); err != nil {
		return fmt.Errorf("oracle C: interp: %w", err)
	}
	if err := CompareModels("golden vs interp", gold, it.Model(), 0); err != nil {
		return err
	}

	// Leg 2: golden's textbook-order IGD — plain SGD only (it has no
	// merge batching), tight tolerance.
	if sp.MergeCoef <= 1 {
		mlModel := append([]float64(nil), init...)
		if err := golden.TrainSGD(sp.Algorithm(), mlModel, tuples, maxInt(sp.Epochs, 1)); err != nil {
			return fmt.Errorf("oracle C: textbook IGD: %w", err)
		}
		if err := CompareModels("golden vs textbook IGD", gold, mlModel, opt.MLTol); err != nil {
			return err
		}
	}

	// Leg 3: engine simulator (float32 datapath) on the hwgen design.
	// Its plan is held bit-equal, model and Stats, to the engine's
	// reference executor on these same instances by the engine's own
	// tests (TestPlanMatchesReferenceOnOracleC), so the chain runs golden
	// ↔ plan ↔ reference.
	if !opt.SkipEngine {
		prog, cfg, err := EngineProgram(sp, len(tuples))
		if err != nil {
			return err
		}
		m, err := engine.NewMachine(prog, cfg)
		if err != nil {
			return fmt.Errorf("oracle C: machine: %w", err)
		}
		if err := m.SetModel(Narrow(init)); err != nil {
			return fmt.Errorf("oracle C: machine: %w", err)
		}
		t32 := make([][]float32, len(tuples))
		for i, t := range tuples {
			t32[i] = Narrow(t)
		}
		batch := maxInt(sp.MergeCoef, 1)
		if err := trainEpochs(sp.Epochs, func() error { return m.RunEpoch(t32, batch) }, m.Converged); err != nil {
			return fmt.Errorf("oracle C: machine train: %w", err)
		}
		got := make([]float64, len(gold))
		for i, v := range m.Model() {
			got[i] = float64(v)
		}
		if err := CompareModels("golden vs engine", gold, got, opt.EngineTol); err != nil {
			return err
		}
	}
	return nil
}

// TrainingCase draws Oracle C's instance for a differential seed, from a
// generator of its own: a training spec whose hyper-parameters stay where
// float32/float64 divergence is well under the engine tolerance (no
// knife-edge SVM margins, bounded feature scale), 20–59 well-scaled
// tuples and an initial model. The differential suite's Oracle C and the
// engine's plan-vs-reference test draw the same instances from it.
func TrainingCase(seed int64) (golden.Spec, [][]float64, []float64) {
	g := NewGen(seed)
	sp := golden.Spec{
		Kind:      trainingKinds[g.Intn(len(trainingKinds))],
		LR:        0.01 + float64(0.04*float64(g.Intn(5))), // no fused multiply-add: the rate must not depend on GOARCH
		Epochs:    1 + g.Intn(3),
		MergeCoef: []int{1, 1, 2, 4, 8}[g.Intn(5)],
	}
	switch sp.Kind {
	case algos.KindLRMF:
		sp.Users = 2 + g.Intn(6)
		sp.Items = 2 + g.Intn(6)
		sp.Rank = 1 + g.Intn(4)
		sp.MergeCoef = 1 // row updates imply single-threaded (no merge)
	case algos.KindSVM:
		sp.NFeat = 2 + g.Intn(14)
		sp.Lambda = 0.01
	default:
		sp.NFeat = 2 + g.Intn(14)
	}
	n := 20 + g.Intn(40)
	return sp, golden.TrainingTuples(g, sp, n), golden.InitModelFor(g, sp)
}

var trainingKinds = []algos.Kind{algos.KindLinear, algos.KindLogistic, algos.KindSVM, algos.KindLRMF}

// EngineProgram compiles a spec down to the engine program and the
// engine configuration of the design point hwgen chooses for nTuples
// tuples: the machine Oracle C's engine leg trains.
func EngineProgram(sp golden.Spec, nTuples int) (*engine.Program, engine.Config, error) {
	a, err := algos.Build(sp.Kind, sp.Topology(), sp.Hyper())
	if err != nil {
		return nil, engine.Config{}, err
	}
	graph, err := hdfg.Translate(a)
	if err != nil {
		return nil, engine.Config{}, err
	}
	prog, err := compiler.Compile(graph)
	if err != nil {
		return nil, engine.Config{}, fmt.Errorf("oracle C: compile: %w", err)
	}
	design, err := hwgen.Generate(prog, hwgen.VU9P(), hwgen.Params{
		PageSize:  8192,
		MergeCoef: maxInt(sp.MergeCoef, 1),
		NumTuples: nTuples,
	})
	if err != nil {
		return nil, engine.Config{}, fmt.Errorf("oracle C: hwgen: %w", err)
	}
	return prog, design.Engine, nil
}

// Narrow rounds a float64 vector to the engine's float32 datapath.
func Narrow(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// trainEpochs is Oracle C's epoch loop for the interpreter and engine
// legs: up to limit epochs (at least one), stopping after the first
// epoch whose convergence check passes.
func trainEpochs(limit int, epoch func() error, converged func() (bool, error)) error {
	for e := 0; e < maxInt(limit, 1); e++ {
		if err := epoch(); err != nil {
			return err
		}
		if done, err := converged(); err != nil || done {
			return err
		}
	}
	return nil
}

// CompareModelBits demands bit-identical float32 models: the plan's
// fusions may not move a single rounding.
func CompareModelBits(what string, a, b []float32) error {
	if len(a) != len(b) {
		return fmt.Errorf("oracle C (%s): model sizes %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return fmt.Errorf("oracle C (%s): model[%d] = %v (%#x) vs %v (%#x)",
				what, i, a[i], math.Float32bits(a[i]), b[i], math.Float32bits(b[i]))
		}
	}
	return nil
}

// CompareEngineStats demands identical modeled engine counters — the
// metamorphic check that executor restructurings (parallelism, caching)
// never change modeled time. A single dropped cycle charge fails it.
func CompareEngineStats(what string, a, b engine.Stats) error {
	if a != b {
		return fmt.Errorf("oracle C (%s): engine stats diverge:\n  a=%+v\n  b=%+v", what, a, b)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
