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
	"dana/internal/ml"
)

// Oracle C: training equivalence. golden.Spec.Train is a pure-Go float64
// trainer written directly from the DSL update-rule semantics, in the
// exact floating-point operation order the hDFG evaluator uses. The
// hierarchy of checks, loosening as implementations diverge in number
// representation:
//
//	golden == hDFG interpreter      bit-identical float64
//	golden ≈ ml baseline (MADlib)   1e-9 (same math, different op order)
//	golden ≈ engine simulator       5e-3 (float32 datapath)
//	engine plan == reference exec   bit-identical float32 + every counter

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

	golden := append([]float64(nil), init...)
	if err := sp.Train(golden, tuples); err != nil {
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
	if _, err := it.Train(tuples, sp.Epochs); err != nil {
		return fmt.Errorf("oracle C: interp: %w", err)
	}
	if err := CompareModels("golden vs interp", golden, it.Model(), 0); err != nil {
		return err
	}

	// Leg 2: ml baseline — plain SGD only (the baseline has no merge
	// batching), tight tolerance.
	if sp.MergeCoef <= 1 {
		mlModel := append([]float64(nil), init...)
		if err := ml.TrainSGD(sp.Algorithm(), mlModel, tuples, maxInt(sp.Epochs, 1)); err != nil {
			return fmt.Errorf("oracle C: ml: %w", err)
		}
		if err := CompareModels("golden vs ml", golden, mlModel, opt.MLTol); err != nil {
			return err
		}
	}

	// Leg 3: engine simulator (float32 datapath) on the hwgen design.
	if !opt.SkipEngine {
		prog, err := compiler.Compile(graph)
		if err != nil {
			return fmt.Errorf("oracle C: compile: %w", err)
		}
		design, err := hwgen.Generate(prog, hwgen.VU9P(), hwgen.Params{
			PageSize:  8192,
			MergeCoef: maxInt(sp.MergeCoef, 1),
			NumTuples: len(tuples),
		})
		if err != nil {
			return fmt.Errorf("oracle C: hwgen: %w", err)
		}
		m, err := engine.NewMachine(prog, design.Engine)
		if err != nil {
			return fmt.Errorf("oracle C: machine: %w", err)
		}
		init32 := make([]float32, len(init))
		for i, v := range init {
			init32[i] = float32(v)
		}
		if err := m.SetModel(init32); err != nil {
			return fmt.Errorf("oracle C: machine: %w", err)
		}
		t32 := make([][]float32, len(tuples))
		for i, t := range tuples {
			row := make([]float32, len(t))
			for j, v := range t {
				row[j] = float32(v)
			}
			t32[i] = row
		}
		if _, err := m.Train(t32, maxInt(sp.MergeCoef, 1), maxInt(sp.Epochs, 1)); err != nil {
			return fmt.Errorf("oracle C: machine train: %w", err)
		}
		got := make([]float64, len(golden))
		for i, v := range m.Model() {
			got[i] = float64(v)
		}
		if err := CompareModels("golden vs engine", golden, got, opt.EngineTol); err != nil {
			return err
		}

		// Leg 4: the engine's lowered plan (what Train just ran) against
		// its reference executor, the macro-instruction interpreter, on
		// the same design: model bits and every modeled counter equal.
		ref, err := engine.NewMachine(prog, design.Engine)
		if err != nil {
			return fmt.Errorf("oracle C: reference machine: %w", err)
		}
		if err := ref.SetModel(init32); err != nil {
			return fmt.Errorf("oracle C: reference machine: %w", err)
		}
		if _, err := ref.TrainReference(t32, maxInt(sp.MergeCoef, 1), maxInt(sp.Epochs, 1)); err != nil {
			return fmt.Errorf("oracle C: reference train: %w", err)
		}
		if err := CompareModelBits("plan vs reference", m.Model(), ref.Model()); err != nil {
			return err
		}
		if err := CompareEngineStats("plan vs reference", m.Stats(), ref.Stats()); err != nil {
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
