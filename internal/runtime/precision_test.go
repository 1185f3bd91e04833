package runtime

// Options.Precision integration tests: the any-precision knob routes
// training through the weave backend, full-width settings stay
// bit-identical to the historical accelerator path, and out-of-range
// values fail typed.

import (
	"errors"
	"math"
	"testing"

	"dana/internal/backend"
	"dana/internal/ml"
	"dana/internal/storage"
)

// trainPatientWith builds a fresh system from opts, deploys the Patient
// workload, registers its UDF, and trains it.
func trainPatientWith(t *testing.T, opts Options) (*System, *TrainResult, [][]float64) {
	t.Helper()
	s := New(opts)
	d := deployScaled(t, s, "Patient", 0.02)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(10)
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	var tuples [][]float64
	if err := d.Rel.Scan(func(_ storage.TID, vals []float64) error {
		tuples = append(tuples, append([]float64(nil), vals...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return s, res, tuples
}

func precisionOpts(bits int) Options {
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.Cost.PoolBytes = 32 << 20
	opts.MaxEpochs = 20
	opts.Precision = bits
	return opts
}

// TestTrainPrecisionRoutesWeave: a reduced precision pins the weave
// backend through the default dispatch path, and the quantized model
// still fits the data.
func TestTrainPrecisionRoutesWeave(t *testing.T) {
	for _, bits := range []int{4, 8} {
		_, res, tuples := trainPatientWith(t, precisionOpts(bits))
		if res.Backend != backend.NameWeave {
			t.Fatalf("precision %d trained on backend %q, want %q", bits, res.Backend, backend.NameWeave)
		}
		if res.Epochs < 1 || res.SimulatedSeconds <= 0 {
			t.Fatalf("precision %d: epochs=%d simulated=%v", bits, res.Epochs, res.SimulatedSeconds)
		}
		model := make([]float64, len(res.Model))
		for i, v := range res.Model {
			model[i] = float64(v)
		}
		alg := ml.Linear{NFeatures: len(model)}
		zero := make([]float64, len(model))
		if got, base := ml.MeanLoss(alg, model, tuples), ml.MeanLoss(alg, zero, tuples); got > base/2 {
			t.Errorf("precision %d: trained loss %v vs untrained %v: insufficient learning", bits, got, base)
		}
	}
}

// TestTrainPrecisionFullWidthIdentical: Precision 0 and Precision 32
// both keep the accelerator path, bit-for-bit — the knob's default is
// invisible.
func TestTrainPrecisionFullWidthIdentical(t *testing.T) {
	_, base, _ := trainPatientWith(t, precisionOpts(0))
	_, full, _ := trainPatientWith(t, precisionOpts(32))
	if base.Backend != backend.NameAccelerator || full.Backend != backend.NameAccelerator {
		t.Fatalf("backends %q / %q, want accelerator for both", base.Backend, full.Backend)
	}
	if len(base.Model) == 0 || len(base.Model) != len(full.Model) {
		t.Fatalf("model lengths %d vs %d", len(base.Model), len(full.Model))
	}
	for i := range base.Model {
		if math.Float32bits(base.Model[i]) != math.Float32bits(full.Model[i]) {
			t.Fatalf("model[%d]: %v (precision 0) != %v (precision 32)", i, base.Model[i], full.Model[i])
		}
	}
	if base.SimulatedSeconds != full.SimulatedSeconds {
		t.Fatalf("simulated seconds %v vs %v", base.SimulatedSeconds, full.SimulatedSeconds)
	}
}

// TestTrainExplicitWeaveFullWidth: Backend "weave" with no reduced
// precision reads all 32 planes through the vertical layout.
func TestTrainExplicitWeaveFullWidth(t *testing.T) {
	opts := precisionOpts(0)
	opts.Backend = backend.NameWeave
	_, res, tuples := trainPatientWith(t, opts)
	if res.Backend != backend.NameWeave {
		t.Fatalf("trained on backend %q, want %q", res.Backend, backend.NameWeave)
	}
	model := make([]float64, len(res.Model))
	for i, v := range res.Model {
		model[i] = float64(v)
	}
	alg := ml.Linear{NFeatures: len(model)}
	zero := make([]float64, len(model))
	if got, base := ml.MeanLoss(alg, model, tuples), ml.MeanLoss(alg, zero, tuples); got > base/2 {
		t.Errorf("trained loss %v vs untrained %v: insufficient learning", got, base)
	}
}

// TestTrainPrecisionOutOfRange: out-of-range precision fails typed at
// Train, before any backend is touched.
func TestTrainPrecisionOutOfRange(t *testing.T) {
	for _, bits := range []int{-1, 33} {
		s := New(precisionOpts(bits))
		d := deployScaled(t, s, "Patient", 0.02)
		a, err := d.DSLAlgo(8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Register(a, 8, d.Tuples); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Train(a.Name, d.Rel.Name); !errors.Is(err, backend.ErrUnsupported) {
			t.Errorf("precision %d: Train = %v, want ErrUnsupported", bits, err)
		}
	}
}
