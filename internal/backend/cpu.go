package backend

import (
	"fmt"

	"dana/internal/cost"
	"dana/internal/hdfg"
)

// CPU is the golden float64 reference trainer behind the Backend seam:
// the hDFG interpreter, bit-identical to the GoldenSpec trainer (Oracle
// C leg 1). It is the canonical failover target — it shares no modeled
// hardware with the accelerator, and a degraded run continues at
// reference precision.
type CPU struct {
	env Env

	it *hdfg.Interp
}

// NewCPU builds an unconfigured CPU backend.
func NewCPU(env Env) *CPU { return &CPU{env: env} }

func (b *CPU) Capabilities() Capabilities {
	return Capabilities{
		Name:          NameCPU,
		Classes:       AllClasses(),
		Precision:     PrecisionFloat64,
		BitExactModel: true, // == golden trainer, bit for bit
		Fallback:      true,
	}
}

// EstimateCost prices the job as single-threaded in-database IGD
// (cost.MADlibPostgres): tuple-at-a-time updates over buffer-pool
// scans, the closest analytic analogue of the interpreter.
func (b *CPU) EstimateCost(job Job) (Cost, error) {
	if !admissible(b.Capabilities(), job) {
		return Cost{}, fmt.Errorf("%w: %s cannot run class=%s", ErrUnsupported, NameCPU, job.Class)
	}
	bd := cost.MADlibPostgres(job.Workload(), b.env.Cost, job.Warm)
	return Cost{Seconds: bd.TotalSec, Breakdown: bd}, nil
}

// ModeledSeconds: the interpreter models no hardware to integrate, so
// the run is priced analytically.
func (b *CPU) ModeledSeconds(job Job, _ Run) float64 { return EstimatedSeconds(b, job) }

func (b *CPU) Configure(p Program) error {
	if p.Graph == nil {
		return fmt.Errorf("%w: %s needs a translated graph", ErrUnsupported, NameCPU)
	}
	class := Classify(p.Graph)
	if !b.Capabilities().Supports(class) {
		return fmt.Errorf("%w: %s cannot run class=%s", ErrUnsupported, NameCPU, class)
	}
	it, err := hdfg.NewInterp(p.Graph, initModel(p))
	if err != nil {
		return err
	}
	b.it = it
	return nil
}

// RunEpoch runs one interpreter epoch over the stream's Rows64 (values
// narrowed through float32 upstream, so a CPU epoch over Strider-extracted
// records sees the same values the accelerator datapath would).
func (b *CPU) RunEpoch(st *Stream) error {
	if b.it == nil {
		return ErrNotConfigured
	}
	rows, err := st.Float64Rows()
	if err != nil {
		return err
	}
	return b.it.Epoch(rows)
}

func (b *CPU) Model() []float64 {
	if b.it == nil {
		return nil
	}
	return append([]float64(nil), b.it.Model()...)
}

func (b *CPU) SetModel(m []float64) error {
	if b.it == nil {
		return ErrNotConfigured
	}
	return b.it.SetModel(m)
}

func (b *CPU) Converged() (bool, error) {
	if b.it == nil {
		return false, ErrNotConfigured
	}
	return b.it.Converged()
}
