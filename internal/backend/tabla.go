package backend

import (
	"fmt"

	"dana/internal/cost"
	"dana/internal/engine"
	"dana/internal/hwgen"
)

// Tabla is the TABLA-mode backend: the same engine simulator, but on
// the paper's TABLA baseline design point — single-threaded compute
// with CPU-side tuple handoff instead of Striders. Training semantics
// (merge batching, float32 datapath) match the accelerator; the cycle
// model and cost breakdown are the single-thread figures, and the
// backend is non-streaming because TABLA has no in-fabric page walkers.
type Tabla struct {
	Accel
}

// NewTabla builds an unconfigured TABLA backend.
func NewTabla(env Env) *Tabla {
	return &Tabla{Accel{env: env, caps: Capabilities{
		Name:                  NameTabla,
		Classes:               AllClasses(),
		Precision:             PrecisionFloat32,
		DeterministicCounters: true,
		ModelTolerance:        5e-3,
		Accelerated:           true,
	}}}
}

// engineConfig derives the single-threaded design point for the compiled
// program, falling back to a one-thread copy of the DAnA config when
// the TABLA explorer cannot place the program.
func (b *Tabla) engineConfig(prog *engine.Program, dana engine.Config, pageSize, tuples int) engine.Config {
	td, err := hwgen.TablaDesign(prog, b.env.FPGA, hwgen.Params{
		PageSize: pageSize, MergeCoef: 1, NumTuples: tuples,
	})
	if err != nil {
		dana.Threads = 1
		return dana
	}
	return td.Engine
}

// EstimateCost prices the job as cost.TABLA: single-thread epoch cycles
// on the TABLA design point, plus the CPU-side feed.
func (b *Tabla) EstimateCost(job Job) (Cost, error) {
	if err := b.checkJob(job); err != nil {
		return Cost{}, err
	}
	w := job.Workload()
	if job.Engine != nil {
		single := b.engineConfig(job.Engine, job.Design.Engine, job.PageSize, job.Tuples)
		w.SingleThreadEpochCycles = job.Engine.Estimate(single).EpochCycles(job.Tuples, max1(job.MergeCoef), 1)
	}
	bd := cost.TABLA(w, b.env.Cost, job.Warm)
	return Cost{Seconds: bd.TotalSec, Breakdown: bd}, nil
}

// ModeledSeconds: TABLA is row-fed, so the run is priced analytically.
func (b *Tabla) ModeledSeconds(job Job, _ Run) float64 { return EstimatedSeconds(b, job) }

// Configure builds the machine on the TABLA design point's engine
// config instead of the provided DAnA one.
func (b *Tabla) Configure(p Program) error {
	if p.Graph == nil || p.Engine == nil {
		return fmt.Errorf("%w: %s needs a compiled engine program", ErrUnsupported, NameTabla)
	}
	return b.configure(p, b.engineConfig(p.Engine, p.EngineCfg, p.PageSize, p.Tuples))
}
