// Package greenplum is the paper's MADlib+Greenplum baseline as an
// execution backend: MADlib running on an N-segment Greenplum. Each
// segment is one golden float64 CPU trainer (backend.CPU, the
// MADlib+PostgreSQL baseline on its own), and Sharded adds MADlib's
// distributed semantics around them — round-robin tuple sharding, one
// inner epoch per segment from the shared model, coordinator merge by
// averaging the segments that saw data. A UDF registered at merge
// coefficient 1 makes each inner epoch plain per-tuple IGD, the
// Bismarck architecture MADlib uses.
package greenplum

import (
	"fmt"

	"dana/internal/backend"
	"dana/internal/cost"
	"dana/internal/ml"
)

// costGreenplum prices a job on the N-segment MADlib/Greenplum model.
func costGreenplum(job backend.Job, env backend.Env) cost.Breakdown {
	return cost.MADlibGreenplum(job.Workload(), env.Cost, segmentsOf(env), job.Warm)
}

// Sharded implements backend.Backend over one CPU trainer per segment.
type Sharded struct {
	env backend.Env

	segments int
	inners   []*backend.CPU
	model    []float64

	// shards is per-epoch scratch, reused across RunEpoch calls.
	shards [][][]float64
}

// NewSharded builds an unconfigured Sharded backend.
func NewSharded(env backend.Env) *Sharded { return &Sharded{env: env} }

func (b *Sharded) Capabilities() backend.Capabilities {
	return backend.Capabilities{
		Name: backend.NameSharded,
		// GLM classes only: MADlib's model averaging has no meaningful
		// semantics for row-sparse factor models.
		Classes:       []backend.Class{backend.ClassLinear, backend.ClassLogistic, backend.ClassSVM},
		Precision:     backend.PrecisionFloat64,
		BitExactModel: true, // == per-segment golden epochs + averaging, bit for bit
	}
}

// EstimateCost prices the job as cost.MADlibGreenplum: the per-segment
// CPU epoch over 1/Nth of the tuples, plus per-epoch merge traffic.
func (b *Sharded) EstimateCost(job backend.Job) (backend.Cost, error) {
	if !b.Capabilities().Supports(job.Class) {
		return backend.Cost{}, fmt.Errorf("%w: %s cannot run class=%s",
			backend.ErrUnsupported, backend.NameSharded, job.Class)
	}
	bd := costGreenplum(job, b.env)
	return backend.Cost{Seconds: bd.TotalSec, Breakdown: bd}, nil
}

// ModeledSeconds: segment CPUs model no hardware to integrate, so the
// run is priced analytically.
func (b *Sharded) ModeledSeconds(job backend.Job, _ backend.Run) float64 {
	return backend.EstimatedSeconds(b, job)
}

func (b *Sharded) Configure(p backend.Program) error {
	if p.Graph == nil {
		return fmt.Errorf("%w: %s needs a translated graph", backend.ErrUnsupported, backend.NameSharded)
	}
	class := backend.Classify(p.Graph)
	if !b.Capabilities().Supports(class) {
		return fmt.Errorf("%w: %s cannot run class=%s", backend.ErrUnsupported, backend.NameSharded, class)
	}
	segs := segmentsOf(b.env)
	inners := make([]*backend.CPU, segs)
	for s := range inners {
		cpu := backend.NewCPU(b.env)
		if err := cpu.Configure(p); err != nil {
			return err
		}
		inners[s] = cpu
	}
	model := p.Init
	if model == nil {
		model = make([]float64, p.Graph.ModelSize())
	}
	b.segments, b.inners = segs, inners
	b.model = append([]float64(nil), model...)
	b.shards = make([][][]float64, segs)
	return nil
}

// RunEpoch materializes the epoch's tuples, shards them round-robin in
// global tuple order (the i-th row to segment i mod N), and runs one
// distributed epoch.
func (b *Sharded) RunEpoch(st *backend.Stream) error {
	if b.inners == nil {
		return backend.ErrNotConfigured
	}
	rows, err := st.Float64Rows()
	if err != nil {
		return err
	}
	for s := range b.shards {
		b.shards[s] = b.shards[s][:0]
	}
	for i, row := range rows {
		s := i % b.segments
		b.shards[s] = append(b.shards[s], row)
	}
	return b.epoch()
}

// Close drops the shards' views of the epoch's rows; a later epoch
// rebuilds them.
func (b *Sharded) Close() { clear(b.shards) }

func (b *Sharded) Model() []float64 {
	if b.inners == nil {
		return nil
	}
	return append([]float64(nil), b.model...)
}

func (b *Sharded) SetModel(m []float64) error {
	if b.inners == nil {
		return backend.ErrNotConfigured
	}
	if len(m) != len(b.model) {
		return fmt.Errorf("greenplum: model size %d, want %d", len(m), len(b.model))
	}
	b.model = append(b.model[:0], m...)
	return nil
}

// epoch runs one distributed IGD epoch: each segment that holds rows,
// in order, trains its shard on its own trainer from the shared model,
// and the coordinator averages their models. The segments share one
// goroutine: Sharded's modeled time is priced analytically, so running
// them side by side would buy host wall time only.
func (b *Sharded) epoch() error {
	var seen [][]float64
	for s, shard := range b.shards {
		if len(shard) == 0 {
			continue
		}
		if err := b.inners[s].SetModel(b.model); err != nil {
			return err
		}
		if err := b.inners[s].RunEpoch(&backend.Stream{Rows64: shard}); err != nil {
			return err
		}
		seen = append(seen, b.inners[s].Model())
	}
	if len(seen) > 0 {
		b.model = ml.AverageModels(seen)
	}
	return nil
}

// segmentsOf resolves the env's segment count.
func segmentsOf(env backend.Env) int {
	if env.Segments < 1 {
		return backend.DefaultSegments
	}
	return env.Segments
}

// ShardedRegistration is the dispatch registration. Its reference
// semantics, which the conformance suite compares against bit for bit,
// are backendtest's: per-segment golden epochs from the shared model,
// averaged.
func ShardedRegistration() backend.Registration {
	return backend.Registration{
		Name: backend.NameSharded,
		New:  func(env backend.Env) backend.Backend { return NewSharded(env) },
	}
}
