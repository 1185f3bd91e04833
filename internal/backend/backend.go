// Package backend defines the unified execution-backend seam: one
// narrow interface behind which every way of training a registered UDF
// lives — the DAnA accelerator engine, the TABLA-style single-threaded
// design, the golden float64 CPU trainer, and the greenplum-style
// Sharded wrapper. The runtime integration layer speaks only this
// interface; a heterogeneous dispatcher classifies jobs (workload
// class, weave read precision, size) and picks the cheapest capable
// backend by the internal/cost analytic model, with an explicit
// per-system override.
//
// The contract is enforced, not assumed: the conformance harness,
// internal/backend/backendtest, runs every registered backend through
// seeded scenarios and asserts the trichotomy — bit-identical modeled
// counters where Capabilities promise them, toleranced model bits
// against the backend's declared reference semantics elsewhere, and
// typed errors for unsupported jobs.
package backend

import (
	"errors"
	"fmt"

	"dana/internal/cost"
	"dana/internal/dsl"
	"dana/internal/engine"
	"dana/internal/hdfg"
	"dana/internal/hwgen"
	"dana/internal/ml"
	"dana/internal/storage"
	"dana/internal/weaving"
)

// Typed errors. Every "can't do that" outcome at the backend seam is
// one of these sentinels (possibly wrapped); the conformance suite
// rejects backends that fail untyped.
var (
	// ErrUnsupported reports a job outside the backend's declared
	// Capabilities (unknown workload class, bits outside the window, ...).
	ErrUnsupported = errors.New("backend: job not supported")
	// ErrUnknownBackend reports a dispatch request naming no registered
	// backend.
	ErrUnknownBackend = errors.New("backend: unknown backend")
	// ErrNotConfigured reports RunEpoch before Configure.
	ErrNotConfigured = errors.New("backend: not configured")
)

// Class is a workload class at the dispatch granularity the repo's
// algorithms expose (the DSL has no class tag, so Classify derives it
// structurally from the hDFG).
type Class string

const (
	ClassLinear   Class = "linear"
	ClassLogistic Class = "logistic"
	ClassSVM      Class = "svm"
	ClassLRMF     Class = "lrmf"
)

// AllClasses lists every class the repo's workloads produce.
func AllClasses() []Class {
	return []Class{ClassLinear, ClassLogistic, ClassSVM, ClassLRMF}
}

// Precision names a backend's model-arithmetic width.
const (
	PrecisionFloat32 = "float32"
	PrecisionFloat64 = "float64"
)

// Classify derives the workload class from hDFG structure: row-sparse
// model updates mean a factorization; a sigmoid on the per-tuple path
// means logistic; an indicator comparison on the per-tuple path (the
// hinge-loss gate) means SVM; a bare linear combination is linear
// regression. Convergence-only nodes are excluded — every algorithm may
// compare its loss against a threshold without becoming a classifier.
func Classify(g *hdfg.Graph) Class {
	if g == nil {
		return ""
	}
	if len(g.RowUpdates) > 0 {
		return ClassLRMF
	}
	class := ClassLinear
	for _, n := range g.Nodes {
		if n.ConvOnly {
			continue
		}
		switch n.Op {
		case dsl.OpSigmoid:
			return ClassLogistic
		case dsl.OpLt, dsl.OpGt:
			class = ClassSVM
		}
	}
	return class
}

// Capabilities declares what a backend can run and which equivalence
// guarantees it makes. The conformance suite holds each backend to its
// own declaration.
type Capabilities struct {
	// Name is the backend's registered dispatch name.
	Name string
	// Classes lists the workload classes the backend accepts; any job
	// outside them must fail typed (ErrUnsupported).
	Classes []Class
	// Precision is the model-arithmetic width (PrecisionFloat32 for the
	// simulated FPGA datapaths, PrecisionFloat64 for reference CPU
	// training).
	Precision string
	// DeterministicCounters promises that two runs of the same job
	// produce bit-identical modeled hardware counters (Counters()).
	DeterministicCounters bool
	// BitExactModel promises the trained model matches the backend's
	// declared reference semantics bit-for-bit; otherwise ModelTolerance
	// bounds the divergence (CompareModels semantics).
	BitExactModel  bool
	ModelTolerance float64
	// MinBits/MaxBits declare the weave-precision window the backend can
	// read (MLWeaving any-precision extraction). Both zero means the
	// backend reads only full-width float tuples: it is admissible only
	// for jobs that request no weave precision (Job.Bits == 0). A nonzero
	// window means the backend serves only k-bit weave requests inside
	// it — full-width jobs never dispatch to it implicitly.
	MinBits int
	MaxBits int
	// Streaming backends consume the page-extraction pipeline
	// (Stream.Batches); non-streaming backends take materialized rows.
	Streaming bool
	// Accelerated backends model faultable accelerator hardware: they
	// are subject to injected cluster faults, after which a Train
	// finishes on the CPU trainer.
	Accelerated bool
}

// Supports reports whether the capability set covers class.
func (c Capabilities) Supports(class Class) bool {
	for _, k := range c.Classes {
		if k == class {
			return true
		}
	}
	return false
}

// Job describes one training request for dispatch and cost estimation:
// the classified workload plus the analytic-model inputs assembled by
// the integration layer (mirroring workload.Compiled.CostWorkload).
type Job struct {
	Class Class
	// Bits, when set (1..32), requests k-bit weave extraction: only
	// backends whose Capabilities declare a covering [MinBits, MaxBits]
	// window are admissible. 0 requests the full-width float path.
	Bits int

	Tuples       int
	Columns      int
	Pages        int
	PageSize     int
	DatasetBytes int64
	Epochs       int
	MergeCoef    int
	ModelParams  int

	// Accelerator-side schedule inputs: the compiled engine program and
	// chosen design point (for cycle estimation), the Strider per-page
	// unpack cycles, and the per-tuple flop count for CPU-side models.
	Engine            *engine.Program
	Design            hwgen.Design
	StriderPageCycles int64
	FlopsPerTuple     int

	// Warm selects the warm-cache I/O model for cost estimates.
	Warm bool
}

// Workload converts the job to the shared analytic cost inputs; each
// backend fills in its own cycle figures before pricing it.
func (j Job) Workload() cost.Workload {
	return cost.Workload{
		Tuples:            j.Tuples,
		Columns:           j.Columns,
		Epochs:            j.Epochs,
		DatasetBytes:      j.DatasetBytes,
		PageSize:          j.PageSize,
		Pages:             j.Pages,
		FlopsPerTuple:     j.FlopsPerTuple,
		ModelParams:       j.ModelParams,
		StriderPageCycles: j.StriderPageCycles,
		Striders:          j.Design.NumStriders,
	}
}

// FlopsPerTuple returns the per-update flop count for a classified
// graph, via the ml baseline the class corresponds to.
func FlopsPerTuple(class Class, g *hdfg.Graph) int {
	if g == nil || g.Model == nil {
		return 0
	}
	switch class {
	case ClassLogistic:
		return ml.Logistic{NFeatures: g.Model.Shape.Size()}.FlopsPerUpdate()
	case ClassSVM:
		return ml.SVM{NFeatures: g.Model.Shape.Size()}.FlopsPerUpdate()
	case ClassLRMF:
		return ml.LRMF{Rank: g.Model.Shape[1]}.FlopsPerUpdate()
	default:
		return ml.Linear{NFeatures: g.Model.Shape.Size()}.FlopsPerUpdate()
	}
}

// Cost is a backend's modeled end-to-end time for a job.
type Cost struct {
	Seconds   float64
	Breakdown cost.Breakdown
	// Terms are what a DAnA-path backend priced through cost.Price (zero
	// for the others), the prediction its executed runs are held to.
	Terms cost.Terms
}

// Run carries the counters of one executed training run that a backend
// integrates into its modeled time: the epochs it ran, the engine and
// Strider makespans, the pages streamed through the extraction pipeline
// (cached replays included), and the buffer pool's modeled I/O.
type Run struct {
	Epochs        int
	EngineCycles  int64
	StriderCycles int64
	Pages         int64
	IOSeconds     float64
}

// EstimatedSeconds is the ModeledSeconds of a row-fed backend: its
// analytic estimate for the job (0 when the job is inadmissible).
func EstimatedSeconds(be Backend, job Job) float64 {
	c, err := be.EstimateCost(job)
	if err != nil {
		return 0
	}
	return c.Seconds
}

// Program is one prepared training job handed to Configure: the
// translated hDFG (reference semantics), the compiled engine program
// and design point (hardware semantics), and the initial model.
type Program struct {
	Graph *hdfg.Graph
	// Engine and EngineCfg drive engine-machine backends; CPU-class
	// backends ignore them (and accept their absence).
	Engine    *engine.Program
	EngineCfg engine.Config
	// Striders is how many Striders extraction groups pages by: the
	// design's count through InProcessStriders, whose clamp keeps the
	// bench replica's counters equal to Train's.
	Striders int
	// MergeCoef is the gradient-merge batch size (< 1 = 1).
	MergeCoef int
	// PageSize and Tuples parameterize derived design points (TABLA).
	PageSize int
	Tuples   int
	// Bits is the weave read precision for any-precision backends
	// (0 = full width, 32 planes). Full-width backends ignore it.
	Bits int
	// Ranges, when set, pins the weave quantization ranges (one per
	// feature column). Nil lets the backend derive deterministic ranges
	// from the first epoch's tuples (per-column min/max, which is
	// delivery-order independent).
	Ranges []storage.WeaveRange
	// Init is the starting model (float64 view; nil = the class's
	// canonical initialization: zeros for GLMs, seeded small uniform
	// factors for LRMF).
	Init []float64
}

// Stream carries one epoch's tuples to RunEpoch in whichever of three
// forms the producer has. Exactly one is consumed per call:
//
//   - Batches streams float32 record batches in page order — the
//     accelerator extraction pipeline. Only Streaming backends take it.
//   - Rows32 is the materialized epoch in the float32 datapath width.
//   - Rows64 is the materialized epoch in float64 (values that have
//     been narrowed through float32 upstream, so both views name the
//     same numbers).
//
// The float32 backends take Batches or Rows32, the float64 backends
// Rows64 (Float64Rows); a stream carrying only the other width's form
// fails with ErrUnsupported.
//
// Held, set beside Rows32 or Batches, is the producer's word that these
// rows are stable — the same values every time this holder comes with
// them, in whichever form — and its loan of a place to keep what a
// consumer derives from them. The producer owns it and drops it with the
// rows; what is inside is the consumer's business (the weave stage keeps
// the rows' woven form there). The runtime lends a record-cache entry's
// holder on the extracting epoch that fills the entry and on every replay
// of it.
type Stream struct {
	Batches func(emit func([][]float32) error) error
	Rows32  [][]float32
	Rows64  [][]float64
	Held    *Held
}

// Held is the holder a Stream lends. The zero value is empty.
type Held = weaving.Slot

// Float64Rows returns Rows64 for the reference-precision backends, which
// every producer feeding them delivers. A stream carrying only a float32
// form fails with ErrUnsupported rather than train as an empty epoch; an
// empty stream is an empty epoch.
func (st *Stream) Float64Rows() ([][]float64, error) {
	if st.Rows64 == nil && (st.Rows32 != nil || st.Batches != nil) {
		return nil, fmt.Errorf("%w: a float64 backend needs Rows64", ErrUnsupported)
	}
	return st.Rows64, nil
}

// Backend is the unified execution seam. Lifecycle: Configure once per
// training job — an instance configured again is a fresh one — then
// RunEpoch per epoch (the caller owns epoch count and convergence
// policy, consulting Converger when implemented), then Model for the
// result.
type Backend interface {
	Capabilities() Capabilities
	// EstimateCost prices the job with the internal/cost analytic model;
	// unsupported jobs fail with ErrUnsupported.
	EstimateCost(job Job) (Cost, error)
	// ModeledSeconds is the one home of an executed run's modeled time.
	// Streaming backends price the run's counters through the function
	// their EstimateCost prices its prediction through (cost.Price);
	// row-fed backends have no modeled page stream to integrate and
	// report EstimateCost(job).Seconds exactly. A pure function of its
	// arguments and the backend's environment.
	ModeledSeconds(job Job, run Run) float64
	// Configure prepares the backend for one training job; unsupported
	// programs fail with ErrUnsupported.
	Configure(prog Program) error
	// RunEpoch consumes one epoch's tuple stream, updating the model.
	RunEpoch(st *Stream) error
	// Model returns a copy of the current model state (float64 view).
	Model() []float64
	// SetModel replaces the model state (float64 view; values outside
	// the backend's precision are narrowed).
	SetModel(m []float64) error
}

// Converger is implemented by backends whose program carries a
// convergence check.
type Converger interface {
	Converged() (bool, error)
}

// CounterBackend exposes modeled hardware counters (engine cycle
// decomposition). Backends with no modeled hardware don't implement it.
type CounterBackend interface {
	Counters() engine.Stats
}

// Closer is implemented by backends holding releasable host resources
// (the accelerator's epoch buffers).
type Closer interface {
	Close()
}
