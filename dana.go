// Package dana is the public API of the DAnA reproduction: in-RDBMS
// hardware acceleration of advanced analytics (Mahajan et al., VLDB
// 2018). It bundles a PostgreSQL-style storage engine and SQL front
// end with an FPGA accelerator simulator whose Striders read training
// pages straight out of the buffer pool.
//
// Typical use:
//
//	eng, _ := dana.Open(dana.Defaults())
//	algo, _ := dana.ParseUDF(udfSource) // the paper's Python DSL
//	eng.RegisterUDF(algo, 64)
//	res, _ := eng.SQL("SELECT * FROM dana.linearR('training_data_table')")
package dana

import (
	"fmt"
	"time"

	"dana/internal/bufpool"
	"dana/internal/catalog"
	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/dsl"
	"dana/internal/fault"
	"dana/internal/greenplum"
	"dana/internal/hwgen"
	"dana/internal/ml"
	"dana/internal/obs"
	"dana/internal/runtime"
	"dana/internal/sql"
	"dana/internal/storage"
)

// Config controls an Engine instance. No field sets host parallelism:
// page extraction walks a table the buffer pool holds on
// min(GOMAXPROCS, Striders) goroutines, and a larger one on the calling
// goroutine, and modeled cycle counts, simulated seconds and model bits
// are bit-identical at any GOMAXPROCS.
type Config struct {
	// PageSize is the heap/buffer page size in bytes (8, 16, or 32 KB;
	// the paper's default is 32 KB).
	PageSize int
	// PoolBytes is the in-process buffer pool budget, and the pool the
	// cost model prices runs on.
	PoolBytes int64
	// MaxEpochs caps functional training (0 = the UDF's own budget).
	MaxEpochs int
	// Backend selects the execution backend for Train: "" pins the DAnA
	// accelerator pipeline (the paper path and historical default),
	// "auto" lets the heterogeneous dispatcher pick the cheapest capable
	// backend by modeled cost, and a registered name ("accelerator",
	// "tabla", "cpu", "sharded", "weave") is an explicit override.
	// Unknown names fail typed with backend.ErrUnknownBackend at Train
	// time.
	Backend string
	// Precision is the MLWeaving any-precision read width in bits per
	// feature. 0 (the default) and 32 keep the full-width float path —
	// models and modeled counters are bit-identical to builds without
	// the knob. 1..31 route training through the "weave" backend: each
	// feature is quantized to k bits in a vertical bit-plane layout and
	// the modeled link ships proportionally fewer bytes — the paper's
	// precision-for-bandwidth tradeoff (`danabench -exp precision`
	// sweeps it). Setting Backend to "weave" explicitly with Precision 0
	// trains through the vertical layout at the full 32 bits. Values
	// outside [0, 32] fail at Open.
	Precision int
	// Segments is the sharded backend's segment fan-out (0 = the
	// Greenplum baseline's 8 segments). Only the "sharded" backend
	// reads it.
	Segments int
	// Channels models the accelerator link as N independent memory
	// channels (0/1 = the single legacy channel). It is a modeled
	// quantity only: the cost model charges epoch transfer as the
	// slowest channel's round-robin page share (aggregate bandwidth =
	// N × per-channel, paper Fig 14), and page pn's stream bytes and
	// busy cycles are accounted to channel pn mod N as obs counters
	// channel.<i>.* (the obs split is capped at 32 series; see `danactl
	// stats`). Host scheduling never depends on it.
	Channels int
	// DisableObs runs the engine without observability counters
	// (obs.Noop): every instrument site degrades to a nil-check.
	// Counters never feed back into the model either way — modeled
	// cycles and trained models are bit-identical on or off.
	DisableObs bool
	// Faults attaches a seeded fault-injection schedule (chaos testing):
	// simulated disk errors and latency spikes, torn/bit-flipped pages,
	// Strider VM traps, and analytic-cluster failures. nil (the default)
	// disables injection entirely; with nil Faults the engine's modeled
	// cycles and trained models are bit-identical to a build without the
	// fault framework.
	Faults *fault.Injector
	// EpochTimeout bounds each training epoch's wall-clock time (0 = no
	// bound). An expired epoch surfaces fault.ErrEpochTimeout and, unless
	// DisableCPUFallback is set, degrades the run to the CPU path.
	EpochTimeout time.Duration
	// MaxPageRetries bounds same-Strider re-walks after a VM trap before
	// the worker is quarantined (0 = default 3, negative = none).
	MaxPageRetries int
	// MaxReadRetries bounds buffer-pool page-read retries on injected
	// I/O or checksum failures (0 = default 3, negative = none).
	MaxReadRetries int
	// DisableCPUFallback turns off graceful degradation: accelerator
	// faults that survive retry and quarantine surface as typed errors
	// instead of completing the run on the golden CPU trainer.
	DisableCPUFallback bool
	// VerifyChecksums forces per-page checksum verification on every
	// buffer-pool read even without an attached fault schedule (checksums
	// are always verified when Faults is non-nil).
	VerifyChecksums bool
}

// Defaults returns the paper's default setup at in-process scale.
func Defaults() Config {
	return Config{PageSize: storage.PageSize32K, PoolBytes: 256 << 20}
}

// Engine is a DAnA-enhanced database.
type Engine struct {
	sys *runtime.System
}

// Open creates an engine.
func Open(cfg Config) (*Engine, error) {
	if cfg.PageSize == 0 {
		cfg = Defaults()
	}
	switch cfg.PageSize {
	case storage.PageSize8K, storage.PageSize16K, storage.PageSize32K:
	default:
		return nil, fmt.Errorf("dana: unsupported page size %d", cfg.PageSize)
	}
	if cfg.Precision < 0 || cfg.Precision > storage.WeaveMaxBits {
		return nil, fmt.Errorf("dana: precision %d outside [0, %d]", cfg.Precision, storage.WeaveMaxBits)
	}
	opts := runtime.DefaultOptions()
	opts.PageSize = cfg.PageSize
	opts.Cost.PoolBytes = cfg.PoolBytes
	opts.MaxEpochs = cfg.MaxEpochs
	opts.Backend = cfg.Backend
	opts.Precision = cfg.Precision
	opts.Segments = cfg.Segments
	opts.Cost.Link.Channels = cfg.Channels
	opts.DisableObs = cfg.DisableObs
	opts.Faults = cfg.Faults
	opts.EpochTimeout = cfg.EpochTimeout
	opts.MaxPageRetries = cfg.MaxPageRetries
	opts.MaxReadRetries = cfg.MaxReadRetries
	opts.DisableCPUFallback = cfg.DisableCPUFallback
	opts.VerifyChecksums = cfg.VerifyChecksums
	return &Engine{sys: runtime.New(opts)}, nil
}

// SQL parses and executes a SQL script, returning the last result.
// UDF invocations (`SELECT * FROM dana.<udf>('table')`) run on the
// simulated accelerator.
func (e *Engine) SQL(script string) (*Result, error) {
	r, err := e.sys.DB.Exec(script)
	if err != nil {
		return nil, err
	}
	return (*Result)(r), nil
}

// Result is a materialized query result.
type Result sql.Result

// RegisterUDF translates, compiles, and hardware-generates a UDF,
// storing the accelerator in the catalog. mergeCoef bounds the thread
// count (0 uses the UDF's own merge coefficient).
func (e *Engine) RegisterUDF(a *Algo, mergeCoef int) error {
	rel := 1 << 16
	_, err := e.sys.Register(a, mergeCoef, rel)
	return err
}

// RegisterUDFSource parses the paper's Python-embedded DSL text and
// registers the resulting UDF.
func (e *Engine) RegisterUDFSource(src string, mergeCoef int) (*Algo, error) {
	a, err := dsl.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := e.RegisterUDF(a, mergeCoef); err != nil {
		return nil, err
	}
	return a, nil
}

// Train runs the DAnA pipeline for a registered UDF over a table.
func (e *Engine) Train(udfName, table string) (*runtime.TrainResult, error) {
	return e.sys.Train(udfName, table)
}

// BackendCost re-exports one dispatch candidate's modeled price for a
// job (see Config.Backend).
type BackendCost = runtime.BackendCost

// BackendCosts prices a registered (UDF, table) job on every registered
// execution backend — the heterogeneous dispatcher's view before it
// picks. Rejected backends carry their typed admissibility error.
// `danactl stats -backend auto` renders this table.
func (e *Engine) BackendCosts(udfName, table string) ([]BackendCost, error) {
	return e.sys.EstimateBackends(udfName, table)
}

// Catalog exposes the system catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.sys.Catalog() }

// Pool exposes the buffer pool (for warm/cold cache control).
func (e *Engine) Pool() *bufpool.Pool { return e.sys.Pool() }

// Obs exposes the engine's observability registry: cycle/utilization
// counters for every subsystem, histograms, and the trace-event ring.
// Snapshot it for the machine-readable JSON export (`BENCH_*.json`,
// `danactl stats`). Returns obs.Noop when Config.DisableObs is set.
func (e *Engine) Obs() *obs.Registry { return e.sys.Obs() }

// WarmCache pre-loads a table into the buffer pool (the paper's
// warm-cache experimental setting).
func (e *Engine) WarmCache(table string) error { return e.sys.WarmTable(table) }

// ColdCache drops every cached page (the cold-cache setting). It fails
// if any page is pinned.
func (e *Engine) ColdCache() error { return e.sys.DropCaches() }

// CostParams exposes the calibrated environment constants.
func (e *Engine) CostParams() cost.Params { return e.sys.Opts.Cost }

// FPGA returns the modeled device (Xilinx VU9P by default).
func (e *Engine) FPGA() hwgen.FPGA { return e.sys.Opts.FPGA }

// --- Fault injection ---------------------------------------------------

// FaultConfig re-exports the seeded fault-injection schedule
// (rates per injection point, transient-attempt budget, stall and
// latency-spike magnitudes).
type FaultConfig = fault.Config

// FaultInjector re-exports the deterministic injector handed to
// Config.Faults.
type FaultInjector = fault.Injector

// NewFaultInjector builds an injector from a schedule. The same seed
// and rates reproduce the same fault pattern regardless of host
// scheduling.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return fault.New(cfg) }

// --- Workloads ---------------------------------------------------------

// Workload re-exports the Table 3 workload descriptors.
type Workload = datagen.Workload

// Workloads lists all 14 evaluation workloads (paper Table 3).
func Workloads() []Workload { return datagen.Workloads }

// WorkloadByName looks a workload up by its name or table name.
func WorkloadByName(name string) (Workload, error) { return datagen.ByName(name) }

// Dataset is a generated training relation.
type Dataset = datagen.Dataset

// LoadWorkload generates a synthetic instance of a Table 3 workload at
// the given scale and deploys it into the engine (catalog + pool).
func (e *Engine) LoadWorkload(name string, scale float64, seed int64) (*Dataset, error) {
	w, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	d, err := datagen.Generate(w, scale, e.sys.Opts.PageSize, seed)
	if err != nil {
		return nil, err
	}
	if err := e.sys.Deploy(d); err != nil {
		return nil, err
	}
	return d, nil
}

// --- Baselines ---------------------------------------------------------

// BaselineResult reports a CPU-baseline training run. FinalLoss is the
// mean loss of the final model over one more heap scan, summed in page
// order at every segment count.
type BaselineResult struct {
	Model     []float64
	Epochs    int
	Tuples    int64
	FinalLoss float64
}

// TrainMADlib runs the MADlib+PostgreSQL baseline, single-threaded
// in-database IGD on a deployed table: TrainGreenplum at one segment.
func (e *Engine) TrainMADlib(table string, algo ml.Algorithm, epochs int) (*BaselineResult, error) {
	return e.TrainGreenplum(table, algo, 1, epochs)
}

// TrainGreenplum runs the MADlib+Greenplum baseline: IGD over the
// table's live tuples, distributed round-robin across the segments,
// with per-epoch model averaging. The segments run in order, one pool
// scan per epoch.
func (e *Engine) TrainGreenplum(table string, algo ml.Algorithm, segments, epochs int) (*BaselineResult, error) {
	rel, err := e.sys.Catalog().Table(table)
	if err != nil {
		return nil, err
	}
	cl, err := greenplum.New(e.sys.Pool(), rel, algo, segments)
	if err != nil {
		return nil, err
	}
	model, st, err := cl.Train(epochs)
	if err != nil {
		return nil, err
	}
	return &BaselineResult{Model: model, Epochs: st.Epochs, Tuples: st.Tuples, FinalLoss: st.FinalLoss}, nil
}
