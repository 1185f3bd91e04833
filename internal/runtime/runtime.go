// Package runtime is DAnA's integration layer (paper Figure 2): it
// wires the SQL front end, catalog, and buffer pool to the translator,
// compiler, hardware generator, access engine, and execution engine,
// and executes `SELECT * FROM dana.<udf>('table')` end to end — pages
// stream from the buffer pool through Striders into the multi-threaded
// engine, producing a trained model and cycle-accurate statistics.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dana/internal/accessengine"
	"dana/internal/backend"
	"dana/internal/bufpool"
	"dana/internal/catalog"
	"dana/internal/compiler"
	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/dsl"
	"dana/internal/engine"
	"dana/internal/fault"
	"dana/internal/greenplum"
	"dana/internal/hwgen"
	"dana/internal/obs"
	"dana/internal/sql"
	"dana/internal/storage"
	"dana/internal/strider"
)

// Options configure a System.
type Options struct {
	PageSize int
	FPGA     hwgen.FPGA
	// Cost prices every run, and its Disk and PoolBytes build the buffer
	// pool the runs read through.
	Cost cost.Params

	// Backend selects the execution backend for Train: "" pins the DAnA
	// accelerator pipeline (the paper path, and the historical default),
	// "auto" lets the heterogeneous dispatcher pick the cheapest capable
	// backend by modeled cost, and any registered name ("accelerator",
	// "tabla", "cpu", "sharded", "weave") is an explicit override.
	// Unknown names fail typed with backend.ErrUnknownBackend.
	Backend string
	// Precision is the MLWeaving read precision in bits per feature.
	// 0 and 32 keep the full-width float path (bit-identical to builds
	// without the knob); 1..31 route training through the any-precision
	// weave backend, which quantizes features to k bits and streams
	// proportionally fewer bytes over the modeled link. An explicit
	// Backend of "weave" with Precision 0 reads all 32 planes (the
	// full-width weave path). Values outside [0, 32] fail typed at Train.
	Precision int
	// Segments is the Sharded backend's segment count
	// (0 = backend.DefaultSegments).
	Segments int

	// Faults attaches a seeded fault-injection schedule threaded through
	// the buffer pool (read errors, latency spikes, page corruption
	// caught by checksums), the access engine (Strider traps), and the
	// executor (worker stalls, cluster faults). Nil disables injection
	// entirely: every hook degrades to a nil-check and modeled results
	// are bit-identical to a build without the fault framework. The
	// recovery budgets are fixed: a trapped page gets 3 same-Strider
	// re-walks before its Strider is quarantined, a failed or corrupt
	// pool read 3 re-reads, and every pool miss verifies its checksum
	// while Faults is set.
	Faults *fault.Injector
	// EpochTimeout bounds each epoch's wall-clock time (0 = none).
	// Expiry surfaces as a typed fault.ErrEpochTimeout, which triggers
	// the CPU fallback unless DisableCPUFallback is set.
	EpochTimeout time.Duration
	// DisableCPUFallback turns off graceful degradation: accelerator
	// faults surface as typed errors instead of completing the train on
	// the golden float64 CPU trainer.
	DisableCPUFallback bool

	// Obs is the observability registry every subsystem charges.
	// DefaultOptions supplies a fresh enabled one; obs.Noop (nil) runs
	// the system dark, every counter site degrading to a nil-check.
	// Observation is strictly additive: modeled cycles, simulated
	// seconds, and trained models are bit-identical with obs on, off, or
	// shared.
	Obs *obs.Registry
}

// DefaultOptions mirrors the paper's default setup, 32 KB pages and a
// VU9P FPGA, with the buffer pool capped at 256 MB for in-process runs
// (the paper's is 8 GB); the cost model prices that same pool. Each
// call returns a fresh registry.
func DefaultOptions() Options {
	p := cost.Default()
	p.PoolBytes = 256 << 20
	return Options{
		PageSize: storage.PageSize32K,
		FPGA:     hwgen.VU9P(),
		Cost:     p,
		Obs:      obs.New(),
	}
}

// MaxChannels caps the channel.<i>.* obs split of Cost.Link.Channels
// (per-channel instruments are resolved eagerly at New, so the series
// count must be bounded). The cost model itself is not capped.
const MaxChannels = 32

// System is a DAnA-enhanced database instance.
type System struct {
	Opts Options
	DB   *sql.DB

	cache recordCache // cross-epoch extracted-record cache

	disp *backend.Dispatcher // registered execution backends
	// kept maps a UDF and registration name to the backend the UDF's last
	// good Train on it configured; a Train takes it out for the whole run.
	keptMu sync.Mutex
	kept   map[[2]string]backend.Backend
	// scoring maps a UDF to the pass its last good Score ran, and scoreBuf
	// is the buffer every pass decodes into; both are checked out under
	// keptMu the same way.
	scoring  map[string]*scorePass
	scoreBuf *scoreBuf

	channels int // modeled channel count: Opts.Cost.Link.Channels clamped to [1, MaxChannels]

	obs *obs.Registry // observability registry (obs.Noop when disabled)
	// Cached runtime-layer instrument handles (nil-safe no-ops when dark).
	obsEpochs       *obs.Counter
	obsEpochsCached *obs.Counter
	obsCacheHits    *obs.Counter
	obsCacheMisses  *obs.Counter
	obsWorkerBusy   *obs.Counter
	obsEpochWall    *obs.Counter
	obsTrainWall    *obs.Counter
	obsTrainRuns    *obs.Counter
	obsBuilt        *obs.Counter // Trains on a backend built for them
	obsReused       *obs.Counter // Trains on a kept backend
	obsEpochHist    *obs.Histogram
	// Fault-recovery instruments.
	obsPageRetries  *obs.Counter
	obsQuarantines  *obs.Counter
	obsEpochRetries *obs.Counter
	obsEpochTimeout *obs.Counter
	obsCPUFallbacks *obs.Counter
	obsFailovers    *obs.Counter
	// Per-channel stream instruments (one handle per modeled channel,
	// resolved at New like every other instrument; charged by the
	// coordinator in page order alongside the Collector).
	obsChanBytes []*obs.Counter
	obsChanBusy  []*obs.Counter
}

// New creates the system and installs it as the SQL executor's UDF
// runner.
func New(opts Options) *System {
	if opts.PageSize == 0 {
		opts = DefaultOptions()
	}
	s := &System{
		Opts:    opts,
		DB:      sql.NewDB(opts.PageSize, opts.Cost.PoolBytes, opts.Cost.Disk),
		kept:    map[[2]string]backend.Backend{},
		scoring: map[string]*scorePass{},
	}
	s.DB.Runner = s
	reg := opts.Obs
	s.obs = reg
	s.DB.Pool.SetObs(reg)
	s.obsEpochs = reg.Counter(obs.RuntimeEpochs)
	s.obsEpochsCached = reg.Counter(obs.RuntimeEpochCached)
	s.obsCacheHits = reg.Counter(obs.RuntimeCacheHits)
	s.obsCacheMisses = reg.Counter(obs.RuntimeCacheMisses)
	s.obsWorkerBusy = reg.Counter(obs.RuntimeWorkerBusyNs)
	s.obsEpochWall = reg.Counter(obs.RuntimeEpochWallNs)
	s.obsTrainWall = reg.Counter(obs.RuntimeTrainWallNs)
	s.obsTrainRuns = reg.Counter(obs.RuntimeTrainRuns)
	s.obsBuilt = reg.Counter(obs.RuntimeBackendsBuilt)
	s.obsReused = reg.Counter(obs.RuntimeBackendsReused)
	s.obsEpochHist = reg.Hist(obs.HistEpochWallNs)
	s.obsPageRetries = reg.Counter(obs.RuntimePageRetries)
	s.obsQuarantines = reg.Counter(obs.RuntimeQuarantines)
	s.obsEpochRetries = reg.Counter(obs.RuntimeEpochRetries)
	s.obsEpochTimeout = reg.Counter(obs.RuntimeEpochTimeout)
	s.obsCPUFallbacks = reg.Counter(obs.RuntimeCPUFallbacks)
	s.obsFailovers = reg.Counter(obs.RuntimeFailovers)
	s.channels = min(max(opts.Cost.Link.Channels, 1), MaxChannels)
	s.obsChanBytes = make([]*obs.Counter, s.channels)
	s.obsChanBusy = make([]*obs.Counter, s.channels)
	for i := range s.obsChanBytes {
		s.obsChanBytes[i] = reg.Counter(obs.ChannelBytesStreamed(i))
		s.obsChanBusy[i] = reg.Counter(obs.ChannelBusyCycles(i))
	}
	reg.Counter(obs.ChannelCount).Add(int64(s.channels))
	if opts.Faults != nil {
		s.DB.Pool.SetFaults(opts.Faults)
	}
	regs := append(backend.Builtins(), greenplum.ShardedRegistration())
	s.disp = backend.NewDispatcher(backend.Env{
		Obs:      reg,
		Cost:     opts.Cost,
		FPGA:     opts.FPGA,
		Segments: opts.Segments,
	}, regs...)
	return s
}

// Obs returns the system's observability registry (obs.Noop when the
// system runs dark). Snapshot it for the JSON export, or read counters
// programmatically via Get.
func (s *System) Obs() *obs.Registry { return s.obs }

// Catalog returns the system catalog.
func (s *System) Catalog() *catalog.Catalog { return s.DB.Cat }

// Pool returns the buffer pool.
func (s *System) Pool() *bufpool.Pool { return s.DB.Pool }

// WarmTable pre-loads a table into the buffer pool (the paper's
// warm-cache setting) and resets the pool counters.
func (s *System) WarmTable(table string) error {
	if _, err := s.DB.Cat.Table(table); err != nil {
		return err
	}
	return s.DB.Pool.Warm(table)
}

// DropCaches empties the buffer pool and the extracted-record cache
// (the cold-cache setting): the next epoch re-reads every page from the
// simulated disk. Pool invalidations that bypass this method (e.g. DROP
// TABLE inside the SQL layer) still invalidate the record cache via the
// pool's invalidation counter.
func (s *System) DropCaches() error {
	if err := s.DB.Pool.Invalidate(); err != nil {
		return err
	}
	s.cache.clear()
	return nil
}

// Deploy attaches a generated dataset's relation to the catalog and
// buffer pool.
func (s *System) Deploy(d *datagen.Dataset) error {
	if err := s.DB.Cat.AttachTable(d.Rel); err != nil {
		return err
	}
	return s.DB.Pool.AttachRelation(d.Rel)
}

// Register translates the UDF, compiles it, runs hardware generation
// for the system FPGA, generates the Strider program, and stores the
// accelerator in the catalog. numTuples scores design points.
func (s *System) Register(a *dsl.Algo, mergeCoef, numTuples int) (*catalog.Accelerator, error) {
	udf, err := s.DB.Cat.RegisterUDF(a)
	if err != nil {
		return nil, err
	}
	return s.buildAccelerator(udf, mergeCoef, numTuples)
}

func (s *System) buildAccelerator(udf *catalog.UDF, mergeCoef, numTuples int) (*catalog.Accelerator, error) {
	if mergeCoef < 1 {
		mergeCoef = udf.Graph.MergeCoef
	}
	prog, err := compiler.Compile(udf.Graph)
	if err != nil {
		return nil, err
	}
	design, err := hwgen.Generate(prog, s.Opts.FPGA, hwgen.Params{
		PageSize:  s.Opts.PageSize,
		MergeCoef: mergeCoef,
		NumTuples: numTuples,
	})
	if err != nil {
		return nil, err
	}
	// Generate verifies the program it emits and refuses one with a
	// definite trap: a compiler bug, never data.
	sprog, scfg, err := strider.Generate(strider.PostgresLayout(s.Opts.PageSize))
	if err != nil {
		return nil, err
	}
	sched := compiler.ScheduleProgram(prog, design.Engine)
	acc := &catalog.Accelerator{
		UDFName:         udf.Name,
		Program:         prog,
		StriderProg:     sprog,
		StriderCfg:      scfg,
		Design:          design,
		OperationMap:    compiler.OperationMap(prog.PerTuple, sched),
		ScheduledCycles: sched.MakespanCycles,
	}
	if err := s.DB.Cat.StoreAccelerator(acc); err != nil {
		return nil, err
	}
	return acc, nil
}

// TrainResult reports one functional training run.
type TrainResult struct {
	UDF    string
	Table  string
	Model  []float32
	Epochs int

	// Backend is the dispatch name of the backend that ran the training
	// ("accelerator" unless overridden or auto-dispatched).
	Backend string

	Engine engine.Stats
	Access accessengine.Stats
	// Pool is the buffer pool's lifetime view after the run, earlier
	// runs on the same System included.
	Pool   bufpool.Stats
	Design hwgen.Design

	// SimulatedSeconds is the modeled time for the run: for the
	// accelerator pipeline, the run's counters priced by cost.Price, the
	// function the dispatcher's estimate goes through — engine, Strider
	// and link overlapped at the FPGA clock, plus this run's I/O, plus
	// setup and the dispatch of every epoch the backend ran; for other
	// backends, the analytic cost-model estimate.
	SimulatedSeconds float64

	// Degraded reports that the backend faulted mid-train and the
	// remaining epochs ran on the failover backend (FailoverBackend —
	// the golden float64 CPU trainer unless another fallback-capable
	// backend is cheaper). DegradedAtEpoch is the zero-based epoch the
	// faulted backend last attempted; epochs before it trained there,
	// epochs from it onward on the failover target.
	Degraded        bool
	DegradedAtEpoch int
	FailoverBackend string
}

// resolve is the lookup preamble shared by Train and EstimateBackends:
// the catalog entries for a (UDF, table) pair, the stored accelerator
// (built on first use), and the dispatch job they classify into at the
// given read precision.
func (s *System) resolve(udfName, table string, precision int) (*catalog.UDF, *storage.Relation, *catalog.Accelerator, backend.Job, error) {
	udf, err := s.DB.Cat.UDF(udfName)
	if err != nil {
		return nil, nil, nil, backend.Job{}, err
	}
	rel, err := s.DB.Cat.Table(table)
	if err != nil {
		return nil, nil, nil, backend.Job{}, err
	}
	acc, ok := s.DB.Cat.Accelerator(udfName)
	if !ok {
		if acc, err = s.buildAccelerator(udf, 0, rel.NumTuples()); err != nil {
			return nil, nil, nil, backend.Job{}, err
		}
	}
	return udf, rel, acc, s.jobFor(udf, rel, acc, precision), nil
}

// jobFor classifies a (UDF, table) pair into a dispatch job: the
// structural workload class plus the analytic cost-model inputs. Bits
// carries only a reduced read precision; which backend serves it — and
// what an explicit any-precision override reads at Precision 0 — is the
// dispatcher's call (backend.Dispatcher.Resolve).
func (s *System) jobFor(udf *catalog.UDF, rel *storage.Relation, acc *catalog.Accelerator, precision int) backend.Job {
	class := backend.Classify(udf.Graph)
	pages := rel.NumPages()
	perPage := 0
	if pages > 0 {
		perPage = (rel.NumTuples() + pages - 1) / pages
	}
	epochs := udf.Graph.Epochs
	if epochs < 1 {
		epochs = 1
	}
	bits := 0
	if precision >= 1 && precision < storage.WeaveMaxBits {
		bits = precision
	}
	return backend.Job{
		Class:             class,
		Bits:              bits,
		Tuples:            rel.NumTuples(),
		Columns:           rel.Schema.NumCols(),
		Pages:             pages,
		PageSize:          s.Opts.PageSize,
		DatasetBytes:      int64(pages) * int64(s.Opts.PageSize),
		Epochs:            epochs,
		MergeCoef:         udf.Graph.MergeCoef,
		ModelParams:       udf.Graph.ModelSize(),
		Engine:            acc.Program,
		Design:            acc.Design,
		StriderPageCycles: accessengine.PageCycles(rel.Schema, perPage),
		FlopsPerTuple:     backend.FlopsPerTuple(class, udf.Graph),
		Warm:              s.DB.Pool.IsWarm(rel.Name),
	}
}

// programFor prepares the training job handed to Configure.
func (s *System) programFor(udf *catalog.UDF, rel *storage.Relation, acc *catalog.Accelerator, bits int) backend.Program {
	return backend.Program{
		Graph:     udf.Graph,
		Engine:    acc.Program,
		EngineCfg: acc.Design.Engine,
		Striders:  backend.InProcessStriders(acc.Design.NumStriders),
		MergeCoef: udf.Graph.MergeCoef,
		PageSize:  s.Opts.PageSize,
		Tuples:    rel.NumTuples(),
		Bits:      bits,
	}
}

// Train runs a registered UDF over a table on the selected execution
// backend: configure → epoch loop → collect. The default path is the
// DAnA pipeline — buffer-pool pages -> Striders -> execution engine,
// epoch by epoch with convergence checks; row-fed backends train over
// the materialized tuples (narrowed through float32, the Strider
// datapath width, so every backend sees the same values). Which form a
// backend consumes is the epoch feed's concern, and what the run's
// modeled time is, the backend's own.
func (s *System) Train(udfName, table string) (*TrainResult, error) {
	return s.train(udfName, table, s.Opts.Precision)
}

// train is Train at an explicit read precision: everything a run reads
// of the precision comes through the parameter, so runs at different
// precisions can share a System — its record cache and the woven pages
// held beside it.
func (s *System) train(udfName, table string, precision int) (*TrainResult, error) {
	if precision < 0 || precision > storage.WeaveMaxBits {
		return nil, fmt.Errorf("%w: precision %d outside [0, %d]",
			backend.ErrUnsupported, precision, storage.WeaveMaxBits)
	}
	udf, rel, acc, job, err := s.resolve(udfName, table, precision)
	if err != nil {
		return nil, err
	}
	if got, want := rel.Schema.NumCols(), udf.Graph.TupleWidth(); got != want {
		return nil, fmt.Errorf("runtime: table %q has %d columns, UDF %q consumes %d", table, got, udfName, want)
	}
	// Refusing dead tuples before dispatch gives every backend one answer.
	if err := refuseDead(rel); err != nil {
		return nil, err
	}
	reg, job, err := s.disp.Resolve(s.Opts.Backend, job)
	if err != nil {
		return nil, err
	}
	key := [2]string{udfName, reg.Name}
	s.keptMu.Lock()
	be, ok := s.kept[key]
	delete(s.kept, key)
	s.keptMu.Unlock()
	if ok {
		s.obsReused.Inc()
	} else {
		be = s.disp.Build(reg)
		s.obsBuilt.Inc()
	}
	keep := false // a Train that fails or degrades keeps nothing; a failover target is never kept
	defer func() {
		if cl, ok := be.(backend.Closer); ok {
			cl.Close() // drops the epoch buffers, before another Train can take be
		}
		if keep {
			s.keptMu.Lock()
			s.kept[key] = be
			s.keptMu.Unlock()
		}
	}()
	prog := s.programFor(udf, rel, acc, job.Bits)
	if err := be.Configure(prog); err != nil {
		return nil, err
	}
	res := &TrainResult{UDF: udfName, Table: table, Design: acc.Design, Backend: reg.Name}
	trainStart := time.Now()
	s.obsTrainRuns.Inc()
	s.obs.Trace(obs.EvTrainStart, int64(job.Epochs), int64(rel.NumPages()))
	feed, err := s.newEpochFeed(rel, be, prog.Striders)
	if err != nil {
		return nil, err
	}
	s.DB.Pool.TakeRunIO() // reads before this run (a scan, an earlier Train) are not its I/O
	if err := trainLoop(res, be, job.Epochs, feed.runEpochRecover); err != nil {
		// The failing epoch is the one after the last completed.
		if errors.Is(err, fault.ErrEpochTimeout) {
			s.obsEpochTimeout.Inc()
			s.obs.Trace(obs.EvEpochTimeout, int64(res.Epochs), int64(s.Opts.EpochTimeout))
		}
		if s.Opts.DisableCPUFallback || !fault.IsAcceleratorFault(err) {
			return nil, err
		}
		// Graceful degradation: the accelerator is gone but storage is
		// intact, so the remaining epochs run on the failover backend
		// from the epoch-start model state.
		res.Degraded, res.DegradedAtEpoch = true, res.Epochs
		if ferr := s.failover(res, job, prog, be, reg.Name, rel); ferr != nil {
			// Both errors wrap: the caller must be able to errors.Is against
			// the accelerator fault that triggered degradation AND the
			// failover failure.
			return nil, fmt.Errorf("runtime: backend failover after accelerator fault (%w) failed: %w", err, ferr)
		}
	}

	if cb, ok := be.(backend.CounterBackend); ok {
		res.Engine = cb.Counters()
	}
	s.obsTrainWall.Add(time.Since(trainStart).Nanoseconds())
	s.obs.Trace(obs.EvTrainDone, int64(res.Epochs), res.Engine.Cycles)
	if !res.Degraded {
		res.Model = model32(be.Model())
	}
	if feed.ae != nil {
		res.Access = feed.ae.Stats()
	}
	res.Pool = s.DB.Pool.Stats()
	run := backend.Run{
		Epochs:        res.Epochs,
		EngineCycles:  res.Engine.Cycles,
		StriderCycles: res.Access.Cycles,
		Pages:         res.Access.Pages,
		IOSeconds:     s.DB.Pool.TakeRunIO(),
	}
	if res.Degraded {
		run.Epochs = res.DegradedAtEpoch // the failover target ran the rest
	}
	res.SimulatedSeconds = be.ModeledSeconds(job, run)
	keep = !res.Degraded
	return res, nil
}

// trainLoop is the one epoch loop: it runs up to epochs epochs of body
// against be, counting completed epochs into res and stopping early
// once the backend's program reports convergence. The first error stops
// the loop; the degradation policy is the caller's.
func trainLoop(res *TrainResult, be backend.Backend, epochs int, body func(e int) error) error {
	cv, _ := be.(backend.Converger)
	for e := 0; e < epochs; e++ {
		if err := body(e); err != nil {
			return err
		}
		res.Epochs++
		if cv != nil {
			if done, err := cv.Converged(); err != nil || done {
				return err
			}
		}
	}
	return nil
}

// failover completes a degraded training run on the dispatcher's
// failover target — among backends declaring Capabilities.Fallback, the
// cheapest admissible one that is not the faulted backend (the golden
// float64 CPU trainer in the default registry). It picks up the faulted
// backend's epoch-start model, re-reads the tuples from the heap
// (narrowed through float32, matching the Strider datapath), and runs
// the remaining epoch budget. The downgrade is surfaced via the
// runtime.failovers counter (plus the historical runtime.cpu_fallbacks
// when the target is the canonical reference trainer) and trace events
// — never a panic, never a silent wrong model.
func (s *System) failover(res *TrainResult, job backend.Job, prog backend.Program, failed backend.Backend, failedName string, rel *storage.Relation) error {
	// Degradation drops any reduced read precision: fallback targets are
	// full-width reference trainers, and a k-bit request was a bandwidth
	// optimization, not a semantic requirement.
	job.Bits, prog.Bits = 0, 0
	fb, freg, err := s.disp.Failover(job, failedName)
	if err != nil {
		return err
	}
	remaining := job.Epochs - res.DegradedAtEpoch
	s.obsFailovers.Inc()
	s.obs.Trace(obs.EvFailover, int64(res.DegradedAtEpoch), int64(remaining))
	if fb.Capabilities().BitExactModel {
		s.obsCPUFallbacks.Inc()
		s.obs.Trace(obs.EvCPUFallback, int64(res.DegradedAtEpoch), int64(remaining))
	}
	prog.Init = failed.Model() // epoch-start state (restored on epoch failure)
	if err := fb.Configure(prog); err != nil {
		return err
	}
	if cl, ok := fb.(backend.Closer); ok {
		defer cl.Close()
	}
	rows64, err := storage.NarrowedRows[float64](rel)
	if err != nil {
		return err
	}
	st := &backend.Stream{Rows64: rows64}
	if err := trainLoop(res, fb, remaining, func(int) error { return fb.RunEpoch(st) }); err != nil {
		return err
	}
	res.FailoverBackend = freg.Name
	res.Model = model32(fb.Model())
	return nil
}

// BackendCost is one dispatch candidate's modeled price for a job, as
// reported by `danactl stats -backend`.
type BackendCost struct {
	Name    string
	Seconds float64
	// Err is the typed rejection for backends that cannot run the job
	// ("" = admissible).
	Err string
}

// dispatch is the preamble EstimateCost and EstimateBackends share
// with Train: the registered (UDF, table) job at the configured read
// precision, then the registration the configured override resolves it
// to, and the job as that backend runs it. When the override admits no
// backend, the error wraps backend.ErrUnknownBackend or
// backend.ErrUnsupported, and the job comes back unresolved.
func (s *System) dispatch(udfName, table string) (backend.Registration, backend.Job, error) {
	_, _, _, job, err := s.resolve(udfName, table, s.Opts.Precision)
	if err != nil {
		return backend.Registration{}, job, err
	}
	reg, resolved, err := s.disp.Resolve(s.Opts.Backend, job)
	if err != nil {
		return backend.Registration{}, job, err
	}
	return reg, resolved, nil
}

// EstimateCost prices a registered (UDF, table) job on the backend
// Train would run it on, and returns the job as that backend prices it.
func (s *System) EstimateCost(udfName, table string) (backend.Job, backend.Cost, error) {
	reg, job, err := s.dispatch(udfName, table)
	if err != nil {
		return job, backend.Cost{}, err
	}
	c, err := s.disp.EstimateCost(reg.Name, job)
	return job, c, err
}

// EstimateBackends prices a registered (UDF, table) job — as the
// configured backend override would run it — on every registered
// backend: the dispatcher's view before it picks. An override that
// admits no backend prices the unresolved job. The returned slice is in
// registry (name) order.
func (s *System) EstimateBackends(udfName, table string) ([]BackendCost, error) {
	_, job, err := s.dispatch(udfName, table)
	if err != nil && !errors.Is(err, backend.ErrUnknownBackend) && !errors.Is(err, backend.ErrUnsupported) {
		return nil, err
	}
	var out []BackendCost
	for _, reg := range s.disp.Registrations() {
		bc := BackendCost{Name: reg.Name}
		c, err := s.disp.EstimateCost(reg.Name, job)
		if err != nil {
			bc.Err = err.Error()
		} else {
			bc.Seconds = c.Seconds
		}
		out = append(out, bc)
	}
	return out, nil
}

// model32 narrows a backend's float64 model view to the result's
// float32 representation (exact for values that round-tripped through
// float32 upstream).
func model32(m []float64) []float32 {
	if m == nil {
		return nil
	}
	out := make([]float32, len(m))
	for i, v := range m {
		out[i] = float32(v)
	}
	return out
}

// RunUDF implements sql.UDFRunner: training results surface as a result
// set of (index, value) model parameters, capped at 4096 rows.
func (s *System) RunUDF(udfName, table string) (*sql.Result, error) {
	res, err := s.Train(udfName, table)
	if err != nil {
		return nil, err
	}
	out := &sql.Result{Cols: []string{"param", "value"}}
	limitRows := len(res.Model)
	if limitRows > 4096 {
		limitRows = 4096
	}
	for i := 0; i < limitRows; i++ {
		out.Rows = append(out.Rows, []float64{float64(i), float64(res.Model[i])})
	}
	out.Msg = fmt.Sprintf("DAnA trained %s on %s: %d epochs, %d tuples, %d cycles",
		udfName, table, res.Epochs, res.Engine.Tuples, res.Engine.Cycles)
	return out, nil
}
