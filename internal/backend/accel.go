package backend

import (
	"fmt"

	"dana/internal/cost"
	"dana/internal/engine"
	"dana/internal/ml"
)

// Accel is the DAnA accelerator path behind the Backend seam: the
// multi-threaded execution-engine simulator fed by the Strider
// extraction pipeline. It is the streaming backend — RunEpoch accepts
// the page-order batch stream and preserves the exact feed order the
// bit-identity invariants depend on.
//
// One pipeline serves three registrations, told apart only by the
// capability set the constructor installs: the accelerator itself, the
// TABLA design point (Tabla, which swaps the engine config), and the
// any-precision weave window (NewWeaveAccel, which switches the
// requantisation stage on).
type Accel struct {
	env  Env
	caps Capabilities

	m      *engine.Machine
	stream *engine.EpochStream
	batch  int
	// feed is stream.Feed bound once at Configure, so the per-epoch
	// streaming path allocates no closures.
	feed func([][]float32) error
	// rows32 is the scratch buffer a batch stream is materialized into;
	// slab backs the rows copied out of it.
	rows32 [][]float32
	slab   engine.RowSlab
	// keep is keepBatch bound once, like feed.
	keep func([][]float32) error

	// weave is the requantisation stage, on (bits > 0) when caps
	// declares a read window.
	weave weaveStage
}

// NewAccel builds an unconfigured accelerator backend.
func NewAccel(env Env) *Accel {
	return &Accel{env: env, caps: Capabilities{
		Name:                  NameAccelerator,
		Classes:               AllClasses(),
		Precision:             PrecisionFloat32,
		DeterministicCounters: true,
		ModelTolerance:        5e-3, // float32 datapath vs float64 golden
		Streaming:             true,
		Accelerated:           true,
	}}
}

func (b *Accel) Capabilities() Capabilities { return b.caps }

func (b *Accel) checkJob(job Job) error {
	if !admissible(b.caps, job) {
		return fmt.Errorf("%w: %s cannot run class=%s bits=%d",
			ErrUnsupported, b.caps.Name, job.Class, job.Bits)
	}
	return nil
}

// EstimateCost prices the job as cost.DAnA does (cost.Price of
// cost.DAnATerms, which the Cost carries): the compiled program's static
// cycle estimate at the design's thread count, pipelined against Strider
// unpacking and link transfer. Under a weave window the link and the
// Strider unpack are charged for the k-bit vertical layout.
func (b *Accel) EstimateCost(job Job) (Cost, error) {
	if err := b.checkJob(job); err != nil {
		return Cost{}, err
	}
	w := job.Workload()
	if job.Engine != nil {
		est := job.Engine.Estimate(job.Design.Engine)
		w.EpochCycles = est.EpochCycles(job.Tuples, max1(job.MergeCoef), job.Design.Engine.Threads)
	}
	if b.caps.MaxBits > 0 {
		chargeWeave(&w, job)
	}
	t := cost.DAnATerms(w, b.env.Cost, job.Warm)
	bd := cost.Price(t, b.env.Cost)
	return Cost{Seconds: bd.TotalSec, Breakdown: bd, Terms: t}, nil
}

// ModeledSeconds prices the run's counters through cost.Price, as
// EstimateCost prices its prediction: engine and Strider makespans,
// epochs run, disk reads, and the link charged per pass the page stream
// made over the relation (cached replays included; a retried epoch's
// partial pass counts as one). Under a weave window each pass ships the
// vertical layout.
func (b *Accel) ModeledSeconds(job Job, run Run) float64 {
	pages := int64(max1(job.Pages))
	link := job.Workload()
	link.Epochs = int((run.Pages + pages - 1) / pages)
	if b.caps.MaxBits > 0 {
		chargeWeave(&link, job)
	}
	return cost.Price(cost.Terms{
		Epochs:        run.Epochs,
		EngineCycles:  float64(run.EngineCycles),
		StriderCycles: float64(run.StriderCycles),
		Link:          link,
		IOSec:         run.IOSeconds,
	}, b.env.Cost).TotalSec
}

// Configure builds the engine machine for the program (or resets the one
// built for the same program and config) and seeds the initial model.
func (b *Accel) Configure(p Program) error { return b.configure(p, p.EngineCfg) }

// configure is shared with the embedding Tabla backend, which passes
// its own engine config.
func (b *Accel) configure(p Program, cfg engine.Config) error {
	caps := b.caps
	if p.Graph == nil || p.Engine == nil {
		return fmt.Errorf("%w: %s needs a compiled engine program", ErrUnsupported, caps.Name)
	}
	var weave weaveStage
	var err error
	if caps.MaxBits > 0 {
		if weave, err = newWeaveStage(caps, p); err != nil {
			return err
		}
		weave.SetObs(b.env.obs())
	}
	class := Classify(p.Graph)
	if !caps.Supports(class) {
		return fmt.Errorf("%w: %s cannot run class=%s", ErrUnsupported, caps.Name, class)
	}
	m := b.m
	if m != nil && m.Prog == p.Engine && m.Cfg == cfg {
		m.Reset()
	} else if m, err = engine.NewMachine(p.Engine, cfg); err != nil {
		return err
	} else {
		m.SetObs(b.env.obs())
	}
	if init := initModel(p); init != nil {
		if err := m.SetModel(narrow32(init)); err != nil {
			return err
		}
	}
	b.batch = max1(p.MergeCoef)
	b.m, b.weave = m, weave
	b.stream = m.StreamEpoch(b.batch)
	b.feed = b.stream.Feed
	return nil
}

// RunEpoch runs one epoch. The Batches form drives the engine's
// incremental epoch stream in arrival order (the extraction pipeline);
// the materialized forms replay through the engine's whole-epoch entry
// point. Both charge identical modeled counters — the conformance
// suite's determinism check crosses the two forms to prove it. With the
// weave stage on, every form is materialized and requantised first.
func (b *Accel) RunEpoch(st *Stream) error {
	if b.m == nil {
		return ErrNotConfigured
	}
	// The machine keeps its counters in a plain ledger; a failed epoch's
	// charges are published like a finished one's.
	defer b.m.PublishObs()
	if st.Batches != nil && b.weave.bits == 0 {
		b.stream.Reset()
		if err := st.Batches(b.feed); err != nil {
			return err
		}
		return b.stream.Finish()
	}
	rows, err := b.materialize(st)
	if err != nil {
		return err
	}
	if b.weave.bits > 0 && rows != nil {
		if rows, err = b.weave.requantise(rows, st.Held); err != nil {
			return err
		}
	}
	return b.m.RunEpoch(rows, b.batch)
}

// materialize returns the epoch as float32 rows: Rows32 as delivered, a
// batch stream drained into the scratch buffer (copied — the producer
// recycles batch storage). A stream carrying only Rows64 fails typed;
// nil means the stream carried no tuples.
func (b *Accel) materialize(st *Stream) ([][]float32, error) {
	switch {
	case st.Batches != nil:
		b.rows32 = b.rows32[:0]
		b.slab.Reset()
		if b.keep == nil {
			b.keep = b.keepBatch
		}
		err := st.Batches(b.keep)
		return b.rows32, err
	case st.Rows32 != nil:
		return st.Rows32, nil
	case st.Rows64 != nil:
		return nil, fmt.Errorf("%w: a float32 backend needs Rows32 or Batches", ErrUnsupported)
	}
	return nil, nil
}

// keepBatch copies a batch's rows into the slab and appends them to
// rows32.
func (b *Accel) keepBatch(batch [][]float32) error {
	for _, r := range batch {
		b.rows32 = append(b.rows32, b.slab.Keep(r))
	}
	return nil
}

func (b *Accel) Model() []float64 { return widen64(b.Model32()) }

// Model32 returns a copy of the engine's float32 model.
func (b *Accel) Model32() []float32 {
	if b.m == nil {
		return nil
	}
	return b.m.Model()
}

func (b *Accel) SetModel(m []float64) error {
	if b.m == nil {
		return ErrNotConfigured
	}
	return b.m.SetModel(narrow32(m))
}

func (b *Accel) Converged() (bool, error) {
	if b.m == nil {
		return false, ErrNotConfigured
	}
	return b.m.Converged()
}

// Counters returns the engine's modeled cycle decomposition.
func (b *Accel) Counters() engine.Stats {
	if b.m == nil {
		return engine.Stats{}
	}
	return b.m.Stats()
}

// Close drops the epoch buffers (materialized rows, the weave stage's
// reweaver and the rows it decoded, the machine's views of the last
// batch), leaving configuration and no rows; a later epoch rebuilds what
// it needs. Rows decoded into a lent holder are the holder's.
func (b *Accel) Close() {
	b.rows32, b.slab = nil, engine.RowSlab{}
	b.weave.rw = nil
	if b.m != nil {
		b.m.Unbind()
	}
}

// InProcessStriders clamps a design's Strider count to 16. It saves no
// Strider state: the walk keeps none, and the buffer pool, not the
// clamp, sizes the executor's pin group. The clamp has one role left: it
// keeps Train's access.Cycles equal to bench/replica.go's, which clamps
// to 16 on its own and must report the same counters. The Collector
// groups pages by the clamped count, so a 32-Strider design (every
// Table 3 design) executes about twice the Strider cycles its estimate
// unpacks over 32; the term loses the pipeline max there, so the priced
// time does not move.
func InProcessStriders(n int) int { return min(max(n, 1), 16) }

// initModel resolves a program's starting model: the explicit Init, or
// the class-canonical initialization (LRMF factor models cannot start
// at zero — a stationary point — so they get the reference small
// uniform seeding, narrowed through float32 like every accelerator
// model value).
func initModel(p Program) []float64 {
	if p.Init != nil {
		return p.Init
	}
	if p.Graph == nil || len(p.Graph.RowUpdates) == 0 {
		return nil // GLM zeros are every backend's zero value already
	}
	init := ml.InitModel(ml.LRMF{
		Users: p.Graph.Model.Shape[0], Items: 0, Rank: p.Graph.Model.Shape[1],
	}, 1)
	for i, v := range init {
		init[i] = float64(float32(v))
	}
	return init
}

func narrow32(m []float64) []float32 {
	out := make([]float32, len(m))
	for i, v := range m {
		out[i] = float32(v)
	}
	return out
}

func widen64(m []float32) []float64 {
	if m == nil {
		return nil
	}
	out := make([]float64, len(m))
	for i, v := range m {
		out[i] = float64(v)
	}
	return out
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
