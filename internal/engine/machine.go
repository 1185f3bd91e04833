package engine

import (
	"fmt"
	"math"

	"dana/internal/obs"
)

// Stats aggregates execution counters of a Machine.
//
// ComputeCycles and LoadCycles are *work* totals summed over all model
// threads; Cycles is the modeled *makespan* (threads run concurrently,
// so a merge batch contributes the slowest thread's time). The Span*
// fields decompose that makespan exactly:
//
//	Cycles == SpanLoadCycles + SpanComputeCycles + MergeCycles
//
// always, on every path — the invariant `danactl stats` and the obs
// tests assert. IdleCycles is the utilization complement inside merge
// batches (thread-slots × makespan − work); it is not part of Cycles.
type Stats struct {
	Cycles        int64 // total accelerator cycles (makespan)
	ComputeCycles int64 // per-tuple + post-merge instruction cycles (work)
	MergeCycles   int64 // tree-bus merge and model broadcast cycles
	LoadCycles    int64 // input FIFO -> scratchpad distribution cycles (work)
	Tuples        int64
	Batches       int64
	Instructions  int64

	SpanLoadCycles    int64 // critical-path share of tuple loads
	SpanComputeCycles int64 // critical-path share of compute
	IdleCycles        int64 // idle thread-slot cycles during merge batches
}

// Utilization returns the fraction of the threads' cycle capacity doing
// work over the modeled makespan (Figure 12's compute-utilization axis).
func (s Stats) Utilization(threads int) float64 {
	if s.Cycles == 0 || threads < 1 {
		return 0
	}
	return float64(s.LoadCycles+s.ComputeCycles) / (float64(s.Cycles) * float64(threads))
}

// Machine executes a compiled Program on a configured instance of the
// template architecture, producing real results and cycle counts.
type Machine struct {
	Prog *Program
	Cfg  Config

	// One slab of scratchpads: pad i is words [i*Slots, (i+1)*Slots) of
	// scratch. The modeled machine has Cfg.Threads of them and is charged
	// for all; the host holds pads of them — one per model thread, or, when
	// plan.sharePads, one per host lane that can have a tuple in flight
	// (the dotLanes of a lane group), or the one a merge-free program ever
	// runs on. Pad 0 is model thread 0's always: the model and the
	// once-a-batch stages live there.
	//
	// accs holds merge accumulators of MergeSrc.Len words (nil without a
	// merge): the merged vector and a spare per lane of a lane group.
	scratch []float32
	pads    int
	accs    []float32
	stats   Stats

	// plan is Prog lowered for Cfg (plan.go): what RunBatch and Converged
	// execute. The reference executor (reference_test.go) never reads it.
	// frames are the kernel frames (one, or dotLanes for a lane group), kept
	// here because a frame passed to a kernel through its func value
	// escapes.
	plan   plan
	frames [dotLanes]frame

	// est is Prog's cycle model under Cfg: every batch and convergence
	// check is charged to stats through it, in closed form.
	est CycleEstimate

	// Observability handles (SetObs); nil handles are no-ops. stats is
	// the single ledger: PublishObs adds its growth since the last
	// publish (published) once per epoch, so a batch pays no atomics.
	// Batch sizes wait for the histogram as one run of equal sizes (runLen
	// batches of runSize tuples each).
	published    Stats
	runSize      int64
	runLen       int64
	obsCyc       *obs.Counter
	obsCycLoad   *obs.Counter
	obsCycComp   *obs.Counter
	obsCycMerge  *obs.Counter
	obsCycIdle   *obs.Counter
	obsTuples    *obs.Counter
	obsBatches   *obs.Counter
	obsInstrs    *obs.Counter
	obsBatchHist *obs.Histogram
}

// SetObs registers the machine's counters with an observability
// registry (obs.Noop disables). The registry's engine.cycles_* counters
// accumulate the same exact decomposition as the Span*/Merge stats, so
// engine.cycles_load + engine.cycles_compute + engine.cycles_merge ==
// engine.cycles holds for any run mix.
func (m *Machine) SetObs(r *obs.Registry) {
	m.obsCyc = r.Counter(obs.EngineCycles)
	m.obsCycLoad = r.Counter(obs.EngineCyclesLoad)
	m.obsCycComp = r.Counter(obs.EngineCyclesCompute)
	m.obsCycMerge = r.Counter(obs.EngineCyclesMerge)
	m.obsCycIdle = r.Counter(obs.EngineCyclesIdle)
	m.obsTuples = r.Counter(obs.EngineTuples)
	m.obsBatches = r.Counter(obs.EngineBatches)
	m.obsInstrs = r.Counter(obs.EngineInstrs)
	m.obsBatchHist = r.Hist(obs.HistBatchTuples)
}

// PublishObs adds what stats gained since the last publish to the
// registry counters. The owner of the machine calls it once per epoch
// (and Converged does): registry totals after a run equal the ledger.
func (m *Machine) PublishObs() {
	d, p := m.stats, m.published
	m.obsCyc.Add(d.Cycles - p.Cycles)
	m.obsCycLoad.Add(d.SpanLoadCycles - p.SpanLoadCycles)
	m.obsCycComp.Add(d.SpanComputeCycles - p.SpanComputeCycles)
	m.obsCycMerge.Add(d.MergeCycles - p.MergeCycles)
	m.obsCycIdle.Add(d.IdleCycles - p.IdleCycles)
	m.obsTuples.Add(d.Tuples - p.Tuples)
	m.obsBatches.Add(d.Batches - p.Batches)
	m.obsInstrs.Add(d.Instructions - p.Instructions)
	m.obsBatchHist.ObserveN(m.runSize, m.runLen)
	m.published, m.runLen = d, 0
}

// NewMachine instantiates the accelerator and lowers the program to its
// plan. It allocates the machine, one slab of plan ops, one of scratchpads
// and (merge programs) one of the 1 + dotLanes accumulators a batch needs.
func NewMachine(p *Program, cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Prog: p, Cfg: cfg, plan: lower(p, cfg), est: p.Estimate(cfg)}
	m.pads = m.plan.pads(p, cfg)
	m.scratch = make([]float32, m.pads*p.Slots)
	if p.HasMerge() {
		m.accs = make([]float32, (1+dotLanes)*p.MergeSrc.Len)
	}
	m.Reset()
	return m, nil
}

// Reset returns the machine to the state NewMachine leaves it in, its
// allocations and obs handles kept: a reset machine is a fresh one.
func (m *Machine) Reset() {
	clear(m.scratch)
	for i, c := 0, m.Prog.ConstSlot; i < m.pads; i++ {
		copy(m.thread(i)[c.Base:c.Base+c.Len], m.Prog.Consts)
	}
	clear(m.accs)
	m.stats, m.published, m.runSize, m.runLen = Stats{}, Stats{}, 0, 0
	m.Unbind()
}

// Unbind drops the frames' views of the last batch: it keeps no rows alive.
func (m *Machine) Unbind() { m.frames = [dotLanes]frame{} }

// thread returns scratchpad i: model thread i's, or host lane i's when the
// plan shares pads. thread(0) is model thread 0's either way.
func (m *Machine) thread(i int) []float32 {
	n := m.Prog.Slots
	return m.scratch[i*n : (i+1)*n : (i+1)*n]
}

// acc returns merge accumulator t: acc(0) is the merged vector and acc(1+j)
// lane j's spare; the reference executor builds one per model thread.
func (m *Machine) acc(t int) []float32 {
	n := m.Prog.MergeSrc.Len
	return m.accs[t*n : (t+1)*n : (t+1)*n]
}

// errTupleWidth is the load stage's rejection of a mis-sized tuple.
func (m *Machine) errTupleWidth(tuple []float32) error {
	return fmt.Errorf("engine: tuple width %d, input region %d", len(tuple), m.Prog.InputSlot.Len)
}

// bind points f at a scratchpad and its next tuple: the load stage.
//
//dana:hotpath
func (m *Machine) bind(f *frame, pad int, row []float32) error {
	in := m.Prog.InputSlot
	if len(row) != in.Len {
		return m.errTupleWidth(row)
	}
	th := m.thread(pad)
	if m.plan.copyInput {
		copy(th[in.Base:in.Base+in.Len], row)
	}
	f.base[spThread], f.base[spRow], f.base[spModel] = th, row, m.thread(0)
	return nil
}

// mergeValue folds the merge value the per-tuple ops left in f's thread
// into f.acc, unless the plan's last op already did.
//
//dana:hotpath
func (m *Machine) mergeValue(f *frame) {
	if src := m.Prog.MergeSrc; !m.plan.fusedAcc {
		accumulate(f.acc, f.base[spThread][src.Base:src.Base+src.Len], m.Prog.MergeOp, f.first)
	}
}

// runPartition is the batch in which a thread owns more than one tuple:
// thread t owns tuples t, t+k, t+2k, … and takes each through the
// per-tuple ops and the thread-local accumulate. Threads run dotLanes at a
// time, as lane groups in thread order (runGroup), and every thread's sum
// meets acc(0) in thread order: the sums the tree merge makes over k
// accumulators, in its order. A full group after the first whose four
// threads have as many tuples as each other, under a plan that ends in
// acc.mul.sv, folds its last round straight into acc(0). No stats are
// written (the caller charges them in closed form).
//
//dana:hotpath
func (m *Machine) runPartition(tuples [][]float32, k int) error {
	pl := &m.plan
	foldable := pl.fusedAcc && pl.perTuple[len(pl.perTuple)-1].kind == opAccMulSV
	rounds, long := len(tuples)/k, len(tuples)%k // threads below long have one tuple more
	for t := 0; t < k; t += dotLanes {
		g := min(dotLanes, k-t)
		fold := -1
		if foldable && t > 0 && g == dotLanes && (t >= long || t+g <= long) {
			fold = rounds - 1
			if t < long {
				fold = rounds
			}
		}
		if err := m.runGroup(tuples, t, k, g, fold); err != nil {
			return err
		}
	}
	return nil
}

// runGroup runs threads t…t+g−1 of a partition batch as one lane group,
// round by round: round r binds tuple t+j+r·k, if there is one, to lane j
// and walks the per-tuple ops op-major, as runDirect walks its one round.
// A full round takes an op's lane kernel when its kind has one (dotN,
// scalarN), except that acc.mul.sv adds into each lane's spare acc(1+j)
// (spareAdd); a short one calls each op's kernel lane by lane. Lane j
// holds its tuple's temporaries across the interleave, so sharing pads
// takes one per lane. After the last round the spares meet acc(0) in lane
// order, thread 0's a store — unless round fold (−1: none) is full: then
// its acc.mul.sv folds the four threads' sums straight into acc(0),
// through accMulSVN on acc(0) when this is each thread's only tuple and
// through spareFold when it is not, and the spares are done.
//
// A lane that fails retires itself and every lane above it; the lanes
// below run on and may fail later in their own lists or rounds. The group
// returns the lowest failed lane's error: the one the reference, which
// runs thread by thread, stops at.
//
//dana:hotpath
func (m *Machine) runGroup(tuples [][]float32, t, k, g, fold int) error {
	pl, fs, acc0 := &m.plan, &m.frames, m.acc(0)
	var err error
	for r, at := 0, t; at < len(tuples) && g > 0; r, at = r+1, at+k {
		live := min(g, len(tuples)-at)
		for j := 0; j < live; j++ {
			f, pad := &fs[j], t+j
			if pl.sharePads {
				pad = j
			}
			f.acc, f.first = m.acc(1+j), r == 0
			if r == fold && r == 0 {
				f.acc, f.first = acc0, false
			}
			if e := m.bind(f, pad, tuples[at+j]); e != nil {
				g, live, err = j, j, e
			}
		}
		for i := range pl.perTuple {
			o := &pl.perTuple[i]
			if live == dotLanes {
				switch {
				case o.kind == opAccMulSV && r != fold:
					spareAdd(o, fs)
					continue
				case o.kind == opAccMulSV && r > 0:
					spareFold(o, fs, acc0)
					continue
				case laneKernels[o.kind] != nil:
					laneKernels[o.kind](o, fs)
					continue
				}
			}
			for j := 0; j < live; j++ {
				if e := o.run(o, &fs[j]); e != nil {
					g, live, err = j, j, e
				}
			}
		}
		for j := 0; j < live; j++ {
			m.mergeValue(&fs[j])
		}
	}
	if err != nil || fold >= 0 {
		return err
	}
	for j := 0; j < g; j++ {
		accumulate(acc0, m.acc(1+j), m.Prog.MergeOp, t+j == 0)
	}
	return nil
}

// runDirect is the batch in which thread t owns exactly tuple t.
// Two things follow. The merge value of thread t can be folded straight
// into thread 0's accumulator — where the tree merge would put it, in
// the same thread order — leaving the merge loop nothing to do. And
// since the threads share nothing they write, their per-tuple lists may
// interleave: a group of dotLanes threads is bound and walks the list
// op-major, each op for lanes 0..g-1 before the next, so that four
// independent latency chains (four logistics, four dots) are in flight
// where a tuple alone has one. A full group takes the op's lane kernel
// when it has one (dotN, scalarN, accMulSVN); a short group, and any
// other kind, calls the op's kernel lane by lane. The accumulator meets
// the lanes in lane order — thread order — because the accumulating op is
// the list's last. A lane holds its tuple's temporaries across the
// interleave, so sharing pads takes one per lane.
//
// A lane that fails retires itself and every lane above it; the lanes
// below run on and may fail earlier in their own lists. The batch returns
// the lowest failed lane's error: the one the reference, which runs thread
// by thread, stops at.
//
//dana:hotpath
func (m *Machine) runDirect(tuples [][]float32) error {
	pl, fs := &m.plan, &m.frames
	for t := 0; t < len(tuples); t += dotLanes {
		g := min(dotLanes, len(tuples)-t)
		var err error
		for j := 0; j < g; j++ {
			f, pad := &fs[j], t+j
			if pl.sharePads {
				pad = j
			}
			f.acc, f.first = m.acc(0), t+j == 0
			if e := m.bind(f, pad, tuples[t+j]); e != nil {
				g, err = j, e
			}
		}
		for i := range pl.perTuple {
			o := &pl.perTuple[i]
			if k := laneKernels[o.kind]; k != nil && g == dotLanes {
				k(o, fs)
				continue
			}
			for j := 0; j < g; j++ {
				if e := o.run(o, &fs[j]); e != nil {
					g, err = j, e
				}
			}
		}
		for j := 0; j < g; j++ {
			m.mergeValue(&fs[j])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (m *Machine) Stats() Stats { return m.stats }

// Model returns a copy of the current model parameters.
func (m *Machine) Model() []float32 {
	s := m.Prog.ModelSlot
	out := make([]float32, s.Len)
	copy(out, m.thread(0)[s.Base:s.Base+s.Len])
	return out
}

// SetModel loads model parameters into every scratchpad.
func (m *Machine) SetModel(vals []float32) error {
	s := m.Prog.ModelSlot
	if len(vals) != s.Len {
		return fmt.Errorf("engine: model has %d parameters, got %d", s.Len, len(vals))
	}
	for i := 0; i < m.pads; i++ {
		copy(m.thread(i)[s.Base:s.Base+s.Len], vals)
	}
	return nil
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func log2Ceil(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	return k
}

// sigmoid is alu's logistic, shared with scalarN so that a lane group's
// values are alu's to the bit.
func sigmoid(a float32) float32 { return float32(1 / (1 + math.Exp(-float64(a)))) }

func alu(op AluOp, a, b float32) float32 {
	switch op {
	case AMov:
		return a
	case AAdd:
		return a + b
	case ASub:
		return a - b
	case AMul:
		return a * b
	case ADiv:
		return a / b
	case ALt:
		if a < b {
			return 1
		}
		return 0
	case AGt:
		if a > b {
			return 1
		}
		return 0
	case ASigmoid:
		return sigmoid(a)
	case AGaussian:
		return float32(math.Exp(-float64(a) * float64(a)))
	case ASqrt:
		return float32(math.Sqrt(float64(a)))
	case ASquare:
		return a * a
	default:
		return a
	}
}

// countBatches counts q batches of n tuples each and folds them into the
// run-length the histogram is published from (a run of none adds nothing).
func (m *Machine) countBatches(n, q int) {
	m.stats.Batches += int64(q)
	m.stats.Tuples += int64(n * q)
	if int64(n) != m.runSize {
		m.obsBatchHist.ObserveN(m.runSize, m.runLen)
		m.runSize, m.runLen = int64(n), 0
	}
	m.runLen += int64(q)
}

// RunBatch executes one merge batch on the plan. Without a merge
// function the batch runs tuple-at-a-time SGD on thread 0 (runSerial);
// with one, tuples are dealt round-robin over the threads, per-thread
// merge values accumulate locally, and the tree bus combines them before
// the post-merge update. Modeled cycles are charged in closed form from
// the batch size; a failed batch charges none.
//
//dana:hotpath
func (m *Machine) RunBatch(tuples [][]float32) error {
	n := len(tuples)
	if n == 0 {
		return nil
	}
	if !m.Prog.HasMerge() {
		return m.runSerial(tuples, n)
	}
	m.countBatches(n, 1)

	// Every thread sees its tuples (i ≡ t mod k) in increasing order and
	// both shapes leave acc(0) holding the tree-bus merge's sums in thread
	// order; the counters are closed forms of (n, k).
	k := min(m.Cfg.Threads, n)
	var err error
	if n == k {
		err = m.runDirect(tuples)
	} else {
		err = m.runPartition(tuples, k)
	}
	if err != nil {
		return err
	}
	return m.endMergeBatch(n, k)
}

// runSerial is every merge-free batch and epoch: tuple-at-a-time SGD on
// thread 0, in order, over batches of batchSize. The frame's thread and
// model views are set once and a tuple sets its row; endSerial counts and
// charges the batches in closed form.
//
//dana:hotpath
func (m *Machine) runSerial(tuples [][]float32, batchSize int) error {
	p, pl, f, th0 := m.Prog, &m.plan, &m.frames[0], m.thread(0)
	in, mdl, upd := p.InputSlot, p.ModelSlot, p.UpdatedSlot
	f.base[spThread], f.base[spModel] = th0, th0
	for i, row := range tuples {
		if len(row) != in.Len {
			return m.endSerial(len(tuples), batchSize, i, m.errTupleWidth(row))
		}
		if pl.copyInput {
			copy(th0[in.Base:in.Base+in.Len], row)
		}
		f.base[spRow] = row
		if err := runOps(pl.perTuple, f); err != nil {
			return m.endSerial(len(tuples), batchSize, i, err)
		}
		if err := runOps(pl.rowUpdates, f); err != nil {
			return m.endSerial(len(tuples), batchSize, i, err)
		}
		if upd.Len > 0 {
			copy(th0[mdl.Base:mdl.Base+mdl.Len], th0[upd.Base:upd.Base+upd.Len])
		}
	}
	return m.endSerial(len(tuples), batchSize, len(tuples), nil)
}

// endSerial closes a serial run of n tuples in batches of b that stopped at
// tuple i on err (i == n, err nil: none did). The batches up to tuple i's
// are counted and those before it charged, and err is returned.
func (m *Machine) endSerial(n, b, i int, err error) error {
	counted, charged := n, n
	if err != nil {
		counted, charged = min(n, (i/b+1)*b), i/b*b
	}
	m.countBatches(b, counted/b)
	if r := counted % b; r > 0 {
		m.countBatches(r, 1)
	}
	m.est.chargeSerial(&m.stats, charged)
	return err
}

// endMergeBatch lands the merged vector acc(0) in thread 0's MergeDst, runs
// the post-merge stage and the row updates there, syncs the model and
// charges the batch of n tuples on k threads.
//
//dana:hotpath
func (m *Machine) endMergeBatch(n, k int) error {
	p, pl, f, th0 := m.Prog, &m.plan, &m.frames[0], m.thread(0)
	mdl, upd := p.ModelSlot, p.UpdatedSlot
	copy(th0[p.MergeDst.Base:p.MergeDst.Base+p.MergeDst.Len], m.acc(0))

	// Post-merge stage on thread 0.
	f.base[spThread], f.base[spModel], f.base[spRow] = th0, th0, nil
	if err := runOps(pl.postMerge, f); err != nil {
		return err
	}
	if err := runOps(pl.rowUpdates, f); err != nil {
		return err
	}

	// Model update + broadcast to every thread over the bus. When the
	// per-tuple stage reads thread 0's model (plan.shareModel) the other
	// copies are never read, so the broadcast is charged but not copied.
	synced := mdl.Len
	if upd.Len > 0 {
		synced = copy(th0[mdl.Base:mdl.Base+mdl.Len], th0[upd.Base:upd.Base+upd.Len])
	}
	if !pl.shareModel && (upd.Len > 0 || len(p.RowUpdates) > 0) {
		for t := 1; t < m.pads; t++ {
			copy(m.thread(t)[mdl.Base:mdl.Base+synced], th0[mdl.Base:])
		}
	}
	m.est.chargeMerge(&m.stats, n, k)
	return nil
}

// EpochStream feeds one epoch's tuples to the machine incrementally, in
// merge-coefficient batches, for the producer that recycles row storage
// between Feeds (the extraction pipeline's Stream.Batches); a caller that
// holds the whole epoch calls RunEpoch. It forms exactly the batches
// RunEpoch forms on the concatenated tuple sequence, so cycle counts and
// the trained model are bit-identical whether tuples arrive all at once
// or page by page while later pages are still being extracted (§5.1.1).
type EpochStream struct {
	m         *Machine
	batchSize int
	buf       [][]float32 // the partial batch, its rows kept in slab
	slab      RowSlab
}

// StreamEpoch starts an epoch fed incrementally via Feed/Finish.
func (m *Machine) StreamEpoch(batchSize int) *EpochStream {
	batchSize = max(batchSize, 1)
	return &EpochStream{m: m, batchSize: batchSize, slab: RowSlab{rows: batchSize}}
}

// Reset re-arms the stream for a new epoch, keeping its buffers — the
// merge path's cross-epoch buffer reuse (a stream abandoned mid-epoch
// by a failed run is safe to reuse after Reset).
func (s *EpochStream) Reset() {
	s.buf = s.buf[:0]
	s.slab.Reset()
}

// Feed appends tuples to the epoch, running every batch that fills. Any
// tuples Feed must buffer are copied by value, so the caller may reuse
// the tuples' backing storage as soon as Feed returns. Full batches run
// directly on the caller's row views (zero-copy); only a partial batch
// is value-copied, into the stream's slab, whose chunks every batch
// refills from the first.
//
//dana:hotpath
func (s *EpochStream) Feed(tuples [][]float32) error {
	for len(tuples) > 0 {
		// Fast path: no partial batch pending, so whole batches run in place.
		if len(s.buf) == 0 && len(tuples) >= s.batchSize {
			whole := len(tuples) - len(tuples)%s.batchSize
			if err := s.m.RunEpoch(tuples[:whole], s.batchSize); err != nil {
				return err
			}
			tuples = tuples[whole:]
			continue
		}
		n := min(s.batchSize-len(s.buf), len(tuples))
		for _, tup := range tuples[:n] {
			s.buf = append(s.buf, s.slab.Keep(tup))
		}
		tuples = tuples[n:]
		if len(s.buf) == s.batchSize {
			if err := s.m.RunBatch(s.buf); err != nil {
				return err
			}
			s.Reset()
		}
	}
	return nil
}

// Finish runs the trailing partial batch, ending the epoch.
func (s *EpochStream) Finish() error {
	err := s.m.RunBatch(s.buf)
	s.Reset()
	return err
}

// RunEpoch runs one epoch over rows the caller holds for the whole call:
// RunBatch over consecutive batchSize slices of tuples, the final short
// slice included — the batches Feed + Finish form — with no copy. A
// merge-free program runs them all in runSerial's one loop.
//
//dana:hotpath
func (m *Machine) RunEpoch(tuples [][]float32, batchSize int) error {
	batchSize = max(batchSize, 1)
	if !m.Prog.HasMerge() {
		return m.runSerial(tuples, batchSize)
	}
	for lo := 0; lo < len(tuples); lo += batchSize {
		if err := m.RunBatch(tuples[lo:min(lo+batchSize, len(tuples))]); err != nil {
			return err
		}
	}
	return nil
}

// Converged evaluates the convergence program (thread 0) on the plan.
func (m *Machine) Converged() (bool, error) {
	p := m.Prog
	if p.ConvSlot.Len == 0 {
		return false, nil
	}
	f := &m.frames[0]
	f.base[spThread], f.base[spModel], f.base[spRow] = m.thread(0), m.thread(0), nil
	if err := runOps(m.plan.convergence, f); err != nil {
		return false, err
	}
	m.est.chargeConvergence(&m.stats)
	m.PublishObs()
	return m.thread(0)[p.ConvSlot.Base] > 0.5, nil
}
