package engine

import (
	"fmt"
	"math"
	hostrt "runtime"

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

// Seconds converts the cycle count to simulated seconds at the clock.
func (s Stats) Seconds(clockHz float64) float64 { return float64(s.Cycles) / clockHz }

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

	scratch [][]float32 // per-thread scratchpads
	stats   Stats

	// Reused per-batch buffers (allocation-churn control; no semantic
	// effect): per-thread merge accumulators, per-thread cycle counters,
	// and the model broadcast staging copy.
	mergeAccs [][]float32
	threadCyc []int64
	bcast     []float32

	// Static cycle costs, precomputed once per program (instruction
	// cycles depend only on the instruction and the config): total cost
	// of each instruction list, the tuple load, the thread-local merge
	// accumulate, and the model write-back.
	cycPerTuple    int64
	cycPostMerge   int64
	cycRowUpdates  int64
	cycConvergence int64
	cycLoad        int64
	cycLocalAcc    int64
	cycWriteBack   int64

	// Host fan-out of merge batches (SetHostWorkers): the k model
	// threads of a batch are independent (each owns its scratchpad and
	// merge accumulator), so they are dealt w, w+W, ... to W host
	// goroutines. Helpers are spawned lazily and live until Close.
	hostWorkers int
	helperCh    []chan batchJob
	helperDone  chan struct{}
	partErrs    []error

	// Observability handles (SetObs); nil handles are no-ops. stats is
	// the single ledger: PublishObs adds its growth since the last
	// publish (published) once per epoch, so RunBatch — per tuple at merge
	// coefficient 1 — pays no atomics. Batch sizes wait for the histogram
	// as one run of equal sizes (runLen batches of runSize tuples each).
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

// fanOutFloorCycles is the static modeled cost (tuples × per-tuple
// program cycles, both known before the batch runs) below which a merge
// batch runs inline even with host workers configured: the fork/join
// costs a few tens of µs, more than a small batch's whole compute.
// Measured at merge 64 on a 2-core host (EXPERIMENTS.md, "Engine
// fan-out floor"): inline wins up to the 520-feature program (4 224
// cycles a batch), fanning wins from the 2000-feature one (13 056).
const fanOutFloorCycles = 8192

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

// batchJob is one helper's share of a merge batch.
type batchJob struct {
	tuples  [][]float32
	k, w, W int
	errs    []error
}

// NewMachine instantiates the accelerator.
func NewMachine(p *Program, cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Prog: p, Cfg: cfg, scratch: make([][]float32, cfg.Threads)}
	for t := range m.scratch {
		m.scratch[t] = make([]float32, p.Slots)
		copy(m.scratch[t][p.ConstSlot.Base:p.ConstSlot.Base+p.ConstSlot.Len], p.Consts)
	}
	m.cycPerTuple = listCycles(p.PerTuple, cfg)
	m.cycPostMerge = listCycles(p.PostMerge, cfg)
	m.cycRowUpdates = listCycles(p.RowUpdates, cfg)
	m.cycConvergence = listCycles(p.Convergence, cfg)
	// The access engine distributes 8 values per cycle per thread FIFO.
	m.cycLoad = int64(ceilDiv(p.InputSlot.Len, 8))
	m.cycLocalAcc = int64(ceilDiv(p.MergeSrc.Len, cfg.Lanes()))
	m.cycWriteBack = int64(ceilDiv(p.ModelSlot.Len, cfg.Lanes()))
	return m, nil
}

// SetHostWorkers sets how many host goroutines execute a merge batch's
// independent model threads (1 = serial, the default) once the batch
// clears fanOutFloorCycles. This changes
// wall-clock time only: each model thread's tuple order, accumulation
// order, and the tree-bus merge order are unchanged, so results and
// modeled cycles are bit-identical for any value. A machine with
// workers > 1 must be Closed to release its helper goroutines.
func (m *Machine) SetHostWorkers(n int) {
	if n < 1 {
		n = 1
	}
	// Clamp to schedulable cores here, at configuration time: more
	// workers than GOMAXPROCS cannot speed up a CPU-bound loop, and the
	// per-batch runtime query this replaces sat on the //dana:hotpath
	// (surfaced by the hotcall analyzer). Fan-out width changes
	// wall-clock only, never results, so clamping early is equivalent.
	if maxp := hostrt.GOMAXPROCS(0); n > maxp {
		n = maxp
	}
	m.hostWorkers = n
}

// Close releases the helper goroutines (idempotent; only needed after
// SetHostWorkers with n > 1).
func (m *Machine) Close() {
	for _, ch := range m.helperCh {
		close(ch)
	}
	m.helperCh = nil
}

// ensureHelpers lazily spawns helpers 1..W-1 (the caller acts as 0).
func (m *Machine) ensureHelpers(w int) {
	if m.helperDone == nil {
		m.helperDone = make(chan struct{}, m.hostWorkers)
	}
	for len(m.helperCh) < w-1 {
		ch := make(chan batchJob)
		m.helperCh = append(m.helperCh, ch)
		go func() {
			for job := range ch {
				m.runPartition(job.tuples, job.k, job.w, job.W, &job.errs[job.w])
				m.helperDone <- struct{}{}
			}
		}()
	}
}

// runPartition executes model threads w, w+W, ... of one merge batch:
// tuple loads, the per-tuple program, and the thread-local merge
// accumulate. It only touches those threads' scratchpads, accumulators,
// and cycle counters, so partitions are mutually independent; no shared
// stats are written (the caller charges them from static costs).
//
//dana:hotpath
func (m *Machine) runPartition(tuples [][]float32, k, w, W int, errp *error) {
	p := m.Prog
	accs := m.mergeAccs[:k]
	threadCycles := m.threadCyc[:k]
	for t := w; t < k; t += W {
		for i := t; i < len(tuples); i += k {
			if err := m.loadTuple(t, tuples[i]); err != nil {
				*errp = err
				return
			}
			if err := m.execList(t, p.PerTuple); err != nil {
				*errp = err
				return
			}
			threadCycles[t] += m.cycLoad + m.cycPerTuple
			src := m.scratch[t][p.MergeSrc.Base : p.MergeSrc.Base+p.MergeSrc.Len]
			if len(accs[t]) == 0 {
				accs[t] = append(accs[t], src...)
			} else {
				if p.MergeOp == AAdd {
					acc := accs[t]
					for j := range acc {
						acc[j] = acc[j] + src[j]
					}
				} else {
					for j := range accs[t] {
						accs[t][j] = alu(p.MergeOp, accs[t][j], src[j])
					}
				}
				threadCycles[t] += m.cycLocalAcc
			}
		}
	}
}

// Stats returns a snapshot of the counters.
func (m *Machine) Stats() Stats { return m.stats }

// Model returns a copy of the current model parameters.
func (m *Machine) Model() []float32 {
	s := m.Prog.ModelSlot
	out := make([]float32, s.Len)
	copy(out, m.scratch[0][s.Base:s.Base+s.Len])
	return out
}

// SetModel loads model parameters into every thread.
func (m *Machine) SetModel(vals []float32) error {
	s := m.Prog.ModelSlot
	if len(vals) != s.Len {
		return fmt.Errorf("engine: model has %d parameters, got %d", s.Len, len(vals))
	}
	for t := range m.scratch {
		copy(m.scratch[t][s.Base:s.Base+s.Len], vals)
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
		return float32(1 / (1 + math.Exp(-float64(a))))
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

// exec runs one macro instruction on thread t (cycle costs are charged
// by the caller from the precomputed tables).
//
//dana:hotpath
func (m *Machine) exec(t int, in *Instr) error {
	th := m.scratch[t]
	switch in.Kind {
	case KEW:
		// The specialized loops below are wall-clock fast paths only:
		// they perform the identical float32 operations in the identical
		// order as the generic modulo-broadcast loop (per-iteration
		// loads are kept so overlapping slots behave exactly the same),
		// so results and cycle counts are bit-identical.
		unary := in.Op.IsUnary()
		if in.A.Len <= 0 || (!unary && in.B.Len <= 0) {
			return fmt.Errorf("engine: EW with empty source: %v", in)
		}
		dst := th[in.Dst.Base : in.Dst.Base+in.Dst.Len]
		switch {
		case unary && in.A.Len >= in.Dst.Len:
			a := th[in.A.Base:]
			switch in.Op {
			case AMov:
				for i := range dst {
					dst[i] = a[i]
				}
			case ASquare:
				for i := range dst {
					dst[i] = a[i] * a[i]
				}
			default:
				for i := range dst {
					dst[i] = alu(in.Op, a[i], 0)
				}
			}
		case unary:
			for i := range dst {
				dst[i] = alu(in.Op, th[in.A.Base+i%in.A.Len], 0)
			}
		case in.A.Len >= in.Dst.Len && in.B.Len >= in.Dst.Len:
			a, b := th[in.A.Base:], th[in.B.Base:]
			switch in.Op {
			case AAdd:
				for i := range dst {
					dst[i] = a[i] + b[i]
				}
			case ASub:
				for i := range dst {
					dst[i] = a[i] - b[i]
				}
			case AMul:
				for i := range dst {
					dst[i] = a[i] * b[i]
				}
			case ADiv:
				for i := range dst {
					dst[i] = a[i] / b[i]
				}
			default:
				for i := range dst {
					dst[i] = alu(in.Op, a[i], b[i])
				}
			}
		case in.A.Len >= in.Dst.Len && in.B.Len == 1:
			a, b := th[in.A.Base:], th[in.B.Base:]
			switch in.Op {
			case AAdd:
				for i := range dst {
					dst[i] = a[i] + b[0]
				}
			case ASub:
				for i := range dst {
					dst[i] = a[i] - b[0]
				}
			case AMul:
				for i := range dst {
					dst[i] = a[i] * b[0]
				}
			case ADiv:
				for i := range dst {
					dst[i] = a[i] / b[0]
				}
			default:
				for i := range dst {
					dst[i] = alu(in.Op, a[i], b[0])
				}
			}
		case in.A.Len == 1 && in.B.Len >= in.Dst.Len:
			a, b := th[in.A.Base:], th[in.B.Base:]
			switch in.Op {
			case AAdd:
				for i := range dst {
					dst[i] = a[0] + b[i]
				}
			case ASub:
				for i := range dst {
					dst[i] = a[0] - b[i]
				}
			case AMul:
				for i := range dst {
					dst[i] = a[0] * b[i]
				}
			case ADiv:
				for i := range dst {
					dst[i] = a[0] / b[i]
				}
			default:
				for i := range dst {
					dst[i] = alu(in.Op, a[0], b[i])
				}
			}
		default:
			for i := range dst {
				dst[i] = alu(in.Op, th[in.A.Base+i%in.A.Len], th[in.B.Base+i%in.B.Len])
			}
		}
		return nil
	case KReduce:
		for g := 0; g < in.Dst.Len; g++ {
			base := in.A.Base + g*in.GStride
			var acc float32
			if in.Op == AAdd && in.GroupSize > 0 {
				acc = th[base]
				for e, idx := 1, base; e < in.GroupSize; e++ {
					idx += in.EStride
					acc = acc + th[idx]
				}
			} else {
				for e := 0; e < in.GroupSize; e++ {
					v := th[base+e*in.EStride]
					if e == 0 {
						acc = v
					} else {
						acc = alu(in.Op, acc, v)
					}
				}
			}
			th[in.Dst.Base+g] = acc
		}
		return nil
	case KGather:
		idx := int(math.Round(float64(th[in.A.Base])))
		rows := m.Prog.ModelSlot.Len / in.RowLen
		if idx < 0 || idx >= rows {
			return fmt.Errorf("engine: gather row %d outside model of %d rows", idx, rows)
		}
		src := m.Prog.ModelSlot.Base + idx*in.RowLen
		copy(th[in.Dst.Base:in.Dst.Base+in.RowLen], th[src:src+in.RowLen])
		return nil
	case KScatter:
		idx := int(math.Round(float64(th[in.B.Base])))
		rows := m.Prog.ModelSlot.Len / in.RowLen
		if idx < 0 || idx >= rows {
			return fmt.Errorf("engine: scatter row %d outside model of %d rows", idx, rows)
		}
		dst := m.Prog.ModelSlot.Base + idx*in.RowLen
		copy(th[dst:dst+in.RowLen], th[in.A.Base:in.A.Base+in.RowLen])
		return nil
	default:
		return fmt.Errorf("engine: invalid instruction kind %d", in.Kind)
	}
}

// execList executes an instruction list on thread t without touching
// any shared counters (safe from batch helper goroutines).
func (m *Machine) execList(t int, list []Instr) error {
	for i := range list {
		if err := m.exec(t, &list[i]); err != nil {
			return err
		}
	}
	return nil
}

// runList executes an instruction list on thread t and counts its
// instructions. The list's total cycle cost is static (the Machine's
// cyc* fields); on error the caller abandons the run, so no partial
// cycles are charged.
func (m *Machine) runList(t int, list []Instr) error {
	if err := m.execList(t, list); err != nil {
		return err
	}
	m.stats.Instructions += int64(len(list))
	return nil
}

// loadTuple writes tuple values into thread t's input region (the cycle
// cost is the static m.cycLoad).
//
//dana:hotpath
func (m *Machine) loadTuple(t int, tuple []float32) error {
	s := m.Prog.InputSlot
	if len(tuple) != s.Len {
		return fmt.Errorf("engine: tuple width %d, input region %d", len(tuple), s.Len)
	}
	copy(m.scratch[t][s.Base:s.Base+s.Len], tuple)
	return nil
}

// RunBatch executes one merge batch. Without a merge function the batch
// runs tuple-at-a-time SGD on thread 0; with one, tuples are dealt
// round-robin over the threads, per-thread merge values accumulate
// locally, and the tree bus combines them before the post-merge update.
//
//dana:hotpath
func (m *Machine) RunBatch(tuples [][]float32) error {
	p := m.Prog
	if len(tuples) == 0 {
		return nil
	}
	m.stats.Batches++
	m.stats.Tuples += int64(len(tuples))
	if int64(len(tuples)) != m.runSize {
		m.obsBatchHist.ObserveN(m.runSize, m.runLen)
		m.runSize, m.runLen = int64(len(tuples)), 0
	}
	m.runLen++

	if !p.HasMerge() {
		var loadTot, compTot int64
		for _, tup := range tuples {
			if err := m.loadTuple(0, tup); err != nil {
				return err
			}
			loadTot += m.cycLoad
			if err := m.runList(0, p.PerTuple); err != nil {
				return err
			}
			if err := m.runList(0, p.RowUpdates); err != nil {
				return err
			}
			compTot += m.cycPerTuple + m.cycRowUpdates
			if p.UpdatedSlot.Len > 0 {
				copy(m.scratch[0][p.ModelSlot.Base:p.ModelSlot.Base+p.ModelSlot.Len],
					m.scratch[0][p.UpdatedSlot.Base:p.UpdatedSlot.Base+p.UpdatedSlot.Len])
				compTot += m.cycWriteBack
			}
		}
		m.stats.LoadCycles += loadTot
		m.stats.ComputeCycles += compTot
		m.stats.Cycles += loadTot + compTot
		// Single-thread batch: the span is the work itself.
		m.stats.SpanLoadCycles += loadTot
		m.stats.SpanComputeCycles += compTot
		return nil
	}

	k := m.Cfg.Threads
	if k > len(tuples) {
		k = len(tuples)
	}
	if cap(m.mergeAccs) < k {
		//danalint:ignore hotalloc -- capacity-guarded first-batch growth, reused afterwards
		m.mergeAccs = make([][]float32, k)
	}
	if cap(m.threadCyc) < k {
		//danalint:ignore hotalloc -- capacity-guarded first-batch growth, reused afterwards
		m.threadCyc = make([]int64, k)
	}
	accs := m.mergeAccs[:k]
	threadCycles := m.threadCyc[:k]
	for t := 0; t < k; t++ {
		accs[t] = accs[t][:0] // empty = no tuple seen this batch
		threadCycles[t] = 0
	}
	// Run the k independent model threads, fanned across host workers
	// when configured. Every thread sees its tuples (i ≡ t mod k) in
	// increasing order and the shared counters below are static sums, so
	// the partitioning is invisible to results and modeled cycles.
	n := len(tuples)
	W := m.hostWorkers // already clamped to GOMAXPROCS by SetHostWorkers
	if W > k {
		W = k
	}
	if int64(n)*m.cycPerTuple < fanOutFloorCycles {
		W = 1
	}
	if W <= 1 {
		var perr error
		m.runPartition(tuples, k, 0, 1, &perr)
		if perr != nil {
			return perr
		}
	} else {
		//danalint:ignore hotcall -- one-time lazy helper spawn; channels and goroutines are reused for the machine's lifetime
		m.ensureHelpers(W)
		if cap(m.partErrs) < W {
			//danalint:ignore hotalloc -- capacity-guarded first-batch growth, reused afterwards
			m.partErrs = make([]error, W)
		}
		errs := m.partErrs[:W]
		for w := range errs {
			errs[w] = nil
		}
		for w := 1; w < W; w++ {
			m.helperCh[w-1] <- batchJob{tuples: tuples, k: k, w: w, W: W, errs: errs}
		}
		m.runPartition(tuples, k, 0, W, &errs[0])
		for w := 1; w < W; w++ {
			<-m.helperDone
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
	}
	// Each of the k threads saw at least one tuple (k <= n), so n-k
	// tuples paid the thread-local accumulate.
	m.stats.Instructions += int64(n) * int64(len(p.PerTuple))
	m.stats.LoadCycles += int64(n) * m.cycLoad
	m.stats.ComputeCycles += int64(n)*m.cycPerTuple + int64(n-k)*m.cycLocalAcc
	// Threads run in parallel: the batch takes as long as the slowest.
	var maxT, sumT int64
	for _, c := range threadCycles {
		sumT += c
		if c > maxT {
			maxT = c
		}
	}
	m.stats.Cycles += maxT
	// Span decomposition: per-thread cycles grow monotonically with the
	// thread's tuple count, so the slowest thread is one with
	// ceil(n/k) tuples — its load share is exact, the rest of the span
	// is compute (per-tuple programs + thread-local accumulates). Idle
	// is the capacity the other thread-slots wasted waiting for it.
	tmax := int64((n + k - 1) / k)
	spanLoad := tmax * m.cycLoad
	m.stats.SpanLoadCycles += spanLoad
	m.stats.SpanComputeCycles += maxT - spanLoad
	m.stats.IdleCycles += int64(k)*maxT - sumT

	// Tree-bus merge: log2(k) stages over an 8-ALU bus.
	merged := accs[0]
	for t := 1; t < k; t++ {
		if p.MergeOp == AAdd {
			src := accs[t]
			for j := range merged {
				merged[j] = merged[j] + src[j]
			}
		} else {
			for j := range merged {
				merged[j] = alu(p.MergeOp, merged[j], accs[t][j])
			}
		}
	}
	mc := int64(ceilDiv(p.MergeSrc.Len, 8) * max(1, log2Ceil(k)))
	if k == 1 {
		mc = 0
	}
	m.stats.MergeCycles += mc
	m.stats.Cycles += mc
	copy(m.scratch[0][p.MergeDst.Base:p.MergeDst.Base+p.MergeDst.Len], merged)

	// Post-merge stage on thread 0.
	if err := m.runList(0, p.PostMerge); err != nil {
		return err
	}
	if err := m.runList(0, p.RowUpdates); err != nil {
		return err
	}
	m.stats.ComputeCycles += m.cycPostMerge + m.cycRowUpdates
	m.stats.Cycles += m.cycPostMerge + m.cycRowUpdates
	m.stats.SpanComputeCycles += m.cycPostMerge + m.cycRowUpdates

	// Model update + broadcast to every thread over the bus.
	if p.UpdatedSlot.Len > 0 {
		newModel := m.scratch[0][p.UpdatedSlot.Base : p.UpdatedSlot.Base+p.UpdatedSlot.Len]
		m.bcast = append(m.bcast[:0], newModel...)
		for t := 0; t < m.Cfg.Threads; t++ {
			copy(m.scratch[t][p.ModelSlot.Base:p.ModelSlot.Base+p.ModelSlot.Len], m.bcast)
		}
		bc := int64(ceilDiv(p.ModelSlot.Len, 8))
		m.stats.MergeCycles += bc
		m.stats.Cycles += bc
	} else if len(p.RowUpdates) > 0 && m.Cfg.Threads > 1 {
		// Row updates landed on thread 0's model copy; sync the rest.
		src := m.scratch[0][p.ModelSlot.Base : p.ModelSlot.Base+p.ModelSlot.Len]
		for t := 1; t < m.Cfg.Threads; t++ {
			copy(m.scratch[t][p.ModelSlot.Base:p.ModelSlot.Base+p.ModelSlot.Len], src)
		}
		bc := int64(ceilDiv(p.ModelSlot.Len, 8))
		m.stats.MergeCycles += bc
		m.stats.Cycles += bc
	}
	return nil
}

// EpochStream feeds one epoch's tuples to the machine incrementally, in
// merge-coefficient batches, without requiring the whole epoch to be
// materialized first. It forms exactly the batches RunEpoch would form
// on the concatenated tuple sequence, so cycle counts and the trained
// model are bit-identical whether tuples arrive all at once or page by
// page while later pages are still being extracted (§5.1.1 overlap).
type EpochStream struct {
	m         *Machine
	batchSize int
	buf       [][]float32
	arena     []float32 // value storage for buffered tuples
}

// StreamEpoch starts an epoch fed incrementally via Feed/Finish.
func (m *Machine) StreamEpoch(batchSize int) *EpochStream {
	if batchSize < 1 {
		batchSize = 1
	}
	return &EpochStream{m: m, batchSize: batchSize}
}

// Reset re-arms the stream for a new epoch, keeping its buffers — the
// merge path's cross-epoch buffer reuse (a stream abandoned mid-epoch
// by a failed run is safe to reuse after Reset).
func (s *EpochStream) Reset() {
	s.buf = s.buf[:0]
	s.arena = s.arena[:0]
}

// Feed appends tuples to the epoch, running every batch that fills. Any
// tuples Feed must buffer are copied by value, so the caller may reuse
// the tuples' backing storage as soon as Feed returns. Full batches run
// directly on the caller's row views (zero-copy); only a partial tail
// is value-copied into the stream's own arena.
//
//dana:hotpath
func (s *EpochStream) Feed(tuples [][]float32) error {
	for len(tuples) > 0 {
		// Fast path: no partial batch pending, run directly from the input.
		if len(s.buf) == 0 && len(tuples) >= s.batchSize {
			if err := s.m.RunBatch(tuples[:s.batchSize]); err != nil {
				return err
			}
			tuples = tuples[s.batchSize:]
			continue
		}
		n := s.batchSize - len(s.buf)
		if n > len(tuples) {
			n = len(tuples)
		}
		for _, tup := range tuples[:n] {
			start := len(s.arena)
			if cap(s.arena)-start < len(tup) {
				// Fresh block; rows already buffered keep referencing (and
				// keep alive) the block they were copied into.
				blk := s.batchSize * len(tup)
				if blk < 1024 {
					blk = 1024
				}
				//danalint:ignore hotalloc -- capacity-guarded arena growth, reused across batches
				s.arena = make([]float32, 0, blk)
				start = 0
			}
			s.arena = append(s.arena, tup...)
			s.buf = append(s.buf, s.arena[start:len(s.arena):len(s.arena)])
		}
		tuples = tuples[n:]
		if len(s.buf) == s.batchSize {
			if err := s.m.RunBatch(s.buf); err != nil {
				return err
			}
			s.buf = s.buf[:0]
			s.arena = s.arena[:0]
		}
	}
	return nil
}

// Finish runs the trailing partial batch, ending the epoch.
func (s *EpochStream) Finish() error {
	if len(s.buf) == 0 {
		return nil
	}
	err := s.m.RunBatch(s.buf)
	s.buf = s.buf[:0]
	s.arena = s.arena[:0]
	return err
}

// RunEpoch processes the tuples in merge-coefficient batches.
func (m *Machine) RunEpoch(tuples [][]float32, batchSize int) error {
	s := m.StreamEpoch(batchSize)
	if err := s.Feed(tuples); err != nil {
		return err
	}
	return s.Finish()
}

// Converged evaluates the convergence program (thread 0).
func (m *Machine) Converged() (bool, error) {
	p := m.Prog
	if p.ConvSlot.Len == 0 {
		return false, nil
	}
	if err := m.runList(0, p.Convergence); err != nil {
		return false, err
	}
	m.stats.ComputeCycles += m.cycConvergence
	m.stats.Cycles += m.cycConvergence
	m.stats.SpanComputeCycles += m.cycConvergence
	m.PublishObs()
	return m.scratch[0][p.ConvSlot.Base] > 0.5, nil
}

// Train runs up to maxEpochs epochs (0 = the program's own budget is
// managed by the caller), checking convergence after each.
func (m *Machine) Train(tuples [][]float32, batchSize, maxEpochs int) (int, error) {
	if maxEpochs < 1 {
		maxEpochs = 1
	}
	for e := 1; e <= maxEpochs; e++ {
		if err := m.RunEpoch(tuples, batchSize); err != nil {
			return e - 1, err
		}
		done, err := m.Converged()
		if err != nil {
			return e, err
		}
		if done {
			return e, nil
		}
	}
	return maxEpochs, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
