package engine

import (
	"fmt"
	"math"
)

// The reference executor: the macro-instruction interpreter the plan
// (plan.go) replaced on the production path, kept as its oracle. It
// re-decodes every instruction for every tuple, copies each tuple into
// the thread's input region, keeps one merge accumulator per thread,
// merges them in a loop, really broadcasts the model, and counts cycles
// thread by thread as it goes — none of which the plan does — so that
// equal model bits and equal Stats after every batch say the plan's
// fusions and closed forms changed nothing. It is a test file, so no
// binary links it: engine's own tests call it, and package engine_test
// holds the plan to it over Oracle C's generated programs.
//
// A Machine is driven by one executor for its lifetime: the plan leaves
// elided temporaries and the other threads' model copies stale, which
// the reference would read. Nor does NewMachine lay out a scratchpad and
// an accumulator per model thread any more; the reference builds its own
// on its first merge batch (referenceLayout), so production never does.

// exec runs one macro instruction on thread t, decoding it as it goes.
func (m *Machine) exec(t int, in *Instr) error {
	th := m.thread(t)
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

// execList executes an instruction list on thread t and counts its
// macro instructions.
func (m *Machine) execList(t int, list []Instr) error {
	for i := range list {
		if err := m.exec(t, &list[i]); err != nil {
			return err
		}
	}
	m.stats.Instructions += int64(len(list))
	return nil
}

// loadTuple writes tuple values into thread t's input region.
func (m *Machine) loadTuple(t int, tuple []float32) error {
	s := m.Prog.InputSlot
	if len(tuple) != s.Len {
		return m.errTupleWidth(tuple)
	}
	copy(m.thread(t)[s.Base:s.Base+s.Len], tuple)
	return nil
}

// referenceLayout gives every model thread its own scratchpad — a copy of
// pad 0, which before the first batch is what NewMachine and SetModel
// would have put there — and its own merge accumulator.
func (m *Machine) referenceLayout() {
	if m.pads < m.Cfg.Threads {
		m.growPads(m.Cfg.Threads)
	}
	m.accPerThread()
}

// accPerThread replaces the plan's accumulators with one per model
// thread. They hold nothing between batches, so nothing is copied.
func (m *Machine) accPerThread() {
	if n := m.Cfg.Threads * m.Prog.MergeSrc.Len; len(m.accs) < n {
		m.accs = make([]float32, n)
	}
}

// growPads extends the scratchpad slab to n pads, each new one a copy of
// pad 0: the constants and the model.
func (m *Machine) growPads(n int) {
	old := m.scratch
	m.scratch = make([]float32, n*m.Prog.Slots)
	copy(m.scratch, old)
	for i := m.pads; i < n; i++ {
		copy(m.thread(i), m.thread(0))
	}
	m.pads = n
}

// RunBatchReference is RunBatch on the reference executor. A batch that
// fails is counted and not charged: the ledger drops whatever its tuples
// charged before the failing one.
func (m *Machine) RunBatchReference(tuples [][]float32) error {
	if len(tuples) == 0 {
		return nil
	}
	m.stats.Batches++
	m.stats.Tuples += int64(len(tuples))
	counted := m.stats
	err := m.runBatchReference(tuples)
	if err != nil {
		m.stats = counted
	}
	return err
}

// runBatchReference runs and charges one counted batch.
func (m *Machine) runBatchReference(tuples [][]float32) error {
	p := m.Prog
	th0 := m.thread(0)
	mdl, upd := p.ModelSlot, p.UpdatedSlot

	if !p.HasMerge() {
		var loadTot, compTot int64
		for _, tup := range tuples {
			if err := m.loadTuple(0, tup); err != nil {
				return err
			}
			loadTot += m.est.Load
			if err := m.execList(0, p.PerTuple); err != nil {
				return err
			}
			if err := m.execList(0, p.RowUpdates); err != nil {
				return err
			}
			// PerTuple includes the row updates and the write-back.
			compTot += m.est.PerTuple
			if upd.Len > 0 {
				copy(th0[mdl.Base:mdl.Base+mdl.Len], th0[upd.Base:upd.Base+upd.Len])
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

	m.referenceLayout()
	th0 = m.thread(0)
	n := len(tuples)
	k := m.Cfg.Threads
	if k > n {
		k = n
	}
	threadCycles := make([]int64, k)
	src := p.MergeSrc
	for t := 0; t < k; t++ {
		th, acc := m.thread(t), m.acc(t)
		for i := t; i < n; i += k {
			if err := m.loadTuple(t, tuples[i]); err != nil {
				return err
			}
			if err := m.execList(t, p.PerTuple); err != nil {
				return err
			}
			threadCycles[t] += m.est.Load + m.est.PerTuple
			if i == t {
				copy(acc, th[src.Base:src.Base+src.Len])
				continue
			}
			for j := range acc {
				acc[j] = alu(p.MergeOp, acc[j], th[src.Base+j])
			}
			threadCycles[t] += m.est.LocalAcc
		}
	}
	// Each of the k threads saw at least one tuple (k <= n), so n-k
	// tuples paid the thread-local accumulate.
	m.stats.LoadCycles += int64(n) * m.est.Load
	m.stats.ComputeCycles += int64(n)*m.est.PerTuple + int64(n-k)*m.est.LocalAcc
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
	// is compute. Idle is the capacity the other thread-slots wasted.
	spanLoad := int64((n+k-1)/k) * m.est.Load
	m.stats.SpanLoadCycles += spanLoad
	m.stats.SpanComputeCycles += maxT - spanLoad
	m.stats.IdleCycles += int64(k)*maxT - sumT

	// Tree-bus merge: log2(k) stages over an 8-ALU bus.
	merged := m.acc(0)
	for t := 1; t < k; t++ {
		for j, v := range m.acc(t) {
			merged[j] = alu(p.MergeOp, merged[j], v)
		}
	}
	mc := int64(ceilDiv(src.Len, 8) * max(1, log2Ceil(k)))
	if k == 1 {
		mc = 0
	}
	m.stats.MergeCycles += mc
	m.stats.Cycles += mc
	copy(th0[p.MergeDst.Base:p.MergeDst.Base+p.MergeDst.Len], merged)

	// Post-merge stage on thread 0.
	if err := m.execList(0, p.PostMerge); err != nil {
		return err
	}
	if err := m.execList(0, p.RowUpdates); err != nil {
		return err
	}
	m.stats.ComputeCycles += m.est.PostMerge
	m.stats.Cycles += m.est.PostMerge
	m.stats.SpanComputeCycles += m.est.PostMerge

	// Model update + broadcast to every thread over the bus.
	if upd.Len > 0 {
		bcast := append([]float32(nil), th0[upd.Base:upd.Base+upd.Len]...)
		for t := 0; t < m.Cfg.Threads; t++ {
			copy(m.thread(t)[mdl.Base:mdl.Base+mdl.Len], bcast)
		}
	} else if len(p.RowUpdates) > 0 && m.Cfg.Threads > 1 {
		// Row updates landed on thread 0's model copy; sync the rest.
		for t := 1; t < m.Cfg.Threads; t++ {
			copy(m.thread(t)[mdl.Base:mdl.Base+mdl.Len], th0[mdl.Base:mdl.Base+mdl.Len])
		}
	} else {
		return nil
	}
	bc := int64(ceilDiv(mdl.Len, 8))
	m.stats.MergeCycles += bc
	m.stats.Cycles += bc
	return nil
}

// ConvergedReference is Converged on the reference executor.
func (m *Machine) ConvergedReference() (bool, error) {
	p := m.Prog
	if p.ConvSlot.Len == 0 {
		return false, nil
	}
	if err := m.execList(0, p.Convergence); err != nil {
		return false, err
	}
	m.stats.ComputeCycles += m.est.Convergence
	m.stats.Cycles += m.est.Convergence
	m.stats.SpanComputeCycles += m.est.Convergence
	return m.thread(0)[p.ConvSlot.Base] > 0.5, nil
}

// TrainReference trains on the reference executor: up to maxEpochs
// epochs of batches of batchSize, checking convergence after each.
func (m *Machine) TrainReference(tuples [][]float32, batchSize, maxEpochs int) (int, error) {
	if batchSize < 1 {
		batchSize = 1
	}
	if maxEpochs < 1 {
		maxEpochs = 1
	}
	for e := 1; e <= maxEpochs; e++ {
		for lo := 0; lo < len(tuples); lo += batchSize {
			hi := lo + batchSize
			if hi > len(tuples) {
				hi = len(tuples)
			}
			if err := m.RunBatchReference(tuples[lo:hi]); err != nil {
				return e - 1, err
			}
		}
		done, err := m.ConvergedReference()
		if err != nil {
			return e, err
		}
		if done {
			return e, nil
		}
	}
	return maxEpochs, nil
}
