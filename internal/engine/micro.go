package engine

import (
	"fmt"
	"strings"
)

// instrCycles returns the static cycle cost of a macro instruction under
// the configuration; Estimate sums it over each stage's list.
func instrCycles(in Instr, cfg Config) int {
	lanes := cfg.Lanes()
	switch in.Kind {
	case KEW:
		return ceilDiv(in.Dst.Len, lanes) + in.Op.Latency() - 1
	case KReduce:
		return ceilDiv(in.Dst.Len*in.GroupSize, lanes) + 3 + (cfg.ACsPerThread - 1)
	case KGather, KScatter:
		return ceilDiv(in.RowLen, lanes) + 1
	default:
		return 1
	}
}

func listCycles(list []Instr, cfg Config) int64 {
	var c int64
	for _, in := range list {
		c += int64(instrCycles(in, cfg))
	}
	return c
}

// CycleEstimate is the engine's one cycle model of a program under a
// configuration: the static cost of each stage, and the closed forms
// (chargeSerial, chargeMerge, chargeConvergence) that charge a run of
// them to a Stats ledger. A Machine charges every batch and convergence
// check through those methods and BatchCycles and EpochCycles sum the
// same ones, so a static estimate is what its run charges (the property
// §6.1 relies on: "there are no dynamic irregularities that hinder
// estimation").
type CycleEstimate struct {
	Load        int64 // input FIFO -> scratchpad distribution of one tuple, 8 values a cycle
	PerTuple    int64 // one tuple's program on its thread after its load (serial: with row updates and write-back)
	LocalAcc    int64 // folding one more tuple into the thread-local merge value
	MergeStage  int64 // one tree-bus merge stage; zero without a merge, when a batch runs serially on thread 0
	PostMerge   int64 // post-merge stage and row updates, once per merge batch
	Broadcast   int64 // model write-back over the bus, once per merge batch
	Convergence int64 // the convergence check, once per epoch

	// Macro instructions a tuple, a merge batch and a convergence check
	// run: what Stats.Instructions counts, however few ops the plan runs.
	TupleInstrs, BatchInstrs, ConvInstrs int64
}

// chargeSerial charges n tuples of tuple-at-a-time SGD on thread 0, in
// any number of batches: the span is the work itself.
func (e CycleEstimate) chargeSerial(s *Stats, n int) {
	load, comp := int64(n)*e.Load, int64(n)*e.PerTuple
	s.Instructions += int64(n) * e.TupleInstrs
	s.LoadCycles += load
	s.ComputeCycles += comp
	s.Cycles += load + comp
	s.SpanLoadCycles += load
	s.SpanComputeCycles += comp
}

// chargeMerge charges one merge batch of n tuples on k live threads.
// Thread t runs ceil((n-t)/k) tuples, each costing the load plus the
// per-tuple program, and every tuple after a thread's first costs the
// thread-local accumulate; threads run in parallel, so the batch takes as
// long as thread 0, which has the most. The tree bus then merges the k
// threads' values in log2(k) stages, and the post-merge stage and the
// model broadcast follow.
func (e CycleEstimate) chargeMerge(s *Stats, n, k int) {
	per := e.Load + e.PerTuple
	tmax := int64(ceilDiv(n, k))
	maxT := tmax*per + (tmax-1)*e.LocalAcc
	sumT := int64(n)*per + int64(n-k)*e.LocalAcc

	s.Instructions += int64(n)*e.TupleInstrs + e.BatchInstrs
	s.LoadCycles += int64(n) * e.Load
	s.ComputeCycles += int64(n)*e.PerTuple + int64(n-k)*e.LocalAcc + e.PostMerge
	// Span decomposition: the slowest thread's load share is exact, the
	// rest of its span is compute (per-tuple programs + thread-local
	// accumulates). Idle is the capacity the other thread-slots wasted
	// waiting for it.
	spanLoad := tmax * e.Load
	s.SpanLoadCycles += spanLoad
	s.SpanComputeCycles += maxT - spanLoad + e.PostMerge
	s.IdleCycles += int64(k)*maxT - sumT

	merge := e.Broadcast
	if k > 1 {
		merge += e.MergeStage * int64(log2Ceil(k))
	}
	s.MergeCycles += merge
	s.Cycles += maxT + merge + e.PostMerge
}

// chargeConvergence charges one convergence check on thread 0.
func (e CycleEstimate) chargeConvergence(s *Stats) {
	s.Instructions += e.ConvInstrs
	s.ComputeCycles += e.Convergence
	s.Cycles += e.Convergence
	s.SpanComputeCycles += e.Convergence
}

// BatchCycles returns the modeled cycles of one batch of n tuples on a
// design of threads threads: a merge batch runs on min(threads, n) live
// threads, a merge-free one serially on thread 0.
func (e CycleEstimate) BatchCycles(n, threads int) int64 {
	var s Stats
	switch {
	case n <= 0:
	case e.MergeStage == 0:
		e.chargeSerial(&s, n)
	default:
		e.chargeMerge(&s, n, min(max(threads, 1), n))
	}
	return s.Cycles
}

// EpochCycles returns the modeled cycles of one epoch over n tuples in
// batches of batch, convergence check included.
func (e CycleEstimate) EpochCycles(n, batch, threads int) int64 {
	batch = max(batch, 1)
	return int64(n/batch)*e.BatchCycles(batch, threads) + e.BatchCycles(n%batch, threads) + e.Convergence
}

// Estimate computes the static cycle model of a program under cfg.
func (p *Program) Estimate(cfg Config) CycleEstimate {
	e := CycleEstimate{
		Load:        int64(ceilDiv(p.InputSlot.Len, 8)),
		PerTuple:    listCycles(p.PerTuple, cfg),
		Convergence: listCycles(p.Convergence, cfg),
		TupleInstrs: int64(len(p.PerTuple)),
		ConvInstrs:  int64(len(p.Convergence)),
	}
	rows, rowInstrs := listCycles(p.RowUpdates, cfg), int64(len(p.RowUpdates))
	if !p.HasMerge() {
		// Tuple-at-a-time SGD: the row updates and the model write-back
		// run after every tuple.
		e.PerTuple += rows
		e.TupleInstrs += rowInstrs
		if p.UpdatedSlot.Len > 0 {
			e.PerTuple += int64(ceilDiv(p.ModelSlot.Len, cfg.Lanes()))
		}
		return e
	}
	e.LocalAcc = int64(ceilDiv(p.MergeSrc.Len, cfg.Lanes()))
	e.MergeStage = int64(ceilDiv(p.MergeSrc.Len, 8))
	e.PostMerge = listCycles(p.PostMerge, cfg) + rows
	e.BatchInstrs = int64(len(p.PostMerge)) + rowInstrs
	// The updated model, or (row updates landed on thread 0's copy) the
	// sync of the other threads' copies, goes over the bus.
	if p.UpdatedSlot.Len > 0 || (len(p.RowUpdates) > 0 && cfg.Threads > 1) {
		e.Broadcast = int64(ceilDiv(p.ModelSlot.Len, 8))
	}
	return e
}

// MicroStats summarizes the selective-SIMD micro-instruction expansion
// of a program: how many AC-level instructions each AC's instruction
// buffer holds per stage.
type MicroStats struct {
	PerTupleMicroOps  int
	PostMergeMicroOps int
	ConvMicroOps      int
}

// microOps returns AC-level instruction count for one macro instruction:
// one micro-op per wave per AC touched.
func microOps(in Instr, cfg Config) int {
	lanes := cfg.Lanes()
	switch in.Kind {
	case KEW:
		waves := ceilDiv(in.Dst.Len, lanes)
		acs := ceilDiv(min(in.Dst.Len, lanes), cfg.AUsPerAC)
		return waves * acs
	case KReduce:
		waves := ceilDiv(in.Dst.Len*in.GroupSize, lanes)
		acs := ceilDiv(min(in.Dst.Len*in.GroupSize, lanes), cfg.AUsPerAC)
		// + 3 tree hops + bus combine steps
		return waves*acs + 3 + (cfg.ACsPerThread - 1)
	case KGather, KScatter:
		return ceilDiv(in.RowLen, lanes) + 1
	default:
		return 1
	}
}

// Expand computes the micro-instruction statistics for the program.
func Expand(p *Program, cfg Config) MicroStats {
	var ms MicroStats
	for _, in := range p.PerTuple {
		ms.PerTupleMicroOps += microOps(in, cfg)
	}
	for _, in := range p.RowUpdates {
		ms.PerTupleMicroOps += microOps(in, cfg)
	}
	for _, in := range p.PostMerge {
		ms.PostMergeMicroOps += microOps(in, cfg)
	}
	for _, in := range p.Convergence {
		ms.ConvMicroOps += microOps(in, cfg)
	}
	return ms
}

// Listing renders the compiled program as text (for danactl and tests).
func Listing(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slots=%d model=%v input=%v const=%v\n", p.Slots, p.ModelSlot, p.InputSlot, p.ConstSlot)
	dump := func(name string, list []Instr) {
		if len(list) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s:\n", name)
		for i, in := range list {
			fmt.Fprintf(&b, "  %3d: %s\n", i, in)
		}
	}
	dump("per-tuple", p.PerTuple)
	if p.HasMerge() {
		fmt.Fprintf(&b, "merge: %s over %v -> %v\n", p.MergeOp, p.MergeSrc, p.MergeDst)
	}
	dump("post-merge", p.PostMerge)
	dump("row-updates", p.RowUpdates)
	dump("convergence", p.Convergence)
	if p.UpdatedSlot.Len > 0 {
		fmt.Fprintf(&b, "updated-model: %v\n", p.UpdatedSlot)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
