// Package engine simulates DAnA's multi-threaded execution engine
// (paper §5.2): threads of Analytic Clusters (ACs), each a selective-SIMD
// collection of 8 Analytic Units (AUs) with neighbor links and a shared
// intra-AC bus, joined across threads by a computationally-enabled tree
// bus that realizes the merge function.
//
// The simulator is functional (it computes real float32 results) and
// cycle-accounted: every instruction charges the cycles the statically
// scheduled hardware would take at the configured clock. The paper's
// Appendix B ISA is not public, so the instruction encoding here is the
// DESIGN.md concretization: thread-scope macro-instructions over a
// canonical element layout, each expandable to per-AC selective-SIMD
// micro-ops (see Expand).
package engine

import "fmt"

// AluOp enumerates AU ALU operations.
type AluOp uint8

const (
	ANop AluOp = iota
	AMov
	AAdd
	ASub
	AMul
	ADiv
	ALt
	AGt
	ASigmoid
	AGaussian
	ASqrt
	ASquare // x*x, used by norm lowering
)

var aluNames = [...]string{"nop", "mov", "add", "sub", "mul", "div", "lt", "gt", "sigmoid", "gaussian", "sqrt", "square"}

func (o AluOp) String() string {
	if int(o) < len(aluNames) {
		return aluNames[o]
	}
	return fmt.Sprintf("alu(%d)", uint8(o))
}

// Latency returns the AU pipeline latency of the operation in cycles.
// Values follow typical FPGA DSP-slice implementations at 150 MHz.
func (o AluOp) Latency() int {
	switch o {
	case ANop, AMov, AAdd, ASub, ALt, AGt:
		return 1
	case AMul, ASquare:
		return 2
	case ADiv:
		return 8
	case ASqrt:
		return 4
	case ASigmoid, AGaussian:
		return 6
	default:
		return 1
	}
}

// IsUnary reports whether the op takes one source.
func (o AluOp) IsUnary() bool {
	switch o {
	case AMov, ASigmoid, AGaussian, ASqrt, ASquare:
		return true
	}
	return false
}

// Slot is a region of the thread-local scratchpad in the canonical
// layout: word w resides in AU (w mod 8) of AC ((w/8) mod ACsPerThread),
// local address w / (8*ACsPerThread). Contiguous slots therefore stripe
// perfectly across lanes.
type Slot struct {
	Base int
	Len  int
}

func (s Slot) String() string { return fmt.Sprintf("[%d+%d]", s.Base, s.Len) }

// Kind discriminates macro-instruction classes.
type Kind uint8

const (
	KEW      Kind = iota // elementwise: Dst[i] = ALU(A[i mod A.Len], B[i mod B.Len])
	KReduce              // grouped reduction with strides (sigma/pi and intra-norm)
	KGather              // Dst = model[rowIdx*RowLen : ...], rowIdx from scalar slot A
	KScatter             // model[rowIdx*RowLen : ...] = A, rowIdx from scalar slot B
)

// Instr is one thread-scope macro instruction.
type Instr struct {
	Kind Kind
	Op   AluOp // EW/Reduce combining op
	Dst  Slot
	A    Slot // src1 (EW), reduce input, gather index (scalar), scatter value
	B    Slot // src2 (EW), scatter index (scalar)

	// Reduce geometry: input element (g, e) of group g is at
	// A.Base + g*GStride + e*EStride, for Dst.Len groups of GroupSize.
	GroupSize int
	GStride   int
	EStride   int

	// Gather/scatter row length (model columns).
	RowLen int
}

func (in Instr) String() string {
	switch in.Kind {
	case KEW:
		return fmt.Sprintf("ew.%s %v <- %v, %v", in.Op, in.Dst, in.A, in.B)
	case KReduce:
		return fmt.Sprintf("red.%s %v <- %v (g=%d gs=%d es=%d)", in.Op, in.Dst, in.A, in.GroupSize, in.GStride, in.EStride)
	case KGather:
		return fmt.Sprintf("gather %v <- model[%v * %d]", in.Dst, in.A, in.RowLen)
	case KScatter:
		return fmt.Sprintf("scatter model[%v * %d] <- %v", in.B, in.RowLen, in.A)
	default:
		return fmt.Sprintf("instr(kind=%d)", in.Kind)
	}
}

// Program is a compiled accelerator binary: the per-tuple update rule,
// the merge combination, the post-merge model update, and the
// convergence check, all over one scratchpad slot space.
type Program struct {
	Slots     int // scratchpad words per thread
	ModelSlot Slot
	InputSlot Slot // tuple values (inputs then outputs, declaration order)
	ConstSlot Slot
	Consts    []float32 // initial contents of ConstSlot

	PerTuple  []Instr // executed for every training tuple
	MergeSrc  Slot    // per-thread value entering the tree bus (Len 0 = no merge)
	MergeOp   AluOp   // tree-bus combining ALU op
	MergeDst  Slot    // where the merged value lands (thread 0)
	PostMerge []Instr // executed once per batch on thread 0

	UpdatedSlot Slot    // new dense model after the update (Len 0 if none)
	RowUpdates  []Instr // KScatter row updates (per-tuple stage)
	Convergence []Instr // executed once per epoch on thread 0
	ConvSlot    Slot    // scalar: >0.5 means converged (Len 0 if none)
}

// HasMerge reports whether the program uses the tree-bus merge.
func (p *Program) HasMerge() bool { return p.MergeSrc.Len > 0 }

// Validate checks slot bounds of every instruction.
func (p *Program) Validate() error {
	check := func(s Slot, what string) error {
		if s.Len == 0 {
			return nil
		}
		if s.Base < 0 || s.Len < 0 || s.Base+s.Len > p.Slots {
			return fmt.Errorf("engine: %s slot %v outside scratchpad of %d words", what, s, p.Slots)
		}
		return nil
	}
	for _, s := range []struct {
		s Slot
		n string
	}{{p.ModelSlot, "model"}, {p.InputSlot, "input"}, {p.ConstSlot, "const"},
		{p.MergeSrc, "mergeSrc"}, {p.MergeDst, "mergeDst"},
		{p.UpdatedSlot, "updated"}, {p.ConvSlot, "conv"}} {
		if err := check(s.s, s.n); err != nil {
			return err
		}
	}
	for _, list := range [][]Instr{p.PerTuple, p.PostMerge, p.RowUpdates, p.Convergence} {
		for _, in := range list {
			if err := check(in.Dst, "dst"); err != nil {
				return err
			}
			if err := check(in.A, "src1"); err != nil {
				return err
			}
			if err := check(in.B, "src2"); err != nil {
				return err
			}
			if in.Kind == KReduce {
				if in.GroupSize < 1 || in.Dst.Len < 1 {
					return fmt.Errorf("engine: reduce with %d groups of %d", in.Dst.Len, in.GroupSize)
				}
				if in.GStride < 0 || in.EStride < 0 {
					return fmt.Errorf("engine: reduce with negative stride (g=%d e=%d)", in.GStride, in.EStride)
				}
				last := in.A.Base + (in.Dst.Len-1)*in.GStride + (in.GroupSize-1)*in.EStride
				if last >= p.Slots || last < 0 {
					return fmt.Errorf("engine: reduce reads word %d outside scratchpad", last)
				}
			}
			if in.Kind == KGather || in.Kind == KScatter {
				// The row moves RowLen words whatever Dst/A declare, and
				// the index is one word read at its slot's base.
				row, idx := in.Dst, in.A
				if in.Kind == KScatter {
					row, idx = in.A, in.B
				}
				if in.RowLen < 1 || idx.Len < 1 {
					return fmt.Errorf("engine: %v needs a row length and an index word", in)
				}
				if err := check(Slot{row.Base, in.RowLen}, "row"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Config fixes the hardware instantiation of the template architecture.
type Config struct {
	Threads      int // parallel update-rule threads
	ACsPerThread int // analytic clusters per thread
	AUsPerAC     int // fixed to 8 in the paper for timing closure
}

// DefaultAUsPerAC mirrors the paper's fixed 8 AUs per AC.
const DefaultAUsPerAC = 8

// Lanes returns parallel scalar lanes per thread.
func (c Config) Lanes() int { return c.ACsPerThread * c.AUsPerAC }

// TotalAUs returns compute units across all threads.
func (c Config) TotalAUs() int { return c.Threads * c.Lanes() }

func (c Config) validate() error {
	if c.Threads < 1 || c.ACsPerThread < 1 || c.AUsPerAC < 1 {
		return fmt.Errorf("engine: invalid config %+v", c)
	}
	return nil
}
