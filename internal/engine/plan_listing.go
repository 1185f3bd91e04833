package engine

import (
	"fmt"
	"strings"
)

var opKindNames = [numOpKinds]string{
	opFail: "fail", opScalar: "scalar", opEW1: "ew1", opEWvv: "ew.vv", opEWvs: "ew.vs", opEWsv: "ew.sv",
	opEWwrap: "ew.wrap", opReduce: "reduce", opDot: "dot", opGather: "gather", opGatherView: "gather.view",
	opScatter: "scatter", opScatterPaired: "scatter.paired", opAccMulSV: "acc.mul.sv", opAccVV: "acc.vv", opStep: "step",
	opRowSGD: "row.sgd",
}

func (o operand) String() string {
	mem := [...]string{spThread: "thread", spRow: "row", spModel: "model"}
	if o.sp >= spView {
		return fmt.Sprintf("view%d[%d+%d]", o.sp-spView, o.off, o.n)
	}
	return fmt.Sprintf("%s[%d+%d]", mem[o.sp], o.off, o.n)
}

// listing renders o as it runs on lanes host lanes: a kind with a lane
// kernel takes it when a lane group is full, marked after the kind and
// its ALU op.
func (o *op) listing(lanes int) string {
	name := opKindNames[o.kind]
	switch o.kind {
	case opScalar, opEW1, opEWvv, opEWvs, opEWsv, opEWwrap, opReduce, opAccVV:
		name += "." + o.alu.String()
	}
	if lanes == dotLanes && laneKernels[o.kind] != nil {
		name += fmt.Sprintf(" ×%d", lanes)
	}
	dst := operand{spThread, o.dst, o.n}
	switch o.kind {
	case opFail:
		return fmt.Sprintf("%s (%v)", name, *o.src)
	case opReduce:
		return fmt.Sprintf("%s %v <- %v (g=%d gs=%d es=%d)", name, dst, o.a, o.group, o.gstride, o.estride)
	case opDot:
		return fmt.Sprintf("%s %v <- %v, %v", name, dst, o.a, o.b)
	case opGather:
		s := fmt.Sprintf("%s %v <- %v at round(%v)", name, operand{spThread, o.dst, o.rowLen}, o.b, o.a)
		if o.reg >= 0 {
			s += fmt.Sprintf(" -> r%d", o.reg)
		}
		return s
	case opGatherView:
		return fmt.Sprintf("%s view%d <- %v at round(%v) -> r%d", name, o.reg, o.b, o.a, o.reg)
	case opScatter:
		return fmt.Sprintf("%s %v at round(%v) <- %v", name, operand{spThread, o.dst, o.rows * o.rowLen}, o.b, o.a)
	case opScatterPaired:
		return fmt.Sprintf("%s %v at r%d <- %v", name, operand{spThread, o.dst, o.rows * o.rowLen}, o.reg, o.a)
	case opAccMulSV, opAccVV:
		return fmt.Sprintf("%s merge-acc <- %v, %v", name, o.a, o.b)
	case opStep:
		return fmt.Sprintf("%s %v <- %v - %v * (%v * %v)", name, dst, o.a, o.s1, o.s2, o.b)
	case opRowSGD: // the ops it inlines follow, indented under it
		s := fmt.Sprintf("%s: the %d ops below, inlined", name, len(o.parts))
		for i := range o.parts {
			s += "\n         " + o.parts[i].listing(1)
		}
		return s
	}
	if o.alu.IsUnary() {
		return fmt.Sprintf("%s %v <- %v", name, dst, o.a)
	}
	return fmt.Sprintf("%s %v <- %v, %v", name, dst, o.a, o.b)
}

// PlanListing renders the plan p lowers to under cfg, one line per op
// with its kind and the memory each operand resolved to, after the
// macro listing it stands for (Listing).
func PlanListing(p *Program, cfg Config) (string, error) {
	if err := cfg.validate(); err != nil {
		return "", err
	}
	if err := p.Validate(); err != nil {
		return "", err
	}
	pl := lower(p, cfg)
	var b strings.Builder
	lanes := 1 // tuples the per-tuple stage keeps in flight (a lane group)
	if p.HasMerge() {
		lanes = min(dotLanes, cfg.Threads)
	}
	fmt.Fprintf(&b, "copy-input=%v share-model=%v fused-accumulate=%v lanes=%d pads=%d\n", pl.copyInput, pl.shareModel, pl.fusedAcc, lanes, pl.pads(p, cfg))
	ops := 0
	for _, l := range []struct {
		name  string
		ops   []op
		lanes int // the once-a-batch stages run on thread 0
	}{{"per-tuple", pl.perTuple, lanes}, {"post-merge", pl.postMerge, 1}, {"row-updates", pl.rowUpdates, 1}, {"convergence", pl.convergence, 1}} {
		if len(l.ops) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", l.name)
		for i := range l.ops {
			fmt.Fprintf(&b, "  %3d: %s\n", i, l.ops[i].listing(l.lanes))
		}
		ops += len(l.ops)
	}
	plural := "s"
	if ops == 1 {
		plural = ""
	}
	fmt.Fprintf(&b, "%d op%s for %d instructions\n", ops, plural, len(p.PerTuple)+len(p.PostMerge)+len(p.RowUpdates)+len(p.Convergence))
	return b.String(), nil
}
