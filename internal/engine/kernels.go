package engine

import (
	"fmt"
	"math"
)

// The plan's kernels. Each performs exactly the float32 operations the
// reference executor's exec performs for the instruction(s) it stands
// for, in the same order; loops re-read their sources element by
// element, so overlapping source and destination regions behave as they
// do there. Every fused product is rounded by an explicit float32(...)
// before it meets an add (see plan.go).

func (o operand) view(f *frame) []float32 { return f.base[o.sp][o.off : o.off+o.n] }

func (o operand) at(f *frame) float32 { return f.base[o.sp][o.off] }

func (o *op) dest(f *frame) []float32 { return f.base[spThread][o.dst : o.dst+o.n] }

// runOps executes a lowered list against one frame.
//
//dana:hotpath
func runOps(ops []op, f *frame) error {
	for i := range ops {
		o := &ops[i]
		if err := o.run(o, f); err != nil {
			return err
		}
	}
	return nil
}

// kFail returns the error the instruction raises when executed. It is
// the one kernel off the hot path: it ends the run.
func kFail(o *op, _ *frame) error {
	if o.src.Kind == KEW {
		return fmt.Errorf("engine: EW with empty source: %v", *o.src)
	}
	return fmt.Errorf("engine: invalid instruction kind %d", o.src.Kind)
}

//dana:hotpath
func kScalar(o *op, f *frame) error {
	f.base[spThread][o.dst] = alu(o.alu, o.a.at(f), o.b.at(f))
	return nil
}

//dana:hotpath
func kEWvv(o *op, f *frame) error {
	dst := o.dest(f)
	a, b := o.a.view(f)[:len(dst)], o.b.view(f)[:len(dst)]
	if o.alu == ASub {
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
		return nil
	}
	for i := range dst {
		dst[i] = alu(o.alu, a[i], b[i])
	}
	return nil
}

//dana:hotpath
func kEWsv(o *op, f *frame) error {
	dst := o.dest(f)
	s, b := o.a.at(f), o.b.view(f)[:len(dst)]
	if o.alu == AMul {
		for i := range dst {
			dst[i] = s * b[i]
		}
		return nil
	}
	for i := range dst {
		dst[i] = alu(o.alu, s, b[i])
	}
	return nil
}

// kEWwrap is the ISA's definition verbatim: Dst[i] = ALU(A[i mod A.Len],
// B[i mod B.Len]), both sources re-read for every element.
//
//dana:hotpath
func kEWwrap(o *op, f *frame) error {
	dst := o.dest(f)
	a, b := o.a.view(f), o.b.view(f)
	for i := range dst {
		dst[i] = alu(o.alu, a[i%len(a)], b[i%len(b)])
	}
	return nil
}

//dana:hotpath
func kReduce(o *op, f *frame) error {
	dst := o.dest(f)
	src := o.a.view(f)
	for g := range dst {
		idx := g * o.gstride
		acc := src[idx]
		if o.alu == AAdd {
			for e := 1; e < o.group; e++ {
				idx += o.estride
				acc = acc + src[idx]
			}
		} else {
			for e := 1; e < o.group; e++ {
				idx += o.estride
				acc = alu(o.alu, acc, src[idx])
			}
		}
		dst[g] = acc
	}
	return nil
}

// kDot is ew.mul followed by a full red.add with the product vector
// left in registers: each product is rounded to float32 on its own, then
// summed left to right, exactly as the stored products were.
//
//dana:hotpath
func kDot(o *op, f *frame) error {
	a := o.a.view(f)
	b := o.b.view(f)[:len(a)]
	acc := float32(a[0] * b[0])
	for i := 1; i < len(a); i++ {
		acc = acc + float32(a[i]*b[i])
	}
	f.base[spThread][o.dst] = acc
	return nil
}

// kStep is ew.mul by the inner scalar, ew.mul by the outer one and the
// ew.sub, with both scaled vectors left in registers: each product is
// rounded to float32 on its own, as the stored ones were, before the
// next operation meets it.
//
//dana:hotpath
func kStep(o *op, f *frame) error {
	dst := o.dest(f)
	a, b := o.a.view(f)[:len(dst)], o.b.view(f)[:len(dst)]
	s1, s2 := o.s1.at(f), o.s2.at(f)
	for i := range dst {
		dst[i] = a[i] - float32(s1*float32(s2*b[i]))
	}
	return nil
}

// dotLanes is how many threads' tuples a merge batch keeps in flight, a
// lane group (runDirect, runPartition): a float32 add has a 3-4 cycle
// latency and a dot is one chain of them, so four independent chains fill
// the adder a single chain leaves idle — and so with four logistics.
const dotLanes = 4

// dotN is kDot for dotLanes frames at once. Each frame's sum is its own
// chain, in kDot's order exactly; only the chains interleave.
//
//dana:hotpath
func dotN(o *op, fs *[dotLanes]frame) {
	a0, a1, a2, a3 := o.a.view(&fs[0]), o.a.view(&fs[1]), o.a.view(&fs[2]), o.a.view(&fs[3])
	n := len(a0)
	a1, a2, a3 = a1[:n], a2[:n], a3[:n]
	b0, b1, b2, b3 := o.b.view(&fs[0])[:n], o.b.view(&fs[1])[:n], o.b.view(&fs[2])[:n], o.b.view(&fs[3])[:n]
	s0, s1, s2, s3 := float32(a0[0]*b0[0]), float32(a1[0]*b1[0]), float32(a2[0]*b2[0]), float32(a3[0]*b3[0])
	for i := 1; i < n; i++ {
		s0 = s0 + float32(a0[i]*b0[i])
		s1 = s1 + float32(a1[i]*b1[i])
		s2 = s2 + float32(a2[i]*b2[i])
		s3 = s3 + float32(a3[i]*b3[i])
	}
	fs[0].base[spThread][o.dst], fs[1].base[spThread][o.dst] = s0, s1
	fs[2].base[spThread][o.dst], fs[3].base[spThread][o.dst] = s2, s3
}

// scalarN is kScalar for dotLanes frames at once: one switch on the ALU
// op, then the four lanes' values by alu's expressions, so that a
// logistic's four math.Exp calls run in one loop. The logistic and the
// subtraction, GLM's two scalar ops, are written out because each read
// faster on glm_cached than alu's switch; any other op calls alu lane by
// lane.
//
//dana:hotpath
func scalarN(o *op, fs *[dotLanes]frame) {
	d := o.dst
	switch o.alu {
	case ASigmoid:
		for j := range fs {
			fs[j].base[spThread][d] = sigmoid(o.a.at(&fs[j]))
		}
	case ASub:
		for j := range fs {
			fs[j].base[spThread][d] = o.a.at(&fs[j]) - o.b.at(&fs[j])
		}
	default:
		for j := range fs {
			fs[j].base[spThread][d] = alu(o.alu, o.a.at(&fs[j]), o.b.at(&fs[j]))
		}
	}
}

func errGatherRow(idx, rows int) error {
	return fmt.Errorf("engine: gather row %d outside model of %d rows", idx, rows)
}

//dana:hotpath
func kGather(o *op, f *frame) error {
	idx := int(math.Round(float64(o.a.at(f))))
	if idx < 0 || idx >= o.rows {
		return errGatherRow(idx, o.rows)
	}
	if o.reg >= 0 {
		f.idx[o.reg] = idx
	}
	copy(f.base[spThread][o.dst:o.dst+o.rowLen], o.b.view(f)[idx*o.rowLen:(idx+1)*o.rowLen])
	return nil
}

// kGatherView is kGather without the copy: the row stays in the model and
// base[spView+reg] selects it, for the readers viewable() proved done
// before the tuple next writes the model.
//
//dana:hotpath
func kGatherView(o *op, f *frame) error {
	idx := int(math.Round(float64(o.a.at(f))))
	if idx < 0 || idx >= o.rows {
		return errGatherRow(idx, o.rows)
	}
	f.idx[o.reg] = idx
	f.base[spView+space(o.reg)] = o.b.view(f)[idx*o.rowLen : (idx+1)*o.rowLen]
	return nil
}

//dana:hotpath
func kScatter(o *op, f *frame) error {
	idx := int(math.Round(float64(o.b.at(f))))
	if idx < 0 || idx >= o.rows {
		return fmt.Errorf("engine: scatter row %d outside model of %d rows", idx, o.rows)
	}
	row := o.dst + idx*o.rowLen
	copy(f.base[spThread][row:row+o.rowLen], o.a.view(f))
	return nil
}

// kScatterPaired scatters to the row its tuple's gather already rounded
// and bounds-checked (pairIndexes proved the index word unchanged).
//
//dana:hotpath
func kScatterPaired(o *op, f *frame) error {
	row := o.dst + f.idx[o.reg]*o.rowLen
	copy(f.base[spThread][row:row+o.rowLen], o.a.view(f))
	return nil
}

// kRowSGD is LRMF's tuple, the eight kernels of o.parts inlined in their
// order (isRowSGD names them): kGatherView twice — each index rounded and
// checked before the next is read — kDot, kScalar, kStep twice, and
// kScatterPaired to r0, then to r1, so a tuple with u == v ends with the
// second step's row as it does op by op. Each scalar is read where its op
// read it and each scratch word is written where its op wrote it; only the
// view and index registers, which no later op reads, are kept in locals.
//
//dana:hotpath
func kRowSGD(o *op, f *frame) error {
	g0, g1, d, sc, st0, st1 := &o.parts[0], &o.parts[1], &o.parts[2], &o.parts[3], &o.parts[4], &o.parts[5]
	i0 := int(math.Round(float64(g0.a.at(f))))
	if i0 < 0 || i0 >= g0.rows {
		return errGatherRow(i0, g0.rows)
	}
	i1 := int(math.Round(float64(g1.a.at(f))))
	if i1 < 0 || i1 >= g1.rows {
		return errGatherRow(i1, g1.rows)
	}
	th, n := f.base[spThread], g0.rowLen
	mdl := g0.b.view(f)
	u, v := mdl[i0*n:][:n], mdl[i1*n:][:n]

	dot := float32(u[0] * v[0])
	for i := 1; i < n; i++ {
		dot = dot + float32(u[i]*v[i])
	}
	th[d.dst] = dot
	th[sc.dst] = alu(sc.alu, sc.a.at(f), sc.b.at(f))

	uNew := th[st0.dst:][:n]
	s1, s2 := st0.s1.at(f), st0.s2.at(f)
	for i := range uNew {
		uNew[i] = u[i] - float32(s1*float32(s2*v[i]))
	}
	vNew := th[st1.dst:][:n]
	s1, s2 = st1.s1.at(f), st1.s2.at(f)
	for i := range vNew {
		vNew[i] = v[i] - float32(s1*float32(s2*u[i]))
	}

	copy(u, uNew)
	copy(v, vNew)
	return nil
}

// The accumulating kernels compute the value the program would have
// stored in MergeSrc and fold it into the merge accumulator at once:
// acc = v for the accumulator's first tuple, acc = acc + v after, the
// reference's copy-then-add.

//dana:hotpath
func kAccMulSV(o *op, f *frame) error {
	s, x := o.a.at(f), o.b.view(f)
	acc := f.acc[:len(x)]
	if f.first {
		for j := range x {
			acc[j] = float32(s * x[j])
		}
		return nil
	}
	for j := range x {
		acc[j] = acc[j] + float32(s*x[j])
	}
	return nil
}

// kAccVV is the ew.vv.sub that produces the merge value.
//
//dana:hotpath
func kAccVV(o *op, f *frame) error {
	a := o.a.view(f)
	b, acc := o.b.view(f)[:len(a)], f.acc[:len(a)]
	if f.first {
		for j := range a {
			acc[j] = float32(a[j] - b[j])
		}
		return nil
	}
	for j := range a {
		acc[j] = acc[j] + float32(a[j]-b[j])
	}
	return nil
}

// accMulSVN is kAccMulSV for dotLanes frames at once, all on one
// accumulator: the four values are added in lane order, each product
// rounded on its own, so acc[j] goes through exactly the sums four
// kAccMulSV calls give it — loaded and stored once, not four times. The
// batch's first group, whose lane 0 stores rather than adds, takes them.
//
//dana:hotpath
func accMulSVN(o *op, fs *[dotLanes]frame) {
	if fs[0].first {
		for j := range fs {
			_ = kAccMulSV(o, &fs[j]) // cannot fail
		}
		return
	}
	x0 := o.b.view(&fs[0])
	n := len(x0)
	x1, x2, x3 := o.b.view(&fs[1])[:n], o.b.view(&fs[2])[:n], o.b.view(&fs[3])[:n]
	s0, s1, s2, s3 := o.a.at(&fs[0]), o.a.at(&fs[1]), o.a.at(&fs[2]), o.a.at(&fs[3])
	acc := fs[0].acc[:n]
	for j := range acc {
		acc[j] = (((acc[j] + float32(s0*x0[j])) + float32(s1*x1[j])) + float32(s2*x2[j])) + float32(s3*x3[j])
	}
}

// accMulSVLanes is kAccMulSV for dotLanes frames at once, each into its
// own accumulator — a full round of a partition lane group that does not
// fold — so that four independent chains of loads, products and stores
// share one loop. A group's lanes start together, so they store together.
//
//dana:hotpath
func accMulSVLanes(o *op, fs *[dotLanes]frame) {
	x0 := o.b.view(&fs[0])
	n := len(x0)
	x1, x2, x3 := o.b.view(&fs[1])[:n], o.b.view(&fs[2])[:n], o.b.view(&fs[3])[:n]
	a0, a1, a2, a3 := fs[0].acc[:n], fs[1].acc[:n], fs[2].acc[:n], fs[3].acc[:n]
	s0, s1, s2, s3 := o.a.at(&fs[0]), o.a.at(&fs[1]), o.a.at(&fs[2]), o.a.at(&fs[3])
	if fs[0].first {
		for j := range a0 {
			a0[j], a1[j], a2[j], a3[j] = float32(s0*x0[j]), float32(s1*x1[j]), float32(s2*x2[j]), float32(s3*x3[j])
		}
		return
	}
	for j := range a0 {
		a0[j] = a0[j] + float32(s0*x0[j])
		a1[j] = a1[j] + float32(s1*x1[j])
		a2[j] = a2[j] + float32(s2*x2[j])
		a3[j] = a3[j] + float32(s3*x3[j])
	}
}

// accFoldN ends the last round of a full partition lane group whose four
// threads had earlier tuples, so each lane holds a partial sum a_j in its
// spare: lane j's thread finishes its sum with the round's product p_j =
// float32(s_j·x_j[j]) and the four sums meet the merged vector in lane
// order, which is thread order — acc[j] = (((acc[j] + (a0[j]+p0)) +
// (a1[j]+p1)) + (a2[j]+p2)) + (a3[j]+p3): the reference's last
// thread-local add for each thread, then its tree-merge adds for threads
// t…t+3, with acc[j] loaded and stored once instead of eight times. The
// spares are read, never written.
//
//dana:hotpath
func accFoldN(o *op, fs *[dotLanes]frame, acc []float32) {
	x0 := o.b.view(&fs[0])
	n := len(x0)
	x1, x2, x3 := o.b.view(&fs[1])[:n], o.b.view(&fs[2])[:n], o.b.view(&fs[3])[:n]
	a0, a1, a2, a3 := fs[0].acc[:n], fs[1].acc[:n], fs[2].acc[:n], fs[3].acc[:n]
	s0, s1, s2, s3 := o.a.at(&fs[0]), o.a.at(&fs[1]), o.a.at(&fs[2]), o.a.at(&fs[3])
	acc = acc[:n]
	for j := range acc {
		acc[j] = (((acc[j] + (a0[j] + float32(s0*x0[j]))) + (a1[j] + float32(s1*x1[j]))) +
			(a2[j] + float32(s2*x2[j]))) + (a3[j] + float32(s3*x3[j]))
	}
}

// The acc.mul.sv of a full round of a partition lane group whose lanes
// keep their threads' sums in spares (runGroup): spareAdd when the round
// does not fold, spareFold when it folds them into the merged vector.
// Like laneKernels, they are looked up as the group runs.
var (
	spareAdd  laneKernel = accMulSVLanes
	spareFold            = accFoldN
)

// accumulate folds a thread's merge value into acc when no kernel fused
// it: the reference's copy for the first tuple, its add loop after.
//
//dana:hotpath
func accumulate(acc, src []float32, op AluOp, first bool) {
	src = src[:len(acc)]
	switch {
	case first:
		copy(acc, src)
	case op == AAdd:
		for j := range acc {
			acc[j] = acc[j] + src[j]
		}
	default:
		for j := range acc {
			acc[j] = alu(op, acc[j], src[j])
		}
	}
}
