package engine

import (
	"fmt"
	"math"
	"math/rand"
	hostrt "runtime"
	"strings"
	"testing"
)

// Mutation meta-tests for the plan-vs-reference differential: each
// plants one fault in the plan side of diffPlanReference and requires
// the harness to report it — after showing the same case green without
// the fault, so a red result is the fault's doing.

// metaCase is the 12-feature logistic GLM at 4 threads over the standard
// batch shapes: it lowers to dot + scalar chain + fused accumulate, and
// its n == k and trailing batches take the direct merge.
func metaCase() diffCase {
	const f, k = 12, 4
	rng := rand.New(rand.NewSource(77))
	init := make([]float32, f)
	for i := range init {
		init[i] = float32(rng.NormFloat64() * 0.1)
	}
	return diffCase{
		prog:    glmProg(f, true),
		cfg:     Config{Threads: k, ACsPerThread: 1, AUsPerAC: 8},
		init:    init,
		batches: diffBatches(diffTuples(rng, 11*k, f+1, 0), k),
	}
}

func requireCaught(t *testing.T, c diffCase, want string) {
	t.Helper()
	clean := c
	clean.mutate, clean.run = nil, nil
	if err := diffPlanReference(clean); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	err := diffPlanReference(c)
	if err == nil {
		t.Fatal("mutant passed the differential: the check cannot fail")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("mutant tripped %q, want a %s divergence", err, want)
	}
}

// kDotFused is kDot with the float32(...) around the product dropped on
// a target that fuses: one rounding for x*y+acc instead of two. (amd64
// does not fuse, so the fault is spelled with math.FMA; the products of
// two float32 are exact in float64, which makes this the FMADDS result
// up to the final double rounding.)
func kDotFused(o *op, f *frame) error {
	a, b := o.a.view(f), o.b.view(f)
	acc := float32(a[0] * b[0])
	for i := 1; i < len(a); i++ {
		acc = float32(math.FMA(float64(a[i]), float64(b[i]), float64(acc)))
	}
	f.base[spThread][o.dst] = acc
	return nil
}

// dotNFused is dotN with kDotFused's fault in each of its four chains.
func dotNFused(o *op, fs *[dotLanes]frame) {
	for j := range fs {
		_ = kDotFused(o, &fs[j])
	}
}

// A dot runs through o.run in a short group and through dotN in a full
// one, so the fault is planted in both.
func TestMetaDroppedRoundingCaught(t *testing.T) {
	c := metaCase()
	c.mutate = func(m *Machine) {
		for i := range m.plan.perTuple {
			if m.plan.perTuple[i].kind == opDot {
				m.plan.perTuple[i].run = kDotFused
				laneKernels[opDot] = dotNFused
				t.Cleanup(func() { laneKernels[opDot] = dotN })
				return
			}
		}
		t.Fatal("no dot in the plan to mutate")
	}
	requireCaught(t, c, "model[")
}

// The direct merge folds thread t's value into the merged vector in
// thread order. Feeding a single-tuple-per-thread batch backwards is
// that loop run from k-1 down to 0: same values, other order of adds.
func TestMetaDirectMergeOrderCaught(t *testing.T) {
	c := metaCase()
	c.run = func(m *Machine, batch [][]float32) error {
		if len(batch) > m.Cfg.Threads {
			return m.RunBatch(batch)
		}
		rev := make([][]float32, len(batch))
		for i, tup := range batch {
			rev[len(batch)-1-i] = tup
		}
		return m.RunBatch(rev)
	}
	requireCaught(t, c, "model[")
}

// laneMetaCase is metaCase at 16 threads: its batches have full groups
// past the batch's first — the only ones that fold — of one tuple a thread
// (n == k−1, n == k), of several (n = 3k+1, 2k), and with one- and
// two-tuple lanes in one group (n = k+9).
func laneMetaCase() diffCase {
	const k = 16
	c := metaCase()
	c.cfg.Threads = k
	c.batches = diffBatches(diffTuples(rand.New(rand.NewSource(79)), 11*k+9, 13, 0), k)
	return c
}

// accMulSVNBent is accMulSVN with up to three faults: the lanes added in
// another order, the first of them through one rounding instead of two
// (math.FMA, for the reason kDotFused is), the batch's first group added
// onto whatever the accumulator held instead of stored. With none it is
// accMulSVN, which TestMetaLaneGroupFaultsCaught checks first ("unbent").
func accMulSVNBent(order [dotLanes]int, fused, addOnFirst bool) laneKernel {
	return func(o *op, fs *[dotLanes]frame) {
		if fs[0].first && !addOnFirst {
			accMulSVN(o, fs)
			return
		}
		acc := fs[0].acc[:o.b.n]
		for j := range acc {
			v := acc[j]
			for i, l := range order {
				s, x := o.a.at(&fs[l]), o.b.view(&fs[l])[j]
				if fused && i == 0 {
					v = float32(math.FMA(float64(s), float64(x), float64(v)))
				} else {
					v = v + float32(s*x)
				}
			}
			acc[j] = v
		}
	}
}

// The lane-group accumulate is the reference's sums only in lane order,
// every product rounded on its own, and with the batch's first tuple
// stored, not added to the last batch's sums. laneKernels is the package's
// table, so each fault is planted for one differential run and taken back.
func TestMetaLaneGroupFaultsCaught(t *testing.T) {
	inOrder := [dotLanes]int{0, 1, 2, 3}
	plant := func(t *testing.T, k laneKernel) func(*Machine) {
		return func(m *Machine) {
			if last := m.plan.perTuple[len(m.plan.perTuple)-1]; last.kind != opAccMulSV {
				t.Fatal("no lane-group accumulate in the plan to mutate")
			}
			laneKernels[opAccMulSV] = k
			t.Cleanup(func() { laneKernels[opAccMulSV] = accMulSVN })
		}
	}
	t.Run("unbent", func(t *testing.T) {
		c := laneMetaCase()
		c.mutate = plant(t, accMulSVNBent(inOrder, false, false))
		if err := diffPlanReference(c); err != nil {
			t.Fatalf("the unbent twin of accMulSVN diverges, so a bent one proves nothing: %v", err)
		}
	})
	for _, f := range []struct {
		name string
		bent laneKernel
	}{
		{"lanes added 3,2,1,0", accMulSVNBent([dotLanes]int{3, 2, 1, 0}, false, false)},
		{"one product fused into its add", accMulSVNBent(inOrder, true, false)},
		{"first group added, not stored", accMulSVNBent(inOrder, false, true)},
	} {
		t.Run(f.name, func(t *testing.T) {
			c := laneMetaCase()
			c.mutate = plant(t, f.bent)
			requireCaught(t, c, "model[")
		})
	}
	// metaCase's 4 threads cannot see the first two: its only group is the
	// batch's first, which never reaches the grouped sums.
	t.Run("unseen at 4 threads", func(t *testing.T) {
		c := metaCase()
		c.mutate = plant(t, accMulSVNBent([dotLanes]int{3, 2, 1, 0}, true, false))
		if err := diffPlanReference(c); err != nil {
			t.Fatalf("4 threads reached the grouped sums: %v", err)
		}
	})
}

// svmLaneCase is laneMetaCase on the SVM shape compiler.Compile emits
// (danactl -listing): λ·w, the dot, y·dot, the hinge test y·dot < 1, y·x
// gated by it, and λ·w minus that into MergeSrc. Its scalar ops are
// scalar.mul and scalar.lt, which metaCase's logistic has not.
func svmLaneCase() diffCase {
	const f = 12
	at := 2*f + 4 // model[0,f) input[f,2f] lr, λ, 1 at [2f+1, 2f+4)
	next := func(n int) Slot { s := Slot{at, n}; at += n; return s }
	model, x, y := Slot{0, f}, Slot{f, f}, Slot{2 * f, 1}
	lr, lambda, one := Slot{2*f + 1, 1}, Slot{2*f + 2, 1}, Slot{2*f + 3, 1}
	reg, prod, dot, margin, hinge, yx, gated, grad := next(f), next(f), next(1), next(1), next(1), next(f), next(f), next(f)
	merged, up, wNew := next(f), next(f), next(f)
	c := laneMetaCase()
	c.prog = &Program{
		Slots: at, ModelSlot: model, InputSlot: Slot{f, f + 1}, ConstSlot: Slot{lr.Base, 3}, Consts: []float32{0.05, 0.01, 1},
		PerTuple: []Instr{
			{Kind: KEW, Op: AMul, Dst: reg, A: lambda, B: model},
			{Kind: KEW, Op: AMul, Dst: prod, A: model, B: x},
			{Kind: KReduce, Op: AAdd, Dst: dot, A: prod, GroupSize: f, EStride: 1},
			{Kind: KEW, Op: AMul, Dst: margin, A: y, B: dot},
			{Kind: KEW, Op: ALt, Dst: hinge, A: margin, B: one},
			{Kind: KEW, Op: AMul, Dst: yx, A: y, B: x},
			{Kind: KEW, Op: AMul, Dst: gated, A: hinge, B: yx},
			{Kind: KEW, Op: ASub, Dst: grad, A: reg, B: gated},
		},
		MergeSrc: grad, MergeOp: AAdd, MergeDst: merged,
		PostMerge: []Instr{
			{Kind: KEW, Op: AMul, Dst: up, A: lr, B: merged},
			{Kind: KEW, Op: ASub, Dst: wNew, A: model, B: up},
		},
		UpdatedSlot: wNew,
	}
	return c
}

// scalarNBent is scalarN with up to three faults: each lane given the
// value of the lane above it (lane 3 lane 0's), the logistic's add and
// divide done in float32, ALt's verdict negated on lane 3. With none it is
// alu lane by lane, which TestMetaScalarLaneFaultsCaught checks first
// ("unbent").
func scalarNBent(rotate, sigmoid32, flipLt bool) laneKernel {
	return func(o *op, fs *[dotLanes]frame) {
		var v [dotLanes]float32
		for j := range fs {
			a, b := o.a.at(&fs[j]), o.b.at(&fs[j])
			v[j] = alu(o.alu, a, b)
			if sigmoid32 && o.alu == ASigmoid {
				v[j] = 1 / (1 + float32(math.Exp(-float64(a))))
			}
			if flipLt && o.alu == ALt && j == dotLanes-1 {
				v[j] = 1 - v[j]
			}
		}
		for j := range fs {
			if rotate {
				fs[j].base[spThread][o.dst] = v[(j+1)%dotLanes]
			} else {
				fs[j].base[spThread][o.dst] = v[j]
			}
		}
	}
}

// A full lane group's scalar op is alu's value for each lane, on its own
// lane. laneKernels is the package's table, so each fault is planted for
// one differential run and taken back; the ALt fault is planted on the
// SVM shape, the only one with a scalar.lt.
func TestMetaScalarLaneFaultsCaught(t *testing.T) {
	plant := func(t *testing.T, want AluOp, k laneKernel) func(*Machine) {
		return func(m *Machine) {
			for _, o := range m.plan.perTuple {
				if o.kind == opScalar && o.alu == want {
					laneKernels[opScalar] = k
					t.Cleanup(func() { laneKernels[opScalar] = scalarN })
					return
				}
			}
			t.Fatalf("no scalar.%v in the plan to mutate", want)
		}
	}
	for _, c := range []struct {
		name string
		c    diffCase
		alu  AluOp
	}{{"logistic", laneMetaCase(), ASigmoid}, {"svm", svmLaneCase(), ALt}} {
		t.Run("unbent "+c.name, func(t *testing.T) {
			c.c.mutate = plant(t, c.alu, scalarNBent(false, false, false))
			if err := diffPlanReference(c.c); err != nil {
				t.Fatalf("the unbent twin of scalarN diverges, so a bent one proves nothing: %v", err)
			}
		})
	}
	for _, f := range []struct {
		name string
		c    diffCase
		alu  AluOp
		bent laneKernel
	}{
		{"lane results rotated by one", laneMetaCase(), ASigmoid, scalarNBent(true, false, false)},
		{"sigmoid in float32", laneMetaCase(), ASigmoid, scalarNBent(false, true, false)},
		{"lt flipped on lane 3", svmLaneCase(), ALt, scalarNBent(false, false, true)},
	} {
		t.Run(f.name, func(t *testing.T) {
			f.c.mutate = plant(t, f.alu, f.bent)
			requireCaught(t, f.c, "model[")
		})
	}
}

// foldBent is accFoldN with up to three faults: the lanes folded in
// another order, the first of them with its product fused into its partial
// sum (math.FMA, for the reason kDotFused is), each lane's product added
// to the merged vector ahead of its partial sum. With none it is accFoldN,
// which TestMetaPartitionFaultsCaught checks first ("unbent").
func foldBent(order [dotLanes]int, fused, pFirst bool) func(*op, *[dotLanes]frame, []float32) {
	return func(o *op, fs *[dotLanes]frame, acc []float32) {
		for j := range acc[:o.b.n] {
			v := acc[j]
			for i, l := range order {
				s, x, a := o.a.at(&fs[l]), o.b.view(&fs[l])[j], fs[l].acc[j]
				switch {
				case fused && i == 0:
					v = v + float32(math.FMA(float64(s), float64(x), float64(a)))
				case pFirst:
					v = (v + float32(s*x)) + a
				default:
					v = v + (a + float32(s*x))
				}
			}
			acc[j] = v
		}
	}
}

// lanesBent is accMulSVLanes with, if fused, lane 0's product fused into
// its add in every round that adds (math.FMA, for the reason kDotFused
// is). Without the fault it is accMulSVLanes, lane by lane.
func lanesBent(fused bool) laneKernel {
	return func(o *op, fs *[dotLanes]frame) {
		for l := range fs {
			s, x, a := o.a.at(&fs[l]), o.b.view(&fs[l]), fs[l].acc
			for j := range x {
				switch {
				case fs[l].first:
					a[j] = float32(s * x[j])
				case fused && l == 0:
					a[j] = float32(math.FMA(float64(s), float64(x[j]), float64(a[j])))
				default:
					a[j] = a[j] + float32(s*x[j])
				}
			}
		}
	}
}

// foldAt is runPartition's choice of the round group t folds in (−1:
// none), for laneMetaCase's plan, which ends in acc.mul.sv — with two
// faults it can plant: group 0 folding as well, into the merged vector
// thread 0 should store; a group folding in its last lane's last round
// while the lanes below still have a tuple to add.
func foldAt(group0, early bool) func(n, t, k int) int {
	return func(n, t, k int) int {
		rounds, lastRounds := (n-t+k-1)/k, (n-t-dotLanes+k)/k
		if (t == 0 && !group0) || t+dotLanes > k || (lastRounds != rounds && !early) {
			return -1
		}
		return lastRounds - 1
	}
}

// partitionAt is RunBatch for a partition batch with the fold rounds
// chosen by fold instead of runPartition.
func partitionAt(fold func(n, t, k int) int) func(*Machine, [][]float32) error {
	return func(m *Machine, batch [][]float32) error {
		n, k := len(batch), min(m.Cfg.Threads, len(batch))
		if n == k {
			return m.RunBatch(batch)
		}
		m.countBatches(n, 1)
		for t := 0; t < k; t += dotLanes {
			if err := m.runGroup(batch, t, k, min(dotLanes, k-t), fold(n, t, k)); err != nil {
				return err
			}
		}
		return m.endMergeBatch(n, k)
	}
}

// A partition group's lanes add each product to their own spare, rounded
// on its own, and its fold is the reference's sums only in lane order,
// every product rounded on its own, each lane's partial sum completed
// before it meets the merged vector, and never on the batch's first group,
// whose thread 0 stores, nor a round early. spareAdd and spareFold are
// the package's, so each kernel fault is planted for one differential run
// and taken back; each fault of the rule runs the batch through
// partitionAt.
// (A group of one tuple a thread folds through accMulSVN, whose faults
// TestMetaLaneGroupFaultsCaught plants.)
func TestMetaPartitionFaultsCaught(t *testing.T) {
	inOrder := [dotLanes]int{0, 1, 2, 3}
	plant := func(t *testing.T, add laneKernel, fold func(*op, *[dotLanes]frame, []float32)) func(*Machine) {
		return func(m *Machine) {
			if last := m.plan.perTuple[len(m.plan.perTuple)-1]; last.kind != opAccMulSV {
				t.Fatal("no lane-group accumulate in the plan to mutate")
			}
			spareAdd, spareFold = add, fold
			t.Cleanup(func() { spareAdd, spareFold = accMulSVLanes, accFoldN })
		}
	}
	t.Run("unbent", func(t *testing.T) {
		c := laneMetaCase()
		c.mutate = plant(t, lanesBent(false), foldBent(inOrder, false, false))
		c.run = partitionAt(foldAt(false, false))
		if err := diffPlanReference(c); err != nil {
			t.Fatalf("the unbent twins of the kernels and the fold rule diverge, so a bent one proves nothing: %v", err)
		}
	})
	for _, f := range []struct {
		name          string
		add           laneKernel
		fold          func(*op, *[dotLanes]frame, []float32)
		group0, early bool
	}{
		{"lanes folded 3,2,1,0", accMulSVLanes, foldBent([dotLanes]int{3, 2, 1, 0}, false, false), false, false},
		{"one product fused into its partial sum", accMulSVLanes, foldBent(inOrder, true, false), false, false},
		{"a spare's product fused into its add", lanesBent(true), accFoldN, false, false},
		{"accFoldN adds p to acc before a", accMulSVLanes, foldBent(inOrder, false, true), false, false},
		{"the fold taken on group 0", accMulSVLanes, accFoldN, true, false},
		{"lane folded before its thread's sum is complete", accMulSVLanes, accFoldN, false, true},
	} {
		t.Run(f.name, func(t *testing.T) {
			c := laneMetaCase()
			c.mutate = plant(t, f.add, f.fold)
			if f.group0 || f.early {
				c.run = partitionAt(foldAt(f.group0, f.early))
			}
			requireCaught(t, c, "model[")
		})
	}
}

// Skipping the liveness check: PostMerge folds thread 0's product vector
// into the model, so lowering must keep the ew.mul and the red.add
// apart. The mutant runs the per-tuple list lowering produces when that
// read is not there — the dot, product vector elided — against it.
func TestMetaSkippedLivenessCaught(t *testing.T) {
	c := metaCase()
	fusable := c.prog
	c.prog = glmVariants(12)["prod-read-in-postmerge"]
	c.mutate = func(m *Machine) {
		for _, o := range m.plan.perTuple {
			if o.kind == opDot {
				t.Fatal("lowering fused a dot whose product vector PostMerge reads")
			}
		}
		fm, err := NewMachine(fusable, m.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.plan.perTuple = fm.plan.perTuple
	}
	requireCaught(t, c, "model[")
}

// lrmfMetaCase is an LRMF-shaped program at one thread, a tuple a batch:
// views, dot, steps and paired scatters, every fifth tuple with u == v.
func lrmfMetaCase(prog *Program) diffCase {
	rng := rand.New(rand.NewSource(78))
	init := make([]float32, prog.ModelSlot.Len)
	for i := range init {
		init[i] = float32(rng.NormFloat64() * 0.3)
	}
	tuples := diffTuples(rng, 40, 3, 6)
	for i := 0; i < len(tuples); i += 5 {
		tuples[i][1] = tuples[i][0]
	}
	return diffCase{
		prog:    prog,
		cfg:     Config{Threads: 1, ACsPerThread: 1, AUsPerAC: 8},
		init:    init,
		batches: diffBatches(tuples, 1),
	}
}

// kStepFused is kStep with the float32(...) around the outer product
// dropped on a target that fuses: one rounding for a − s1·t instead of
// two (spelled with math.FMA for the reason kDotFused is).
func kStepFused(o *op, f *frame) error {
	dst := o.dest(f)
	a, b := o.a.view(f), o.b.view(f)
	s1, s2 := o.s1.at(f), o.s2.at(f)
	for i := range dst {
		dst[i] = float32(math.FMA(-float64(s1), float64(float32(s2*b[i])), float64(a[i])))
	}
	return nil
}

// TestMetaStepRoundingCaught runs on step-dst-is-a — both rows viewed,
// both steps fused, each updating a copy of its row in place — because
// the plain LRMF tuple is one row kernel and has no step op to bend.
func TestMetaStepRoundingCaught(t *testing.T) {
	progs, _ := lrmfVariants(6, 4)
	c := lrmfMetaCase(progs["step-dst-is-a"])
	c.mutate = func(m *Machine) {
		for i := range m.plan.perTuple {
			if m.plan.perTuple[i].kind == opStep {
				m.plan.perTuple[i].run = kStepFused
				return
			}
		}
		t.Fatal("no step in the plan to mutate: the mutation changes nothing")
	}
	requireCaught(t, c, "model[")
}

// Taking a view across a model write: this program — step-dst-is-a, which
// views both rows and lowers to steps, not to a row kernel — also reads
// both gathered rows after the scatters, so lowering must copy them out.
// The mutant runs the per-tuple list lowering produces when those reads
// are not there — rows viewed, nothing copied — against it.
func TestMetaViewAcrossModelWriteCaught(t *testing.T) {
	progs, _ := lrmfVariants(6, 4)
	viewed := progs["step-dst-is-a"]
	p := cloneProg(viewed)
	L, R, iL := p.PerTuple[0].Dst, p.PerTuple[1].Dst, p.PerTuple[0].A
	spare := Slot{p.Slots, L.Len}
	p.Slots += L.Len
	p.RowUpdates = append(p.RowUpdates, Instr{Kind: KEW, Op: AAdd, Dst: spare, A: L, B: R}, Instr{Kind: KScatter, A: spare, B: iL, RowLen: L.Len})
	c := lrmfMetaCase(p)
	c.mutate = func(m *Machine) {
		vm, err := NewMachine(viewed, m.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			g, v := m.plan.perTuple[i], vm.plan.perTuple[i]
			if g.kind != opGather || v.kind != opGatherView || g.reg != v.reg {
				t.Fatalf("gather %d lowered to kind %d reg %d, its clean twin to kind %d reg %d; want a copy and a view on one register, or the mutation changes nothing", i, g.kind, g.reg, v.kind, v.reg)
			}
		}
		m.plan.perTuple = vm.plan.perTuple
	}
	requireCaught(t, c, "model[")
}

// rounded is the kernels' row index: the word rounded half away from zero.
func rounded(x float32) int { return int(math.Round(float64(x))) }

// kRowSGDBent is kRowSGD with its index words read by index, and up to
// three faults: the first step's outer product fused into its subtract
// (math.FMA, for the reason kDotFused is), the two row writes in the other
// order, the second step scaling the first step's output where it should
// scale the row as gathered. With rounded and none it is kRowSGD, which
// TestMetaRowKernelFaultsCaught checks first ("unbent").
func kRowSGDBent(index func(float32) int, fused, swapped, chained bool) kernel {
	return func(o *op, f *frame) error {
		g0, g1, d, sc, st0, st1 := &o.parts[0], &o.parts[1], &o.parts[2], &o.parts[3], &o.parts[4], &o.parts[5]
		i0 := index(g0.a.at(f))
		if i0 < 0 || i0 >= g0.rows {
			return errGatherRow(i0, g0.rows)
		}
		i1 := index(g1.a.at(f))
		if i1 < 0 || i1 >= g1.rows {
			return errGatherRow(i1, g1.rows)
		}
		th, n := f.base[spThread], g0.rowLen
		u, v := g0.b.view(f)[i0*n:(i0+1)*n], g0.b.view(f)[i1*n:(i1+1)*n]
		dot := float32(u[0] * v[0])
		for i := 1; i < n; i++ {
			dot = dot + float32(u[i]*v[i])
		}
		th[d.dst] = dot
		th[sc.dst] = alu(sc.alu, sc.a.at(f), sc.b.at(f))
		uNew, vNew := th[st0.dst:st0.dst+n], th[st1.dst:st1.dst+n]
		s1, s2 := st0.s1.at(f), st0.s2.at(f)
		for i := range uNew {
			if fused {
				uNew[i] = float32(math.FMA(-float64(s1), float64(float32(s2*v[i])), float64(u[i])))
			} else {
				uNew[i] = u[i] - float32(s1*float32(s2*v[i]))
			}
		}
		src := u
		if chained {
			src = uNew
		}
		s1, s2 = st1.s1.at(f), st1.s2.at(f)
		for i := range vNew {
			vNew[i] = v[i] - float32(s1*float32(s2*src[i]))
		}
		if swapped {
			copy(v, vNew)
			copy(u, uNew)
		} else {
			copy(u, uNew)
			copy(v, vNew)
		}
		return nil
	}
}

// The row kernel is the eight ops it stands for only with each step's
// products rounded on their own, r0's row written before r1's, and both
// steps reading the rows as gathered. The program is LRMF with the right
// row's step scaled by the tuple's rating rather than the learning rate:
// in lrmfProg a tuple with u == v makes the two new rows bit-equal, so
// the order they are written in could not show.
func TestMetaRowKernelFaultsCaught(t *testing.T) {
	prog := lrmfProg(6, 4)
	prog.PerTuple[9].A = prog.PerTuple[4].B
	plant := func(t *testing.T, k kernel) func(*Machine) {
		return func(m *Machine) {
			if len(m.plan.perTuple) != 1 || m.plan.perTuple[0].kind != opRowSGD {
				t.Fatal("no row kernel in the plan to mutate: the mutation changes nothing")
			}
			m.plan.perTuple[0].run = k
		}
	}
	t.Run("unbent", func(t *testing.T) {
		c := lrmfMetaCase(prog)
		c.mutate = plant(t, kRowSGDBent(rounded, false, false, false))
		if err := diffPlanReference(c); err != nil {
			t.Fatalf("the unbent twin of kRowSGD diverges, so a bent one proves nothing: %v", err)
		}
	})
	for _, f := range []struct {
		name string
		bent kernel
	}{
		{"one step's product fused into its subtract", kRowSGDBent(rounded, true, false, false)},
		{"row writes swapped", kRowSGDBent(rounded, false, true, false)},
		{"second step reads the first's output", kRowSGDBent(rounded, false, false, true)},
	} {
		t.Run(f.name, func(t *testing.T) {
			c := lrmfMetaCase(prog)
			c.mutate = plant(t, f.bent)
			requireCaught(t, c, "model[")
		})
	}
	// Only a tuple with u == v can see the order of the row writes.
	t.Run("swap unseen without u == v", func(t *testing.T) {
		c := lrmfMetaCase(prog)
		for _, batch := range c.batches {
			for _, tup := range batch {
				if tup[0] == tup[1] {
					tup[1] = float32((int(tup[0]) + 1) % 6)
				}
			}
		}
		c.mutate = plant(t, kRowSGDBent(rounded, false, true, false))
		if err := diffPlanReference(c); err != nil {
			t.Fatalf("the swapped row writes showed without a u == v tuple: %v", err)
		}
	})
}

// A row index that truncates where the reference rounds: the plan
// differential must see it through a word of 2.5 (row 2 for row 3: a
// model divergence) and of −0.5 (row 0 where the reference rejects row
// −1). The fault is planted in LRMF's row kernel, the gathers' production
// path.
func TestMetaTruncatedRowIndexCaught(t *testing.T) {
	trunc := func(x float32) int { return int(x) }
	for _, leg := range []struct {
		word float32
		want string
	}{{2.5, "model["}, {-0.5, "reference error engine: gather row -1"}} {
		t.Run(fmt.Sprint(leg.word), func(t *testing.T) {
			c := lrmfMetaCase(lrmfProg(6, 4))
			caseTuple(c, 17)[0] = leg.word
			c.mutate = func(m *Machine) {
				if len(m.plan.perTuple) != 1 || m.plan.perTuple[0].kind != opRowSGD {
					t.Fatal("no row kernel in the plan to mutate: the mutation changes nothing")
				}
				m.plan.perTuple[0].run = kRowSGDBent(trunc, false, false, false)
			}
			requireCaught(t, c, leg.want)
		})
	}
}

// Skipping the pad proof: each of these shapes hands a word from one
// tuple of a thread to the next, or to thread 0's once-a-batch stages, so
// lowering must leave every model thread its own scratchpad. The mutant
// runs tuples on their host lane's pad regardless — what lowering decides
// when the clause that refuses the shape is not there.
func TestMetaThreadCarriedTempCaught(t *testing.T) {
	variants := glmVariants(12)
	for _, name := range []string{
		"prod-read-in-postmerge", "prod-read-by-next-tuple", "mergesrc-read-in-convergence",
		"temp-partly-rewritten-before-read", "const-written-in-postmerge",
		"postmerge-word-read-per-tuple", "mergesrc-never-written-per-tuple",
		"temp-rewritten-in-postmerge", "running-sum-across-tuples", "mergedst-lands-on-const",
	} {
		t.Run(name, func(t *testing.T) {
			c := metaCase()
			c.prog, c.cfg.Threads = variants[name], 6
			c.mutate = func(m *Machine) {
				if m.plan.sharePads || m.plan.copyInput || !m.plan.shareModel || m.pads != 6 {
					t.Fatalf("lowered to sharePads=%v copyInput=%v shareModel=%v on %d pads; want only the pad proof refusing, 6 pads",
						m.plan.sharePads, m.plan.copyInput, m.plan.shareModel, m.pads)
				}
				m.plan.sharePads = true
			}
			requireCaught(t, c, "")
		})
	}
}

// Stats.Instructions counts macro instructions; the plan runs fewer ops.
// The mutant charges what it ran.
func TestMetaFusedOpCountCaught(t *testing.T) {
	c := metaCase()
	c.run = func(m *Machine, batch [][]float32) error {
		fused := len(m.Prog.PerTuple) - len(m.plan.perTuple)
		if fused == 0 {
			t.Fatal("plan fused nothing: the mutation is a no-op")
		}
		err := m.RunBatch(batch)
		m.stats.Instructions -= int64(len(batch) * fused)
		return err
	}
	requireCaught(t, c, "stats diverge")
}

// TestPlanErrorTrichotomy: the three run-time rejections read the same
// from the plan and the reference — wrong tuple width, a gather or
// scatter row outside the model, an elementwise instruction with an
// empty source.
func TestPlanErrorTrichotomy(t *testing.T) {
	cfg := Config{Threads: 2, ACsPerThread: 1, AUsPerAC: 8}
	lrmf := lrmfProg(6, 4)
	scatterOnly := cloneProg(lrmf)
	scatterOnly.PerTuple = nil
	empty := glmProg(4, false)
	empty.PerTuple[2].A = Slot{}
	emptyB := glmProg(4, false)
	emptyB.PerTuple[3].B = Slot{}
	badKind := glmProg(4, false)
	badKind.PostMerge = append(badKind.PostMerge, Instr{Kind: 9})
	cases := []struct {
		name  string
		prog  *Program
		tuple []float32
		want  string
	}{
		{"short tuple", glmProg(4, false), []float32{1, 2}, "engine: tuple width 2, input region 5"},
		{"gather row", lrmf, []float32{6, 0, 1}, "engine: gather row 6 outside model of 6 rows"},
		{"gather negative row", lrmf, []float32{0, -1, 1}, "engine: gather row -1 outside model of 6 rows"},
		{"scatter row", scatterOnly, []float32{0, 7, 1}, "engine: scatter row 7 outside model of 6 rows"},
		{"empty unary source", empty, []float32{1, 2, 3, 4, 5}, "engine: EW with empty source: ew.mov"},
		{"empty second source", emptyB, []float32{1, 2, 3, 4, 5}, "engine: EW with empty source: ew.sub"},
		{"invalid kind", badKind, []float32{1, 2, 3, 4, 5}, "engine: invalid instruction kind 9"},
	}
	for _, c := range cases {
		pm, err := NewMachine(c.prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rm, _ := NewMachine(c.prog, cfg)
		perr, rerr := pm.RunBatch([][]float32{c.tuple}), rm.RunBatchReference([][]float32{c.tuple})
		if perr == nil || rerr == nil || perr.Error() != rerr.Error() || !strings.HasPrefix(perr.Error(), c.want) {
			t.Errorf("%s: plan %v, reference %v, want %q", c.name, perr, rerr, c.want)
		}
	}

	// Batches with more than one bad tuple: the reference runs thread by
	// thread and stops at the lowest bad one, wherever in its own list or
	// its own tuples it fails; a lane group walks its ops op-major and its
	// rounds in order, so a higher lane can fail first. gath gathers model
	// row round(x[0]) before the dot; gathEmpty also fails every tuple at
	// its ew.sub. At 8 threads a batch of 16 is two rounds of two groups,
	// the second of which folds.
	gath := cloneProg(glmProg(4, false))
	gath.Slots++
	gath.PerTuple = append([]Instr{{Kind: KGather, Dst: Slot{gath.Slots - 1, 1}, A: Slot{4, 1}, RowLen: 1}}, gath.PerTuple...)
	gathEmpty := cloneProg(gath)
	gathEmpty.PerTuple[4].B = Slot{}
	ok, short, row9, rowNeg := []float32{1, 2, 3, 4, 5}, []float32{1, 2}, []float32{9, 2, 3, 4, 5}, []float32{-3, 2, 3, 4, 5}
	const width, gather9, gatherNeg, emptySub = "engine: tuple width 2, input region 5", "engine: gather row 9 outside model of 4 rows",
		"engine: gather row -3 outside model of 4 rows", "engine: EW with empty source: ew.sub"
	cfg.Threads = 8
	for _, c := range []struct {
		name  string
		prog  *Program
		batch [][]float32
		want  string
	}{
		{"the issue's: op failure below a bind failure", emptyB, [][]float32{ok, short}, emptySub},
		{"bind failure below an op failure", emptyB, [][]float32{short, ok}, width},
		{"one group: gather below width", gath, [][]float32{ok, row9, ok, short}, gather9},
		{"one group: width below gather", gath, [][]float32{ok, short, row9, ok}, width},
		{"one group: two gathers", gath, [][]float32{ok, ok, rowNeg, row9}, gatherNeg},
		{"one group: lane 0's late failure beats both", gathEmpty, [][]float32{ok, row9, short, ok}, emptySub},
		{"one group: gather in lane 0 beats the late failure", gathEmpty, [][]float32{row9, ok, short, ok}, gather9},
		{"two groups: gather in the first, width in the second", gath, [][]float32{ok, ok, row9, ok, ok, short, ok, ok}, gather9},
		{"two groups: width in the first, gather in the second", gath, [][]float32{ok, short, ok, ok, ok, ok, row9, ok}, width},
		{"two groups: first group's last lane, second group's first", gath, [][]float32{ok, ok, ok, rowNeg, short, ok, ok, ok}, gatherNeg},
		{"short last group: its last tuple", gath, [][]float32{ok, ok, ok, ok, ok, short}, width},
		{"short last group: both its tuples", gath, [][]float32{ok, ok, ok, ok, row9, short}, gather9},
		{"short last group: late failure below a bind failure", gathEmpty, [][]float32{ok, short}, emptySub},
		{"short only group of three: width, gather, late", gathEmpty, [][]float32{short, rowNeg, ok}, width},
		{"partition: thread 1 in round 0, thread 0 in round 1", gath, partitionBatch(ok, map[int][]float32{1: row9, 8: short}), width},
		{"partition: thread 1's width in round 0, thread 0's gather in round 1", gath, partitionBatch(ok, map[int][]float32{1: short, 8: row9}), gather9},
		{"partition: thread 5 in round 0, thread 4 in round 1 of a folding group", gath, partitionBatch(ok, map[int][]float32{5: row9, 12: rowNeg}), gatherNeg},
		{"partition: thread 7 in round 1 of a folding group", gath, partitionBatch(ok, map[int][]float32{15: short}), width},
		{"partition: thread 0's late failure in round 0", gathEmpty, partitionBatch(ok, map[int][]float32{1: row9, 9: short}), emptySub},
	} {
		pm, err := NewMachine(c.prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rm, _ := NewMachine(c.prog, cfg)
		if c.prog != emptyB && c.prog != gathEmpty { // a batch that ran, so there is something a failure could add to
			good := [][]float32{ok, ok, ok, ok, ok}
			if perr, rerr := pm.RunBatch(good), rm.RunBatchReference(good); perr != nil || rerr != nil {
				t.Fatalf("%s: clean batch: plan %v, reference %v", c.name, perr, rerr)
			}
		}
		before := pm.Stats()
		perr, rerr := pm.RunBatch(c.batch), rm.RunBatchReference(c.batch)
		if perr == nil || rerr == nil || perr.Error() != rerr.Error() || !strings.HasPrefix(perr.Error(), c.want) {
			t.Errorf("%s: plan %v, reference %v, want %q", c.name, perr, rerr, c.want)
		}
		before.Batches++
		before.Tuples += int64(len(c.batch))
		if after := pm.Stats(); after != before {
			t.Errorf("%s: the failed batch charged\n  %+v\nover the count of itself and its tuples on\n  %+v", c.name, after, before)
		}
	}
}

// partitionBatch is sixteen copies of ok with the tuples bad names put in.
func partitionBatch(ok []float32, bad map[int][]float32) [][]float32 {
	b := make([][]float32, 16)
	for i := range b {
		b[i] = ok
		if v, in := bad[i]; in {
			b[i] = v
		}
	}
	return b
}

// TestRunBatchAllocationFree: the merge path never allocates, nor does the
// serial (no-merge) one — the first batch included — nor a serial epoch.
func TestRunBatchAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name    string
		prog    *Program
		threads int
		tuples  [][]float32
	}{
		{"inline", glmProg(12, true), 4, diffTuples(rng, 9, 13, 0)},
		{"serial", lrmfProg(6, 4), 1, diffTuples(rng, 16, 3, 6)},
	} {
		// AllocsPerRun warms up with a call it does not count: the first
		// batch is measured by hand, each attempt on a fresh machine.
		// MemStats counts the whole process, so one reading can include
		// another goroutine's allocation: the first batch fails only if
		// it allocates on every attempt.
		var m *Machine
		first := uint64(math.MaxUint64)
		for attempt := 0; attempt < 5 && first != 0; attempt++ {
			var err error
			if m, err = NewMachine(c.prog, Config{Threads: c.threads, ACsPerThread: 2, AUsPerAC: 8}); err != nil {
				t.Fatal(err)
			}
			var before, after hostrt.MemStats
			hostrt.ReadMemStats(&before)
			err = m.RunBatch(c.tuples)
			hostrt.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if n := after.Mallocs - before.Mallocs; n < first {
				first = n
			}
		}
		if first != 0 {
			t.Errorf("%s: the first RunBatch allocates %d times on every attempt", c.name, first)
		}
		if n := testing.AllocsPerRun(20, func() { _ = m.RunBatch(c.tuples) }); n != 0 {
			t.Errorf("%s: RunBatch allocates %v times a batch", c.name, n)
		}
		if c.prog.HasMerge() {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { _ = m.RunEpoch(c.tuples, 3) }); n != 0 {
			t.Errorf("%s: RunEpoch allocates %v times an epoch", c.name, n)
		}
	}
}

// TestNewMachineAllocations pins what building a machine allocates (a
// Configure that resets its backend's machine builds none): the machine,
// one op slab for all four lowered lists, one scratchpad slab and one slab
// of merge accumulators (merge programs only) — whatever the thread count
// (TestServerMixMachineFootprint pins the bytes).
func TestNewMachineAllocations(t *testing.T) {
	for _, c := range []struct {
		name    string
		prog    *Program
		threads int
		want    float64
	}{
		{"glm 64 threads", glmProg(54, true), 64, 4},
		{"lrmf 1 thread", lrmfProg(100, 10), 1, 3},
	} {
		cfg := Config{Threads: c.threads, ACsPerThread: 2, AUsPerAC: 8}
		got := testing.AllocsPerRun(20, func() {
			if _, err := NewMachine(c.prog, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.want {
			t.Errorf("%s: NewMachine allocates %v times, budget %v", c.name, got, c.want)
		}
	}
	m, err := NewMachine(glmProg(54, true), Config{Threads: 64, ACsPerThread: 2, AUsPerAC: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.accs), (1+dotLanes)*54; got != want {
		t.Errorf("glm 64 threads: %d accumulator words at construction, want %d (the merged vector and a spare per lane)", got, want)
	}
}
