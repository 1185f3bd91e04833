package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The plan against its oracle. diffPlanReference drives two machines
// built from one program — one through RunBatch/Converged (the plan),
// one through RunBatchReference/ConvergedReference (the interpreter) —
// and demands math.Float32bits-equal models and equal Stats after every
// batch, and the same error text when a batch fails.

// diffCase is one differential run.
type diffCase struct {
	prog    *Program
	cfg     Config
	init    []float32     // initial model (nil = zeros)
	batches [][][]float32 // fed in order, Converged after each third

	// mutate plants a fault in the plan-side machine after NewMachine,
	// run replaces its RunBatch (mutation meta-tests only).
	mutate func(*Machine)
	run    func(*Machine, [][]float32) error
}

func diffPlanReference(c diffCase) error {
	pm, err := NewMachine(c.prog, c.cfg)
	if err != nil {
		return err
	}
	rm, err := NewMachine(c.prog, c.cfg)
	if err != nil {
		return err
	}
	if c.init != nil {
		if err := pm.SetModel(c.init); err != nil {
			return err
		}
		if err := rm.SetModel(c.init); err != nil {
			return err
		}
	}
	if c.mutate != nil {
		c.mutate(pm)
	}
	run := c.run
	if run == nil {
		run = (*Machine).RunBatch
	}
	same := func(what string) error { return sameMachine(what, "plan", pm, "reference", rm) }
	for bi, batch := range c.batches {
		perr, rerr := run(pm, batch), rm.RunBatchReference(batch)
		if perr != nil || rerr != nil {
			if perr == nil || rerr == nil || perr.Error() != rerr.Error() {
				return fmt.Errorf("batch %d (n=%d): plan error %v, reference error %v", bi, len(batch), perr, rerr)
			}
			return nil // both abandoned the run the same way
		}
		if err := same(fmt.Sprintf("batch %d (n=%d)", bi, len(batch))); err != nil {
			return err
		}
		if bi%3 == 2 {
			pc, perr := pm.Converged()
			rc, rerr := rm.ConvergedReference()
			pv, rv := pm.thread(0)[c.prog.ConvSlot.Base], rm.thread(0)[c.prog.ConvSlot.Base]
			if pc != rc || (perr == nil) != (rerr == nil) || (c.prog.ConvSlot.Len > 0 && perr == nil && math.Float32bits(pv) != math.Float32bits(rv)) {
				return fmt.Errorf("converged after batch %d: plan (%v, %v, %v), reference (%v, %v, %v)", bi, pc, pv, perr, rc, rv, rerr)
			}
			if perr != nil {
				return nil
			}
			if err := same(fmt.Sprintf("converged after batch %d", bi)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameMachine reports the first difference between two machines' models
// (as bits) and Stats; an and bn name the sides in the report.
func sameMachine(what, an string, a *Machine, bn string, b *Machine) error {
	am, bm := a.Model(), b.Model()
	for i := range am {
		if math.Float32bits(am[i]) != math.Float32bits(bm[i]) {
			return fmt.Errorf("%s: model[%d] %s %v (%#x) != %s %v (%#x)",
				what, i, an, am[i], math.Float32bits(am[i]), bn, bm[i], math.Float32bits(bm[i]))
		}
	}
	if a.Stats() != b.Stats() {
		return fmt.Errorf("%s: stats diverge:\n  %s %+v\n  %s %+v", what, an, a.Stats(), bn, b.Stats())
	}
	return nil
}

// diffBatches cuts tuples into the batch shapes that matter at k threads:
// n < k, n == k, n = 3k+1, then (k ≥ 2) k < n < 2k with n − k odd, so one
// lane group holds threads of two tuples and threads of one, then
// merge-coefficient batches to the end with whatever partial batch trails.
func diffBatches(tuples [][]float32, k int) [][][]float32 {
	var out [][][]float32
	take := func(n int) {
		if n > len(tuples) {
			n = len(tuples)
		}
		if n > 0 {
			out = append(out, tuples[:n])
			tuples = tuples[n:]
		}
	}
	take(k - 1)
	take(k)
	take(3*k + 1)
	if k >= 2 {
		take(k + (k/2 | 1))
	}
	for len(tuples) > 0 {
		take(2 * k)
	}
	return out
}

// diffTuples draws n tuples of the given width; the first two words are
// small non-negative integers so programs can use them as row indexes.
func diffTuples(rng *rand.Rand, n, width, rows int) [][]float32 {
	tuples := make([][]float32, n)
	for i := range tuples {
		tup := make([]float32, width)
		for j := range tup {
			tup[j] = float32(rng.NormFloat64() * 0.5)
			if j < 2 && rows > 0 {
				tup[j] = float32(rng.Intn(rows))
			}
		}
		tuples[i] = tup
	}
	return tuples
}

// glmProg is the shape compiler.Compile emits for the dense GLMs at f
// features (danactl -listing): dot, a scalar chain, scalar × input into
// MergeSrc, and the post-merge optimizer step.
//
//	model[0,f) input[f,2f] lr[2f+1] prod[2f+2,3f+2) dot err grad merged up new
func glmProg(f int, sigmoid bool) *Program {
	model, x, y, lr := Slot{0, f}, Slot{f, f}, Slot{2 * f, 1}, Slot{2*f + 1, 1}
	prod, dot, sig, errS := Slot{2*f + 2, f}, Slot{3*f + 2, 1}, Slot{3*f + 3, 1}, Slot{3*f + 4, 1}
	grad, merged, up, wNew := Slot{3*f + 5, f}, Slot{4*f + 5, f}, Slot{5*f + 5, f}, Slot{6*f + 5, f}
	p := &Program{
		Slots: 7*f + 5, ModelSlot: model, InputSlot: Slot{f, f + 1}, ConstSlot: lr, Consts: []float32{0.05},
		PerTuple: []Instr{
			{Kind: KEW, Op: AMul, Dst: prod, A: model, B: x},
			{Kind: KReduce, Op: AAdd, Dst: dot, A: prod, GroupSize: f, EStride: 1},
			{Kind: KEW, Op: AMov, Dst: sig, A: dot},
			{Kind: KEW, Op: ASub, Dst: errS, A: sig, B: y},
			{Kind: KEW, Op: AMul, Dst: grad, A: errS, B: x},
		},
		MergeSrc: grad, MergeOp: AAdd, MergeDst: merged,
		PostMerge: []Instr{
			{Kind: KEW, Op: AMul, Dst: up, A: lr, B: merged},
			{Kind: KEW, Op: ASub, Dst: wNew, A: model, B: up},
		},
		UpdatedSlot: wNew,
	}
	if sigmoid {
		p.PerTuple[2].Op = ASigmoid
	}
	return p
}

func cloneProg(p *Program) *Program {
	q := *p
	q.PerTuple = append([]Instr(nil), p.PerTuple...)
	q.PostMerge = append([]Instr(nil), p.PostMerge...)
	q.RowUpdates = append([]Instr(nil), p.RowUpdates...)
	q.Convergence = append([]Instr(nil), p.Convergence...)
	return &q
}

// glmVariants are glmProg bent in each way that must switch a fusion or
// an in-place read off (or keep it on): the differential test holds on
// every one, and TestPlanShape pins what the lowering decided.
func glmVariants(f int) map[string]*Program {
	base := glmProg(f, true)
	prod, grad, merged, lr := base.PerTuple[0].Dst, base.MergeSrc, base.MergeDst, base.ConstSlot
	x, y := Slot{f, f}, Slot{2 * f, 1}
	spare := Slot{base.Slots, f}
	grow := func(p *Program) *Program { p.Slots += f; return p }
	v := map[string]*Program{"base": base}

	p := cloneProg(base) // PostMerge folds thread 0's product vector into the model
	p.PostMerge = append(p.PostMerge, Instr{Kind: KEW, Op: AAdd, Dst: base.UpdatedSlot, A: prod, B: base.UpdatedSlot})
	v["prod-read-in-postmerge"] = p

	p = grow(cloneProg(base)) // the next tuple reads the last one's product vector
	p.PerTuple = append([]Instr{{Kind: KEW, Op: AMov, Dst: spare, A: prod}}, p.PerTuple...)
	p.PostMerge = append(p.PostMerge, Instr{Kind: KEW, Op: AAdd, Dst: base.UpdatedSlot, A: base.UpdatedSlot, B: Slot{spare.Base, 1}})
	v["prod-read-by-next-tuple"] = p

	p = grow(cloneProg(base)) // Convergence reads thread 0's MergeSrc
	p.Convergence = []Instr{{Kind: KReduce, Op: AAdd, Dst: Slot{spare.Base, 1}, A: grad, GroupSize: f, EStride: 1}}
	p.ConvSlot = Slot{spare.Base, 1}
	v["mergesrc-read-in-convergence"] = p

	p = cloneProg(base) // the merged value lands back on MergeSrc
	p.MergeDst = grad
	p.PostMerge[0].B = grad
	v["mergedst-is-mergesrc"] = p

	p = grow(cloneProg(base)) // PostMerge reads an input word of thread 0's last tuple
	p.PostMerge = append(p.PostMerge, Instr{Kind: KEW, Op: AMul, Dst: Slot{spare.Base, 1}, A: y, B: base.ConstSlot},
		Instr{Kind: KEW, Op: AAdd, Dst: base.UpdatedSlot, A: base.UpdatedSlot, B: Slot{spare.Base, 1}})
	v["input-read-in-postmerge"] = p

	p = cloneProg(base) // the per-tuple stage writes its thread's model copy
	p.PerTuple = append([]Instr{{Kind: KEW, Op: AAdd, Dst: Slot{0, 1}, A: Slot{0, 1}, B: y}}, p.PerTuple...)
	v["pertuple-writes-model"] = p

	p = cloneProg(base) // a read straddling the model/input edge
	p.PerTuple[0].A = Slot{1, f}
	v["read-straddles-model-edge"] = p

	p = cloneProg(base) // the dot's multiply feeds on the products it has just written
	p.PerTuple[0].A = Slot{prod.Base - 1, f}
	v["dot-operand-overlaps-product"] = p

	p = cloneProg(base) // the tuple load lands on the last model word
	p.InputSlot = Slot{f - 1, f + 2}
	v["input-overlaps-model"] = p

	p = cloneProg(base) // in-place and shifted-overlap elementwise, wrapped operand
	p.PerTuple = append(p.PerTuple[:4:4],
		Instr{Kind: KEW, Op: AMul, Dst: prod, A: prod, B: Slot{f, 3}},                                         // in place, B wraps mod 3
		Instr{Kind: KEW, Op: AAdd, Dst: Slot{prod.Base + 1, f - 1}, A: Slot{prod.Base, f - 1}, B: Slot{f, 2}}, // running sum through overlap
		Instr{Kind: KEW, Op: ASub, Dst: Slot{prod.Base, f}, A: prod, B: Slot{prod.Base + 2, 1}},               // scalar inside its own destination
		Instr{Kind: KEW, Op: AMul, Dst: grad, A: base.PerTuple[3].Dst, B: prod})
	v["overlapping-and-wrapped"] = p

	p = cloneProg(base) // the SVM shape: a vector-vector sub produces MergeSrc
	p.PerTuple = append(p.PerTuple[:4:4],
		Instr{Kind: KEW, Op: AMul, Dst: prod, A: base.PerTuple[3].Dst, B: x},
		Instr{Kind: KEW, Op: ASub, Dst: grad, A: Slot{0, f}, B: prod})
	v["svm-shape"] = p

	p = cloneProg(base) // a non-add merge: no accumulating kernel
	p.MergeOp = AMul
	v["merge-by-product"] = p

	// The rest bend what padShareable walks, one clause each (three more
	// are above: a temp the last tuple left, PostMerge and Convergence
	// reading one). sig and errS are the scalar chain's words.
	sig, errS := base.PerTuple[2].Dst, base.PerTuple[3].Dst
	half := Slot{spare.Base, f / 2}

	p = grow(cloneProg(base)) // the gradient is taken over a vector whose upper half the last tuple wrote
	p.PerTuple = append(p.PerTuple[:4:4],
		Instr{Kind: KEW, Op: AMov, Dst: half, A: x},
		Instr{Kind: KEW, Op: AMul, Dst: grad, A: errS, B: spare},
		Instr{Kind: KEW, Op: AMov, Dst: spare, A: x})
	v["temp-partly-rewritten-before-read"] = p

	p = grow(cloneProg(base)) // the same vector rewritten whole, in two halves' worth of instructions, before the read
	p.PerTuple = append(p.PerTuple[:4:4],
		Instr{Kind: KEW, Op: AMov, Dst: spare, A: x},
		Instr{Kind: KEW, Op: AMul, Dst: half, A: half, B: sig},
		Instr{Kind: KEW, Op: AMul, Dst: grad, A: errS, B: spare})
	v["temp-rewritten-before-read"] = p

	p = cloneProg(base) // thread 0 decays its learning rate after every batch, and every tuple scales its error by its thread's
	p.PerTuple = append(p.PerTuple[:4:4], Instr{Kind: KEW, Op: AMul, Dst: errS, A: errS, B: lr}, base.PerTuple[4])
	p.PostMerge = append(p.PostMerge, Instr{Kind: KEW, Op: AMul, Dst: lr, A: lr, B: lr})
	v["const-written-in-postmerge"] = p

	p = grow(cloneProg(base)) // every tuple reads a word only thread 0's PostMerge writes
	p.PerTuple = append(p.PerTuple[:4:4], Instr{Kind: KEW, Op: AAdd, Dst: errS, A: errS, B: Slot{spare.Base, 1}}, base.PerTuple[4])
	p.PostMerge = append(p.PostMerge, Instr{Kind: KEW, Op: AMov, Dst: Slot{spare.Base, 1}, A: Slot{merged.Base, 1}})
	v["postmerge-word-read-per-tuple"] = p

	p = grow(cloneProg(base)) // the merge value is a word no tuple writes: each thread's own, which only thread 0's PostMerge ever sets
	p.MergeSrc, p.MergeDst = Slot{spare.Base, 1}, Slot{merged.Base, 1}
	p.PostMerge = append(p.PostMerge, Instr{Kind: KEW, Op: AAdd, Dst: Slot{spare.Base, 1}, A: Slot{spare.Base, 1}, B: lr})
	v["mergesrc-never-written-per-tuple"] = p

	p = grow(cloneProg(base)) // thread 0's PostMerge rewrites the vector whole; every thread's next tuple reads it before writing it
	p.PerTuple = append(p.PerTuple[:4:4],
		Instr{Kind: KEW, Op: AMul, Dst: grad, A: errS, B: spare},
		Instr{Kind: KEW, Op: AMov, Dst: spare, A: x})
	p.PostMerge = append(p.PostMerge, Instr{Kind: KEW, Op: AMov, Dst: spare, A: merged})
	v["temp-rewritten-in-postmerge"] = p

	p = grow(cloneProg(base)) // a running sum of the thread's inputs: the instruction that writes it reads it
	p.PerTuple = append(p.PerTuple[:4:4],
		Instr{Kind: KEW, Op: AAdd, Dst: spare, A: spare, B: x},
		Instr{Kind: KEW, Op: AMul, Dst: grad, A: errS, B: spare})
	v["running-sum-across-tuples"] = p

	p = grow(cloneProg(base)) // the merged vector lands on thread 0's copy of a constant every tuple reads
	p.ConstSlot, p.MergeDst = Slot{spare.Base, 1}, spare
	p.PerTuple = append(p.PerTuple[:4:4], Instr{Kind: KEW, Op: AMul, Dst: errS, A: errS, B: p.ConstSlot}, base.PerTuple[4])
	p.PostMerge[0].A, p.PostMerge[0].B = p.ConstSlot, spare
	v["mergedst-lands-on-const"] = p

	p = cloneProg(base) // every tuple parks its label in the last model word, which nothing reads again and the write-back stops short of
	p.PerTuple = append([]Instr{{Kind: KEW, Op: AMov, Dst: Slot{f - 1, 1}, A: y}}, p.PerTuple...)
	p.PostMerge = []Instr{
		{Kind: KEW, Op: AMul, Dst: Slot{base.PostMerge[0].Dst.Base, f - 1}, A: lr, B: Slot{merged.Base, f - 1}},
		{Kind: KEW, Op: ASub, Dst: Slot{base.UpdatedSlot.Base, f - 1}, A: Slot{0, f - 1}, B: Slot{base.PostMerge[0].Dst.Base, f - 1}},
	}
	p.UpdatedSlot = Slot{base.UpdatedSlot.Base, f - 1}
	v["pertuple-parks-word-in-model"] = p

	p = cloneProg(base) // plain SGD: same rule, no merge
	p.MergeSrc, p.MergeDst, p.PostMerge = Slot{}, Slot{}, nil
	p.PerTuple = append(p.PerTuple, base.PostMerge[0], base.PostMerge[1])
	p.PerTuple[5].B = grad
	v["no-merge"] = p

	p = cloneProg(p) // and the linear rule: the same step after a plain difference
	p.PerTuple[2].Op = AMov
	v["no-merge-linear"] = p
	return v
}

// lrmfProg is the compiled LRMF shape: two gathers, a dot, the two row
// updates, two scatters. Tuple = (rowL, rowR, rating).
func lrmfProg(rows, r int) *Program {
	m := rows * r
	iL, iR, rating, lr := Slot{m, 1}, Slot{m + 1, 1}, Slot{m + 2, 1}, Slot{m + 3, 1}
	at := m + 4
	next := func(n int) Slot { s := Slot{at, n}; at += n; return s }
	L, R, prod, dot, e := next(r), next(r), next(r), next(1), next(1)
	gL, sL, nL, gR, sR, nR := next(r), next(r), next(r), next(r), next(r), next(r)
	return &Program{
		Slots: at, ModelSlot: Slot{0, m}, InputSlot: Slot{m, 3}, ConstSlot: lr, Consts: []float32{0.05},
		PerTuple: []Instr{
			{Kind: KGather, Dst: L, A: iL, RowLen: r},
			{Kind: KGather, Dst: R, A: iR, RowLen: r},
			{Kind: KEW, Op: AMul, Dst: prod, A: L, B: R},
			{Kind: KReduce, Op: AAdd, Dst: dot, A: prod, GroupSize: r, EStride: 1},
			{Kind: KEW, Op: ASub, Dst: e, A: dot, B: rating},
			{Kind: KEW, Op: AMul, Dst: gL, A: e, B: R},
			{Kind: KEW, Op: AMul, Dst: sL, A: lr, B: gL},
			{Kind: KEW, Op: ASub, Dst: nL, A: L, B: sL},
			{Kind: KEW, Op: AMul, Dst: gR, A: e, B: L},
			{Kind: KEW, Op: AMul, Dst: sR, A: lr, B: gR},
			{Kind: KEW, Op: ASub, Dst: nR, A: R, B: sR},
		},
		RowUpdates: []Instr{
			{Kind: KScatter, A: nL, B: iL, RowLen: r},
			{Kind: KScatter, A: nR, B: iR, RowLen: r},
		},
	}
}

// lrmfShape is what lowering must decide for an LRMF variant: how many
// gathers become views, how many update triples become steps, how many
// scatters reuse their gather's index (counted inside a row kernel too),
// and whether the whole tuple became one row kernel.
type lrmfShape struct {
	views, steps, paired int
	rowSGD               bool
}

// unfused lists the ops a plan list runs, a row kernel by the ops it
// inlines.
func unfused(list []op) []op {
	var out []op
	for _, o := range list {
		if o.kind == opRowSGD {
			out = append(out, o.parts[:]...)
			continue
		}
		out = append(out, o)
	}
	return out
}

// lrmfVariants are lrmfProg bent in each way that must switch a view or
// a step off (or keep it on), with the verdict for each. Instruction
// numbers are lrmfProg's.
func lrmfVariants(rows, r int) (map[string]*Program, map[string]lrmfShape) {
	base := lrmfProg(rows, r)
	L, R := base.PerTuple[0].Dst, base.PerTuple[1].Dst
	iL, lr := base.PerTuple[0].A, base.ConstSlot
	gL, sL, nL, nR := base.PerTuple[5].Dst, base.PerTuple[6].Dst, base.PerTuple[7].Dst, base.PerTuple[10].Dst
	spare, spare2 := Slot{base.Slots, r}, Slot{base.Slots + r, r}
	grow := func(p *Program) *Program { p.Slots += 2*r + 1; return p }
	ew := func(op AluOp, dst, a, b Slot) Instr { return Instr{Kind: KEW, Op: op, Dst: dst, A: a, B: b} }
	v := map[string]*Program{"base": base}
	want := map[string]lrmfShape{"base": {2, 2, 2, true}}

	p := grow(cloneProg(base)) // both rows read again after the scatters, into a third row write
	p.RowUpdates = append(p.RowUpdates, ew(AAdd, spare, L, R), Instr{Kind: KScatter, A: spare, B: iL, RowLen: r})
	v["row-read-after-scatter"], want["row-read-after-scatter"] = p, lrmfShape{0, 2, 3, false}

	p = cloneProg(base) // the left row read before its gather: the last tuple's
	p.PerTuple = append([]Instr{ew(AAdd, nR, nR, L)}, p.PerTuple...)
	v["row-read-before-gather"], want["row-read-before-gather"] = p, lrmfShape{1, 2, 2, false}

	p = grow(cloneProg(base)) // no scatter: the write-back shifts the whole model, then Convergence sums the last tuple's left row
	upd := Slot{p.Slots, base.ModelSlot.Len}
	p.Slots += upd.Len
	p.PerTuple = append(p.PerTuple, ew(AAdd, upd, base.ModelSlot, Slot{lr.Base, 1}))
	p.RowUpdates, p.UpdatedSlot = nil, upd
	p.Convergence = []Instr{{Kind: KReduce, Op: AAdd, Dst: Slot{spare.Base, 1}, A: L, GroupSize: r, EStride: 1}}
	p.ConvSlot = Slot{spare.Base, 1}
	v["row-read-in-convergence"], want["row-read-in-convergence"] = p, lrmfShape{1, 2, 0, false}

	p = cloneProg(base) // the left gather's index is a word of the row it gathered last
	p.PerTuple[0].A = Slot{L.Base, 1}
	v["index-inside-own-row"], want["index-inside-own-row"] = p, lrmfShape{1, 2, 1, false}

	p = cloneProg(base) // a read running off the left row into the right one
	p.PerTuple = append(p.PerTuple, ew(AAdd, nR, nR, Slot{L.Base + 1, r}))
	v["read-straddles-row-edge"], want["read-straddles-row-edge"] = p, lrmfShape{0, 2, 2, false}

	p = cloneProg(base) // the left row scaled where it was gathered
	p.PerTuple = append(p.PerTuple[:2:2], append([]Instr{ew(AMul, L, L, Slot{lr.Base, 1})}, base.PerTuple[2:]...)...)
	v["row-written-in-scratch"], want["row-written-in-scratch"] = p, lrmfShape{1, 2, 2, false}

	p = cloneProg(base) // the right gather's index is the left row's first word
	p.PerTuple[1].A = Slot{L.Base, 1}
	v["index-inside-viewed-row"], want["index-inside-viewed-row"] = p, lrmfShape{2, 2, 1, false}

	p = cloneProg(base) // RowUpdates writes the model elementwise, then reads the left row
	p.RowUpdates = append([]Instr{ew(AMov, Slot{0, r}, nL, Slot{}), ew(AAdd, nR, nR, L)}, p.RowUpdates...)
	v["model-written-before-read"], want["model-written-before-read"] = p, lrmfShape{1, 2, 2, false}

	p = cloneProg(base) // the left step's outer temp is read by a later instruction
	p.PerTuple = append(p.PerTuple, ew(AAdd, nR, nR, sL))
	v["step-temp-read-later"], want["step-temp-read-later"] = p, lrmfShape{2, 1, 2, false}

	p = grow(cloneProg(base)) // the left step's inner temp is read by Convergence
	p.Convergence = []Instr{{Kind: KReduce, Op: AAdd, Dst: Slot{spare.Base, 1}, A: gL, GroupSize: r, EStride: 1}}
	p.ConvSlot = Slot{spare.Base, 1}
	v["step-temp-read-in-convergence"], want["step-temp-read-in-convergence"] = p, lrmfShape{2, 1, 2, false}

	p = grow(cloneProg(base)) // the left step writes one word into the vector it scales
	p.PerTuple = append(p.PerTuple[:5:5], append([]Instr{ew(AMov, spare, R, Slot{})}, base.PerTuple[5:]...)...)
	p.PerTuple[6].B = spare
	p.PerTuple[8].Dst = Slot{spare.Base + 1, r}
	p.RowUpdates[0].A = Slot{spare.Base + 1, r}
	v["step-dst-overlaps-b"], want["step-dst-overlaps-b"] = p, lrmfShape{2, 1, 2, false}

	p = cloneProg(base) // the left step writes over its outer temp two words on; a later read of one word past it
	p.PerTuple[7].Dst = Slot{sL.Base + 2, r}
	p.PerTuple = append(p.PerTuple, ew(AAdd, Slot{nR.Base, 1}, Slot{nR.Base, 1}, Slot{sL.Base + r + 1, 1}))
	v["step-dst-overlaps-temp"], want["step-dst-overlaps-temp"] = p, lrmfShape{2, 1, 2, false}

	p = cloneProg(base) // the right step first; then the left one writes the model across rows 0 and 1, under the right row's view
	p.PerTuple = append(append(p.PerTuple[:5:5], base.PerTuple[8:11]...), base.PerTuple[5:8]...)
	p.PerTuple[10].Dst = Slot{1, r}
	p.RowUpdates = p.RowUpdates[1:]
	v["step-writes-model-under-view"], want["step-writes-model-under-view"] = p, lrmfShape{1, 1, 1, false}

	p = cloneProg(base) // the left step's learning rate is a word of its own destination
	p.PerTuple[6].A = Slot{nL.Base + 2, 1}
	v["step-scalar-inside-dst"], want["step-scalar-inside-dst"] = p, lrmfShape{2, 1, 2, false}

	p = grow(cloneProg(base)) // both steps update a copy of their row in place
	p.PerTuple = append(p.PerTuple[:5:5], append([]Instr{ew(AMov, spare, L, Slot{}), ew(AMov, spare2, R, Slot{})}, base.PerTuple[5:]...)...)
	p.PerTuple[9].Dst, p.PerTuple[9].A = spare, spare
	p.PerTuple[12].Dst, p.PerTuple[12].A = spare2, spare2
	p.RowUpdates[0].A, p.RowUpdates[1].A = spare, spare2
	v["step-dst-is-a"], want["step-dst-is-a"] = p, lrmfShape{2, 2, 2, false}

	p = cloneProg(base) // ew.mul(vec, scalar), both times
	for _, i := range []int{5, 6, 8, 9} {
		p.PerTuple[i].A, p.PerTuple[i].B = p.PerTuple[i].B, p.PerTuple[i].A
	}
	v["step-commuted-mul"], want["step-commuted-mul"] = p, lrmfShape{2, 2, 2, true}
	return v, want
}

// TestPlanMatchesReferenceShapes: every bent GLM and the LRMF shape, on
// every batch shape.
func TestPlanMatchesReferenceShapes(t *testing.T) {
	// At 6 threads a direct batch is one full lane group and a remainder; at
	// 13, the batch's first group, two more full ones and a remainder of one.
	const f = 12
	cfg := Config{ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{6, 13} {
		cfg.Threads = k
		for name, p := range glmVariants(f) {
			tuples := diffTuples(rng, 11*k, p.InputSlot.Len, 0)
			init := make([]float32, f)
			for i := range init {
				init[i] = float32(rng.NormFloat64() * 0.1)
			}
			if err := diffPlanReference(diffCase{prog: p, cfg: cfg, init: init, batches: diffBatches(tuples, k)}); err != nil {
				t.Errorf("%s threads=%d: %v", name, k, err)
			}
		}
	}
	// LRMF: gather index == scatter index (a tuple whose two rows are
	// one row sends both scatters there), 1 thread and, for the shape's
	// sake, the same program under a 3-thread config.
	p := lrmfProg(6, 4)
	tuples := diffTuples(rng, 40, 3, 6)
	for i := range tuples {
		if i%5 == 0 {
			tuples[i][1] = tuples[i][0]
		}
	}
	// (Factors stay inside ±0.45, so a variant that reads a row index out
	// of a gathered row rounds it to row 0.)
	init := make([]float32, 24)
	for i := range init {
		init[i] = float32(math.Max(-0.45, math.Min(0.45, rng.NormFloat64()*0.3)))
	}
	// And with the left index word overwritten between its gather and its
	// scatter: the scatter must round the new value, not reuse the old.
	q := cloneProg(p)
	q.PerTuple = append(q.PerTuple, Instr{Kind: KEW, Op: AMov, Dst: q.RowUpdates[0].B, A: q.RowUpdates[1].B})
	progs, _ := lrmfVariants(6, 4)
	progs["lrmf"], progs["lrmf-index-rewritten"] = p, q
	for name, prog := range progs {
		for _, threads := range []int{1, 3} {
			cfg.Threads = threads
			if err := diffPlanReference(diffCase{prog: prog, cfg: cfg, init: init, batches: diffBatches(tuples, 1)}); err != nil {
				t.Errorf("%s threads=%d: %v", name, threads, err)
			}
		}
	}
}

// TestPlanShape pins what the lowering decided for the shapes above, so
// a green differential cannot come from a plan that quietly fused
// nothing (or a liveness rule that refuses everything).
func TestPlanShape(t *testing.T) {
	const f = 12
	cfg := Config{Threads: 4, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}
	type shape struct {
		dot, fusedAcc, copyInput, shareModel, sharePads, step bool
	}
	want := map[string]shape{
		"base":                         {dot: true, fusedAcc: true, shareModel: true, sharePads: true},
		"prod-read-in-postmerge":       {fusedAcc: true, shareModel: true},
		"prod-read-by-next-tuple":      {fusedAcc: true, shareModel: true},
		"mergesrc-read-in-convergence": {dot: true, shareModel: true},
		"mergedst-is-mergesrc":         {dot: true, fusedAcc: true, shareModel: true, sharePads: true},
		"input-read-in-postmerge":      {dot: true, fusedAcc: true, copyInput: true, shareModel: true},
		"pertuple-writes-model":        {dot: true, fusedAcc: true},
		"read-straddles-model-edge":    {dot: true, fusedAcc: true, copyInput: true},
		"dot-operand-overlaps-product": {fusedAcc: true, shareModel: true}, // the straddling read is refused, though the loop feeds on this tuple's products only
		"input-overlaps-model":         {dot: true, fusedAcc: true, copyInput: true},
		"overlapping-and-wrapped":      {fusedAcc: true, shareModel: true, sharePads: true},
		"svm-shape":                    {dot: true, fusedAcc: true, shareModel: true, sharePads: true},
		"merge-by-product":             {dot: true, shareModel: true, sharePads: true},
		"no-merge":                     {dot: true, step: true},
		"no-merge-linear":              {dot: true, step: true},

		"temp-partly-rewritten-before-read": {dot: true, shareModel: true},
		"temp-rewritten-before-read":        {dot: true, fusedAcc: true, shareModel: true, sharePads: true},
		"const-written-in-postmerge":        {dot: true, fusedAcc: true, shareModel: true},
		"postmerge-word-read-per-tuple":     {dot: true, fusedAcc: true, shareModel: true},
		"mergesrc-never-written-per-tuple":  {dot: true, shareModel: true},
		"temp-rewritten-in-postmerge":       {dot: true, shareModel: true},
		"running-sum-across-tuples":         {dot: true, fusedAcc: true, shareModel: true},
		"mergedst-lands-on-const":           {dot: true, fusedAcc: true, shareModel: true},
		"pertuple-parks-word-in-model":      {dot: true, fusedAcc: true}, // an unshared model alone refuses it: Model() reads the word
	}
	for name, p := range glmVariants(f) {
		m, err := NewMachine(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := shape{fusedAcc: m.plan.fusedAcc, copyInput: m.plan.copyInput, shareModel: m.plan.shareModel, sharePads: m.plan.sharePads}
		for _, o := range m.plan.perTuple {
			got.dot = got.dot || o.kind == opDot
			got.step = got.step || o.kind == opStep
		}
		if got != want[name] {
			t.Errorf("%s: lowered to %+v, want %+v", name, got, want[name])
		}
	}

	// LRMF is one row kernel standing for view, view, dot, scalar, step,
	// step and two paired scatters: 1 op for 13 instructions, inside the
	// slab of 13 the eight were lowered into.
	lrmfCfg := Config{Threads: 1, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}
	m, err := NewMachine(lrmfProg(6, 4), lrmfCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.plan.perTuple) != 1 || m.plan.perTuple[0].kind != opRowSGD || len(m.plan.rowUpdates) != 0 {
		t.Fatalf("lrmf: per-tuple %d ops, row updates %d; want one row kernel and nothing else", len(m.plan.perTuple), len(m.plan.rowUpdates))
	}
	parts := m.plan.perTuple[0].parts
	var kinds []opKind
	for _, o := range parts {
		kinds = append(kinds, o.kind)
	}
	if wantKinds := []opKind{opGatherView, opGatherView, opDot, opScalar, opStep, opStep, opScatterPaired, opScatterPaired}; m.plan.copyInput || fmt.Sprint(kinds) != fmt.Sprint(wantKinds) {
		t.Errorf("lrmf: copyInput=%v, row kernel of kinds %v; want in-place input, kinds %v", m.plan.copyInput, kinds, wantKinds)
	}
	for i, o := range parts[6:] {
		if int(o.reg) != i || int(parts[i].reg) != i {
			t.Errorf("lrmf: row update %d is reg %d, want a scatter paired with gather %d", i, o.reg, i)
		}
	}
	progs, wantLRMF := lrmfVariants(6, 4)
	for name, p := range progs {
		m, err := NewMachine(p, lrmfCfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := lrmfShape{rowSGD: m.plan.perTuple[0].kind == opRowSGD}
		for _, list := range [][]op{m.plan.perTuple, m.plan.rowUpdates} {
			for _, o := range unfused(list) {
				switch o.kind {
				case opGatherView:
					got.views++
				case opStep:
					got.steps++
				case opScatterPaired:
					got.paired++
				}
			}
		}
		if got != wantLRMF[name] {
			t.Errorf("lrmf %s: lowered to %+v, want %+v", name, got, wantLRMF[name])
		}
		// The second gather of this one reads its index through the first's view.
		if name != "index-inside-viewed-row" {
			continue
		}
		if g := m.plan.perTuple[1]; g.a.sp != spView+space(m.plan.perTuple[0].reg) {
			t.Errorf("lrmf %s: second gather reads its index from memory %d, want view %d", name, g.a.sp, m.plan.perTuple[0].reg)
		}
	}
}

// randProgram draws a straight-line program over a small scratchpad with
// no regard for what overlaps what: regions, operands and destinations
// land anywhere Validate allows. Most of these lower with no fusion at
// all; dotPair plants ew.mul+red.add pairs, stepTriple the SGD step,
// rowGroup a gather, a reader of its row and a scatter, and the last
// per-tuple instruction is often a MergeSrc producer, so the liveness and
// aliasing rules see both verdicts. Programs this loose all but never
// reach the pad proof (two in 1500 pass inputInPlace and modelShareable),
// so one draw in four is randGLM's instead; nor LRMF's row kernel, which
// needs eight ops in one exact shape, so one in eight is randLRMF's.
func randProgram(rng *rand.Rand) (*Program, int) {
	if rng.Intn(4) == 0 {
		return randGLM(rng), 0
	}
	if rng.Intn(8) == 0 {
		return randLRMF(rng)
	}
	slots := 40 + rng.Intn(40)
	slot := func(n int) Slot {
		if n > slots {
			n = slots
		}
		return Slot{rng.Intn(slots - n + 1), n}
	}
	lens := []int{1, 1, 2, 3, 5, 8}
	anyLen := func() int { return lens[rng.Intn(len(lens))] }
	rowLen := 1 + rng.Intn(3)
	rows := 2 + rng.Intn(3)
	p := &Program{Slots: slots, ModelSlot: slot(rows * rowLen), InputSlot: slot(3 + rng.Intn(6)), ConstSlot: slot(2)}
	p.Consts = []float32{0.05, -0.5}
	if rng.Intn(4) > 0 {
		n := 1 + rng.Intn(8)
		p.MergeSrc, p.MergeDst = slot(n), slot(n)
		p.MergeOp = []AluOp{AAdd, AAdd, AAdd, AMul, ASub}[rng.Intn(5)]
	}
	if rng.Intn(3) > 0 {
		p.UpdatedSlot = slot(p.ModelSlot.Len)
	}
	ops := []AluOp{AAdd, ASub, AMul, AMul, AMov, ASquare, ALt, AGt, ASigmoid, AGaussian}
	instr := func() Instr {
		switch rng.Intn(10) {
		case 0:
			g, groups := 1+rng.Intn(5), 1+rng.Intn(3)
			es, gs := 1+rng.Intn(2), rng.Intn(4)
			span := (groups-1)*gs + (g-1)*es + 1
			return Instr{Kind: KReduce, Op: []AluOp{AAdd, AAdd, AMul}[rng.Intn(3)], Dst: slot(groups), A: Slot{slot(span).Base, g}, GroupSize: g, GStride: gs, EStride: es}
		case 1:
			return Instr{Kind: KGather, Dst: slot(rowLen), A: Slot{p.InputSlot.Base + rng.Intn(2), 1}, RowLen: rowLen}
		case 2:
			return Instr{Kind: KScatter, A: slot(rowLen), B: Slot{p.InputSlot.Base + rng.Intn(2), 1}, RowLen: rowLen}
		}
		n := anyLen()
		a, b := slot(n), slot(n)
		switch rng.Intn(4) {
		case 0:
			a = slot(1)
		case 1:
			b = slot(1)
		case 2:
			a = slot(1 + rng.Intn(n)) // wrapped: i mod Len
		}
		return Instr{Kind: KEW, Op: ops[rng.Intn(len(ops))], Dst: slot(n), A: a, B: b}
	}
	list := func(max int) []Instr {
		var l []Instr
		for i, n := 0, rng.Intn(max+1); i < n; i++ {
			l = append(l, instr())
		}
		return l
	}
	dotPair := func() []Instr {
		n := 2 + rng.Intn(6)
		t := slot(n)
		return []Instr{{Kind: KEW, Op: AMul, Dst: t, A: slot(n), B: slot(n)},
			{Kind: KReduce, Op: AAdd, Dst: slot(1), A: t, GroupSize: n, EStride: 1}}
	}
	flip := func(in Instr) Instr {
		if rng.Intn(4) == 0 {
			in.A, in.B = in.B, in.A
		}
		return in
	}
	// own is, half the time, words past everything slot() can reach: a
	// temporary nothing else in the program touches.
	own := func(n int) Slot {
		if rng.Intn(2) == 0 {
			return slot(n)
		}
		p.Slots += n
		return Slot{p.Slots - n, n}
	}
	stepTriple := func() []Instr {
		n := 2 + rng.Intn(6)
		t1, t2 := own(n), own(n)
		return []Instr{flip(Instr{Kind: KEW, Op: AMul, Dst: t1, A: slot(1), B: slot(n)}),
			flip(Instr{Kind: KEW, Op: AMul, Dst: t2, A: slot(1), B: t1}),
			{Kind: KEW, Op: ASub, Dst: own(n), A: slot(n), B: t2}}
	}
	var scatters []Instr
	rowGroup := func() []Instr {
		row, out, idx := own(rowLen), slot(rowLen), Slot{p.InputSlot.Base + rng.Intn(2), 1}
		scatters = append(scatters, Instr{Kind: KScatter, A: out, B: idx, RowLen: rowLen})
		g := []Instr{{Kind: KGather, Dst: row, A: idx, RowLen: rowLen},
			{Kind: KEW, Op: ops[rng.Intn(3)], Dst: out, A: row, B: slot(1)}}
		if rng.Intn(6) == 0 { // read on the wrap: the last tuple's row
			g[0], g[1] = g[1], g[0]
		}
		return g
	}
	p.PerTuple = list(3)
	for i, n := 0, rng.Intn(3); i < n; i++ {
		p.PerTuple = append(p.PerTuple, rowGroup()...)
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		p.PerTuple = append(p.PerTuple, dotPair()...)
		p.PerTuple = append(p.PerTuple, list(2)...)
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		p.PerTuple = append(p.PerTuple, stepTriple()...)
	}
	if p.HasMerge() && rng.Intn(6) > 0 {
		n := p.MergeSrc.Len
		in := Instr{Kind: KEW, Op: []AluOp{AMul, ASub, AAdd}[rng.Intn(3)], Dst: p.MergeSrc, A: slot(n), B: slot(n)}
		if in.Op == AMul {
			switch rng.Intn(3) {
			case 0:
				in.A = slot(1)
			case 1:
				in.B = slot(1)
			}
		}
		p.PerTuple = append(p.PerTuple, in)
	}
	if p.HasMerge() {
		p.PostMerge = list(3)
	}
	p.RowUpdates = append(list(2), scatters...)
	if rng.Intn(3) == 0 {
		p.Convergence = list(2)
		p.ConvSlot = slot(1)
	}
	return p, rows
}

// randGLM draws a tidy merge program — glmProg at a random width, regions
// disjoint, row and model read in place — and bends it up to three times:
// extra per-tuple work on a temporary of its own, written whole before it
// is read (pads stay shareable) or read first (a thread-carried temp:
// they do not); a once-a-batch stage reading the merged vector (shareable)
// or one of the per-tuple stage's temporaries (not).
func randGLM(rng *rand.Rand) *Program {
	f := 2 + rng.Intn(9)
	p := glmProg(f, rng.Intn(2) == 0)
	x, lr, merged := Slot{f, f}, p.ConstSlot, p.MergeDst
	temps := []Slot{p.PerTuple[0].Dst, p.PerTuple[1].Dst, p.PerTuple[2].Dst, p.PerTuple[3].Dst, p.MergeSrc}
	own := func(n int) Slot { p.Slots += n; return Slot{p.Slots - n, n} }
	errS := p.PerTuple[3].Dst
	for i, n := 0, rng.Intn(4); i < n; i++ {
		switch rng.Intn(5) {
		case 0, 1: // v = x·lr; err += v[j] — the read before the write one time in three
			v := own(f)
			work := []Instr{{Kind: KEW, Op: AMul, Dst: v, A: x, B: lr},
				{Kind: KEW, Op: AAdd, Dst: errS, A: errS, B: Slot{v.Base + rng.Intn(f), 1}}}
			if rng.Intn(3) == 0 {
				work[0], work[1] = work[1], work[0]
			}
			p.PerTuple = append(p.PerTuple[:4:4], append(work, p.PerTuple[4:]...)...)
		case 2: // PostMerge folds a word into the new model
			src := merged
			if rng.Intn(2) == 0 {
				src = temps[rng.Intn(len(temps))]
			}
			p.PostMerge = append(p.PostMerge, Instr{Kind: KEW, Op: AAdd, Dst: p.UpdatedSlot, A: p.UpdatedSlot, B: Slot{src.Base, 1}})
		case 3: // Convergence tests a word
			src := merged
			if rng.Intn(2) == 0 {
				src = temps[rng.Intn(len(temps))]
			}
			p.ConvSlot = own(1)
			p.Convergence = []Instr{{Kind: KEW, Op: ALt, Dst: p.ConvSlot, A: Slot{src.Base, 1}, B: lr}}
		case 4: // the merged value lands back on MergeSrc
			p.MergeDst = p.MergeSrc
			p.PostMerge[0].B = p.MergeSrc
			merged = p.MergeSrc
		}
	}
	return p
}

// randLRMF draws LRMF at a random row count and rank: half the time one of
// the bent lrmfVariants, most of which refuse the row kernel; otherwise
// the base shape with what the kernel must take as it comes varied — the
// error's operator, the learning rate read from the tuple instead of a
// constant, each scaling's operands commuted — and, one time in four, the
// dot's operands swapped, which the kernel's shape refuses.
func randLRMF(rng *rand.Rand) (*Program, int) {
	rows, r := 2+rng.Intn(7), 2+rng.Intn(9)
	progs, _ := lrmfVariants(rows, r)
	if rng.Intn(2) == 0 {
		names := make([]string, 0, len(progs))
		for name := range progs {
			names = append(names, name)
		}
		sort.Strings(names)
		return progs[names[rng.Intn(len(names))]], rows
	}
	p := progs["base"]
	p.PerTuple[4].Op = []AluOp{ASub, ASub, AAdd, AMul, ASigmoid}[rng.Intn(5)]
	if rng.Intn(3) == 0 {
		p.PerTuple[6].A, p.PerTuple[9].A = p.PerTuple[4].B, p.PerTuple[4].B // the rating as learning rate
	}
	for _, i := range []int{5, 6, 8, 9} {
		if rng.Intn(2) == 0 {
			p.PerTuple[i].A, p.PerTuple[i].B = p.PerTuple[i].B, p.PerTuple[i].A
		}
	}
	if rng.Intn(4) == 0 {
		p.PerTuple[2].A, p.PerTuple[2].B = p.PerTuple[2].B, p.PerTuple[2].A
	}
	return p, rows
}

// TestPlanMatchesReferenceRandom: seeded random programs, every batch
// shape.
func TestPlanMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	fused, elided, refused := 0, 0, 0
	var steps, stepShapes, views, gathers int // gathers: of merge-free programs, the only ones that can view
	var laned, threaded int                   // of programs lowered to in-place rows and a shared model at > dotLanes threads: pads per lane, per thread
	var rowKernels, nearRowKernels int        // programs lowered to one row kernel; to two views and a step but not one
	for trial := 0; trial < 2000; trial++ {
		p, rows := randProgram(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generator made an invalid program: %v", trial, err)
		}
		k := 1 + rng.Intn(6)
		cfg := Config{Threads: k, ACsPerThread: 1, AUsPerAC: 1, ClockHz: 150e6}
		tuples := diffTuples(rng, 9*k+3, p.InputSlot.Len, rows)
		init := make([]float32, p.ModelSlot.Len)
		for i := range init {
			init[i] = float32(rng.NormFloat64() * 0.3)
		}
		c := diffCase{prog: p, cfg: cfg, init: init, batches: diffBatches(tuples, k)}
		if err := diffPlanReference(c); err != nil {
			t.Fatalf("trial %d threads=%d: %v\n%s", trial, k, err, Listing(p))
		}
		m, _ := NewMachine(p, cfg)
		if m.plan.fusedAcc {
			fused++
		}
		if m.plan.shareModel && !m.plan.copyInput && k > dotLanes {
			if m.plan.sharePads {
				laned++
			} else {
				threaded++
			}
		}
		for i := 0; i+1 < len(p.PerTuple); i++ {
			if isDot(&p.PerTuple[i], &p.PerTuple[i+1]) {
				if p.dead(p.PerTuple[i].Dst, i, i+1, false) {
					elided++
				} else {
					refused++
				}
			}
		}
		for i := range p.PerTuple {
			if i+2 < len(p.PerTuple) {
				if _, _, _, _, ok := isStep(&p.PerTuple[i], &p.PerTuple[i+1], &p.PerTuple[i+2]); ok {
					stepShapes++
				}
			}
			if p.PerTuple[i].Kind == KGather && !p.HasMerge() {
				gathers++
			}
		}
		pv, ps := 0, 0 // this program's views and steps
		for _, o := range unfused(m.plan.perTuple) {
			switch o.kind {
			case opStep:
				ps++
			case opGatherView:
				pv++
			}
		}
		steps, views = steps+ps, views+pv
		switch {
		case len(m.plan.perTuple) > 0 && m.plan.perTuple[0].kind == opRowSGD:
			rowKernels++
		case pv >= 2 && ps >= 1:
			nearRowKernels++
		}
	}
	if fused < 40 || elided < 80 || refused < 80 {
		t.Errorf("generator too tame: %d fused accumulates, %d product vectors elided, %d kept live; want ≥ 40, 80, 80", fused, elided, refused)
	}
	if steps < 80 || stepShapes-steps < 80 || views < 80 || gathers-views < 80 {
		t.Errorf("generator too tame: %d steps fused, %d refused, %d gathers viewed, %d copied; want ≥ 80 each", steps, stepShapes-steps, views, gathers-views)
	}
	if rowKernels < 40 || nearRowKernels < 40 {
		t.Errorf("generator too tame: %d programs lowered to a row kernel, %d to two views and a step without one; want ≥ 40 each", rowKernels, nearRowKernels)
	}
	if laned < 40 || threaded < 40 {
		t.Errorf("generator too tame: %d programs ran on a pad per lane, %d were refused one; want ≥ 40 each", laned, threaded)
	}
}
