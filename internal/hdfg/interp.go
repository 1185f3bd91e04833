package hdfg

import (
	"fmt"
	"math"

	"dana/internal/dsl"
)

// Interp is a float64 reference interpreter for an hDFG. It implements
// the exact training semantics the accelerator must reproduce: per-tuple
// update-rule evaluation, batched merge, post-merge model update, and
// per-epoch convergence checks. The accelerator simulator is validated
// against this golden model.
type Interp struct {
	G     *Graph
	model []float64
	vals  [][]float64 // last computed value per node ID
}

// NewInterp creates an interpreter with the given initial model (copied).
// A nil model initializes to zeros.
func NewInterp(g *Graph, initModel []float64) (*Interp, error) {
	n := g.ModelSize()
	m := make([]float64, n)
	if initModel != nil {
		if len(initModel) != n {
			return nil, fmt.Errorf("hdfg: initial model has %d values, model shape %v needs %d", len(initModel), g.Model.Shape, n)
		}
		copy(m, initModel)
	}
	return &Interp{G: g, model: m, vals: make([][]float64, len(g.Nodes))}, nil
}

// Model returns the current model parameters (aliased; copy to retain).
func (it *Interp) Model() []float64 { return it.model }

// SetModel overwrites the model parameters.
func (it *Interp) SetModel(m []float64) error {
	if len(m) != len(it.model) {
		return fmt.Errorf("hdfg: model size %d, got %d", len(it.model), len(m))
	}
	copy(it.model, m)
	return nil
}

// bindLeaf produces the value of a leaf for the given tuple.
func (it *Interp) bindLeaf(n *Node, tuple []float64) ([]float64, error) {
	switch n.Kind {
	case dsl.KModel:
		return it.model, nil
	case dsl.KMeta:
		return []float64{n.MetaValue}, nil
	case dsl.KInput, dsl.KOutput:
		off := 0
		for _, in := range it.G.Inputs {
			if in == n {
				return tuple[off : off+n.Shape.Size()], nil
			}
			off += in.Shape.Size()
		}
		for _, out := range it.G.Outputs {
			if out == n {
				return tuple[off : off+n.Shape.Size()], nil
			}
			off += out.Shape.Size()
		}
		return nil, fmt.Errorf("hdfg: leaf %v not among inputs/outputs", n)
	default:
		return nil, fmt.Errorf("hdfg: unbound leaf %v", n)
	}
}

// evalNode computes one non-leaf node from its argument values.
func (it *Interp) evalNode(n *Node) ([]float64, error) {
	argv := make([][]float64, len(n.Args))
	for i, a := range n.Args {
		v := it.vals[a.ID]
		if v == nil {
			return nil, fmt.Errorf("hdfg: %v evaluated before its operand %v", n, a)
		}
		argv[i] = v
	}
	switch {
	case n.Op.IsBinary():
		return evalBinary(n.Op, n.Args[0].Shape, argv[0], n.Args[1].Shape, argv[1], n.Shape)
	case n.Op.IsNonLinear():
		out := make([]float64, n.Shape.Size())
		if len(argv[0]) < len(out) {
			return nil, fmt.Errorf("hdfg: %v operand has %d values, shape %v needs %d", n, len(argv[0]), n.Shape, len(out))
		}
		for i := range out {
			v, err := scalarFunc(n.Op, argv[0][i])
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case n.Op.IsGroup():
		return evalGroup(n.Op, n.Axis, n.Args[0].Shape, argv[0], n.Shape), nil
	case n.Op == dsl.OpGather:
		if it.G.Model.Shape.NDim() != 2 {
			return nil, fmt.Errorf("hdfg: gather needs a 2-D model, have shape %v", it.G.Model.Shape)
		}
		cols := it.G.Model.Shape[1]
		rows := it.G.Model.Shape[0]
		if len(argv[1]) == 0 {
			return nil, fmt.Errorf("hdfg: gather index operand is empty")
		}
		idx := int(math.Round(argv[1][0]))
		if idx < 0 || idx >= rows {
			return nil, fmt.Errorf("hdfg: gather index %d out of model rows [0,%d)", idx, rows)
		}
		if (idx+1)*cols > len(argv[0]) {
			return nil, fmt.Errorf("hdfg: gather row %d overruns operand of %d values", idx, len(argv[0]))
		}
		out := make([]float64, cols)
		copy(out, argv[0][idx*cols:(idx+1)*cols])
		return out, nil
	case n.Op == dsl.OpMerge:
		// The merge node's per-batch value is set by StepBatch; seeing
		// it here means a per-tuple node consumed it, which rewiring
		// prevents.
		return nil, fmt.Errorf("hdfg: merge node evaluated as ordinary op")
	default:
		return nil, fmt.Errorf("hdfg: cannot evaluate %v", n)
	}
}

func scalarFunc(op dsl.Op, x float64) (float64, error) {
	switch op {
	case dsl.OpSigmoid:
		return 1 / (1 + math.Exp(-x)), nil
	case dsl.OpGaussian:
		return math.Exp(-x * x), nil
	case dsl.OpSqrt:
		return math.Sqrt(x), nil
	default:
		return 0, fmt.Errorf("hdfg: op %v is not a scalar function", op)
	}
}

func scalarBin(op dsl.Op, a, b float64) (float64, error) {
	switch op {
	case dsl.OpAdd:
		return a + b, nil
	case dsl.OpSub:
		return a - b, nil
	case dsl.OpMul:
		return a * b, nil
	case dsl.OpDiv:
		return a / b, nil
	case dsl.OpLt:
		if a < b {
			return 1, nil
		}
		return 0, nil
	case dsl.OpGt:
		if a > b {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("hdfg: op %v is not a binary op", op)
	}
}

func evalBinary(op dsl.Op, as Shape, a []float64, bs Shape, b []float64, out Shape) ([]float64, error) {
	// Validate the op once up front so the loops below can use mustBin.
	if _, err := scalarBin(op, 0, 1); err != nil {
		return nil, err
	}
	mustBin := func(a, b float64) float64 {
		v, _ := scalarBin(op, a, b)
		return v
	}
	res := make([]float64, out.Size())
	overrun := func(need, have int, which string) error {
		return fmt.Errorf("hdfg: %v operand %s has %d values, broadcast needs %d", op, which, have, need)
	}
	switch {
	case as.Equal(bs):
		if len(a) < len(res) {
			return nil, overrun(len(res), len(a), "a")
		}
		if len(b) < len(res) {
			return nil, overrun(len(res), len(b), "b")
		}
		for i := range res {
			res[i] = mustBin(a[i], b[i])
		}
	case as.NDim() == 0:
		if len(a) == 0 {
			return nil, overrun(1, 0, "a")
		}
		if len(b) < len(res) {
			return nil, overrun(len(res), len(b), "b")
		}
		for i := range res {
			res[i] = mustBin(a[0], b[i])
		}
	case bs.NDim() == 0:
		if len(b) == 0 {
			return nil, overrun(1, 0, "b")
		}
		if len(a) < len(res) {
			return nil, overrun(len(res), len(a), "a")
		}
		for i := range res {
			res[i] = mustBin(a[i], b[0])
		}
	case isSuffix(as, bs):
		n := as.Size()
		if n == 0 || len(a) < n {
			return nil, overrun(n, len(a), "a")
		}
		if len(b) < len(res) {
			return nil, overrun(len(res), len(b), "b")
		}
		for i := range res {
			res[i] = mustBin(a[i%n], b[i])
		}
	case isSuffix(bs, as):
		n := bs.Size()
		if n == 0 || len(b) < n {
			return nil, overrun(n, len(b), "b")
		}
		if len(a) < len(res) {
			return nil, overrun(len(res), len(a), "a")
		}
		for i := range res {
			res[i] = mustBin(a[i], b[i%n])
		}
	case as.NDim() == 2 && bs.NDim() == 2 && as[1] == bs[1]:
		// Contraction intermediate [a0, b0, k].
		ra, rb, k := as[0], bs[0], as[1]
		if len(a) < ra*k {
			return nil, overrun(ra*k, len(a), "a")
		}
		if len(b) < rb*k {
			return nil, overrun(rb*k, len(b), "b")
		}
		if len(res) < ra*rb*k {
			return nil, fmt.Errorf("hdfg: contraction output shape %v too small for [%d,%d,%d]", out, ra, rb, k)
		}
		for i := 0; i < ra; i++ {
			for j := 0; j < rb; j++ {
				for l := 0; l < k; l++ {
					res[(i*rb+j)*k+l] = mustBin(a[i*k+l], b[j*k+l])
				}
			}
		}
	default:
		return nil, fmt.Errorf("hdfg: unbroadcastable shapes %v, %v escaped inference", as, bs)
	}
	return res, nil
}

func evalGroup(op dsl.Op, axis int, as Shape, a []float64, out Shape) []float64 {
	reduce := func(dst []float64, idx int, x float64, first bool) {
		switch op {
		case dsl.OpSigma:
			dst[idx] += x
		case dsl.OpPi:
			if first {
				dst[idx] = x
			} else {
				dst[idx] *= x
			}
		case dsl.OpNorm:
			dst[idx] += float64(x * x) // rounded here: the add must not fuse it
		}
	}
	res := make([]float64, out.Size())
	switch as.NDim() {
	case 1:
		for i, x := range a {
			reduce(res, 0, x, i == 0)
		}
	case 2:
		r, c := as[0], as[1]
		if axis == 1 { // reduce rows: out[j] over i
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					reduce(res, j, a[i*c+j], i == 0)
				}
			}
		} else { // reduce columns: out[i] over j
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					reduce(res, i, a[i*c+j], j == 0)
				}
			}
		}
	case 3:
		ra, rb, k := as[0], as[1], as[2]
		for ij := 0; ij < ra*rb; ij++ {
			for l := 0; l < k; l++ {
				reduce(res, ij, a[ij*k+l], l == 0)
			}
		}
	}
	if op == dsl.OpNorm {
		for i := range res {
			res[i] = math.Sqrt(res[i])
		}
	}
	return res
}

// evalStage evaluates all nodes matching the predicate, in topo order,
// binding leaves against the given tuple (nil tuple binds only model and
// meta leaves).
func (it *Interp) evalStage(tuple []float64, want func(*Node) bool) error {
	for _, n := range it.G.Nodes {
		if n.IsLeaf() {
			if n.Kind == dsl.KInput || n.Kind == dsl.KOutput {
				if tuple == nil {
					continue
				}
			}
			v, err := it.bindLeaf(n, tuple)
			if err != nil {
				return err
			}
			it.vals[n.ID] = v
			continue
		}
		if !want(n) {
			continue
		}
		v, err := it.evalNode(n)
		if err != nil {
			return err
		}
		it.vals[n.ID] = v
	}
	return nil
}

func perTuple(n *Node) bool  { return !n.PostMerge && !n.ConvOnly }
func postMerge(n *Node) bool { return n.PostMerge && !n.ConvOnly && n.Op != dsl.OpMerge }
func convStage(n *Node) bool { return n.ConvOnly }

// applyUpdates writes the update roots into the model.
func (it *Interp) applyUpdates(stage func(*Node) bool) error {
	g := it.G
	if g.Updated != nil && stage(g.Updated) {
		v := it.vals[g.Updated.ID]
		if v == nil {
			return fmt.Errorf("hdfg: updated model not evaluated")
		}
		copy(it.model, v)
	}
	for _, ru := range g.RowUpdates {
		if !stage(ru.Val) {
			continue
		}
		idxv, valv := it.vals[ru.Idx.ID], it.vals[ru.Val.ID]
		if idxv == nil || valv == nil {
			return fmt.Errorf("hdfg: row update not evaluated")
		}
		if g.Model.Shape.NDim() != 2 {
			return fmt.Errorf("hdfg: row update needs a 2-D model, have shape %v", g.Model.Shape)
		}
		if len(idxv) == 0 {
			return fmt.Errorf("hdfg: row update index is empty")
		}
		cols := g.Model.Shape[1]
		idx := int(math.Round(idxv[0]))
		if idx < 0 || idx >= g.Model.Shape[0] {
			return fmt.Errorf("hdfg: row update index %d out of range", idx)
		}
		if len(valv) < cols {
			return fmt.Errorf("hdfg: row update value has %d values, row needs %d", len(valv), cols)
		}
		copy(it.model[idx*cols:(idx+1)*cols], valv)
	}
	return nil
}

// StepBatch runs one merge batch: the per-tuple stage for every tuple,
// accumulation of the merged variable, then the post-merge stage and
// model update. With no merge function each tuple updates the model
// immediately (plain SGD).
func (it *Interp) StepBatch(tuples [][]float64) error {
	g := it.G
	want := g.TupleWidth()
	if g.Merge == nil {
		for _, t := range tuples {
			if len(t) != want {
				return fmt.Errorf("hdfg: tuple width %d, want %d", len(t), want)
			}
			if err := it.evalStage(t, perTuple); err != nil {
				return err
			}
			if err := it.applyUpdates(perTuple); err != nil {
				return err
			}
		}
		return nil
	}
	var acc []float64
	for i, t := range tuples {
		if len(t) != want {
			return fmt.Errorf("hdfg: tuple width %d, want %d", len(t), want)
		}
		if err := it.evalStage(t, perTuple); err != nil {
			return err
		}
		x := it.vals[g.Merge.Args[0].ID]
		if x == nil {
			return fmt.Errorf("hdfg: merged variable not evaluated")
		}
		if i == 0 {
			acc = append([]float64(nil), x...)
		} else {
			if len(x) < len(acc) {
				return fmt.Errorf("hdfg: merged variable shrank from %d to %d values", len(acc), len(x))
			}
			for j := range acc {
				v, err := scalarBin(g.Merge.MergeOp, acc[j], x[j])
				if err != nil {
					return fmt.Errorf("hdfg: merge: %w", err)
				}
				acc[j] = v
			}
		}
	}
	it.vals[g.Merge.ID] = acc
	if err := it.evalStage(nil, postMerge); err != nil {
		return err
	}
	return it.applyUpdates(func(n *Node) bool { return !n.ConvOnly })
}

// Epoch runs one pass over the data in batches of the merge coefficient.
func (it *Interp) Epoch(tuples [][]float64) error {
	bs := it.G.MergeCoef
	if bs < 1 {
		bs = 1
	}
	for i := 0; i < len(tuples); i += bs {
		end := i + bs
		if end > len(tuples) {
			end = len(tuples)
		}
		if err := it.StepBatch(tuples[i:end]); err != nil {
			return err
		}
	}
	return nil
}

// Converged evaluates the convergence expression against the last batch
// state. Without a convergence expression it returns false.
func (it *Interp) Converged() (bool, error) {
	g := it.G
	if g.Convergence == nil {
		return false, nil
	}
	if err := it.evalStage(nil, convStage); err != nil {
		return false, err
	}
	v := it.vals[g.Convergence.ID]
	if v == nil {
		return false, fmt.Errorf("hdfg: convergence expression not evaluated")
	}
	return v[0] > 0.5, nil
}

// Train runs up to the algo's epoch budget (or maxEpochs if smaller and
// positive), stopping early on convergence. It returns the number of
// epochs executed.
func (it *Interp) Train(tuples [][]float64, maxEpochs int) (int, error) {
	limit := it.G.Epochs
	if limit <= 0 || (maxEpochs > 0 && maxEpochs < limit) {
		limit = maxEpochs
	}
	if limit <= 0 {
		limit = 1
	}
	for e := 1; e <= limit; e++ {
		if err := it.Epoch(tuples); err != nil {
			return e - 1, err
		}
		done, err := it.Converged()
		if err != nil {
			return e, err
		}
		if done {
			return e, nil
		}
	}
	return limit, nil
}
