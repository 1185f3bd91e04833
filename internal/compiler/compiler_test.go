package compiler

import (
	"math"
	"math/rand"
	"testing"

	"dana/internal/dsl"
	"dana/internal/engine"
	"dana/internal/hdfg"
)

func linearAlgo(nFeat, mergeCoef int, lr float64) *dsl.Algo {
	a := dsl.NewAlgo("linearR")
	mo := a.Model(nFeat)
	in := a.Input(nFeat)
	out := a.Output()
	lrE := a.Meta(lr)
	s := dsl.Sigma(dsl.Mul(mo, in), 1)
	er := dsl.Sub(s, out)
	grad := dsl.Mul(er, in)
	moUp := dsl.Sub(mo, dsl.Mul(lrE, grad))
	if mergeCoef > 0 {
		a.MustMerge(grad, mergeCoef, "+")
	}
	a.SetModel(moUp)
	a.SetEpochs(1)
	return a
}

func logisticAlgo(nFeat, mergeCoef int, lr float64) *dsl.Algo {
	a := dsl.NewAlgo("logit")
	mo := a.Model(nFeat)
	in := a.Input(nFeat)
	out := a.Output()
	lrE := a.Meta(lr)
	s := dsl.Sigma(dsl.Mul(mo, in), 1)
	p := dsl.Sigmoid(s)
	er := dsl.Sub(p, out)
	grad := dsl.Mul(er, in)
	moUp := dsl.Sub(mo, dsl.Mul(lrE, grad))
	if mergeCoef > 0 {
		a.MustMerge(grad, mergeCoef, "+")
	}
	a.SetModel(moUp)
	a.SetEpochs(1)
	return a
}

// svmAlgo: hinge-loss SGD: grad = lambda*w - 1[y*(w.x) < 1]*y*x.
func svmAlgo(nFeat, mergeCoef int, lr, lambda float64) *dsl.Algo {
	a := dsl.NewAlgo("svm")
	mo := a.Model(nFeat)
	in := a.Input(nFeat)
	out := a.Output()
	lrE := a.Meta(lr)
	lam := a.Meta(lambda)
	one := a.Meta(1)
	s := dsl.Sigma(dsl.Mul(mo, in), 1)
	margin := dsl.Mul(out, s)
	ind := dsl.Lt(margin, one) // 1 if margin < 1
	hinge := dsl.Mul(ind, dsl.Mul(out, in))
	grad := dsl.Sub(dsl.Mul(lam, mo), hinge)
	moUp := dsl.Sub(mo, dsl.Mul(lrE, grad))
	if mergeCoef > 0 {
		a.MustMerge(grad, mergeCoef, "+")
	}
	a.SetModel(moUp)
	a.SetEpochs(1)
	return a
}

func lrmfAlgo(rows, f int, lr float64) *dsl.Algo {
	a := dsl.NewAlgo("lrmf")
	mo := a.Model(rows, f)
	u := a.Input()
	v := a.Input()
	r := a.Output()
	lrE := a.Meta(lr)
	ur := dsl.Gather(mo, u)
	vr := dsl.Gather(mo, v)
	pred := dsl.Sigma(dsl.Mul(ur, vr), 1)
	e := dsl.Sub(pred, r)
	uNew := dsl.Sub(ur, dsl.Mul(lrE, dsl.Mul(e, vr)))
	vNew := dsl.Sub(vr, dsl.Mul(lrE, dsl.Mul(e, ur)))
	a.SetModelRow(u, uNew)
	a.SetModelRow(v, vNew)
	a.SetEpochs(1)
	return a
}

func mustCompile(t *testing.T, a *dsl.Algo) (*hdfg.Graph, *engine.Program) {
	t.Helper()
	g, err := hdfg.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func randTuples(n, width int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		t := make([]float64, width)
		for j := range t {
			t[j] = float64(float32(rng.NormFloat64()))
		}
		out[i] = t
	}
	return out
}

func toF32(ts [][]float64) [][]float32 {
	out := make([][]float32, len(ts))
	for i, t := range ts {
		r := make([]float32, len(t))
		for j, v := range t {
			r[j] = float32(v)
		}
		out[i] = r
	}
	return out
}

// crossValidate trains both the reference interpreter and the compiled
// accelerator on the same data and compares final models.
func crossValidate(t *testing.T, a *dsl.Algo, cfg engine.Config, tuples [][]float64, epochs int, tol float64) {
	t.Helper()
	g, p := mustCompile(t, a)
	it, err := hdfg.NewInterp(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := engine.NewMachine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f32 := toF32(tuples)
	for e := 0; e < epochs; e++ {
		if err := it.Epoch(tuples); err != nil {
			t.Fatal(err)
		}
		if err := m.RunEpoch(f32, g.MergeCoef); err != nil {
			t.Fatal(err)
		}
	}
	ref := it.Model()
	got := m.Model()
	for i := range ref {
		diff := math.Abs(float64(got[i]) - ref[i])
		scale := math.Max(1, math.Abs(ref[i]))
		if diff/scale > tol {
			t.Fatalf("model[%d]: engine %v vs reference %v (tol %v)", i, got[i], ref[i], tol)
		}
	}
}

func cfg(threads, acs int) engine.Config {
	return engine.Config{Threads: threads, ACsPerThread: acs, AUsPerAC: engine.DefaultAUsPerAC}
}

func TestLinearSGDMatchesReference(t *testing.T) {
	a := linearAlgo(10, 0, 0.05)
	crossValidate(t, a, cfg(1, 2), randTuples(200, 11, 1), 2, 1e-3)
}

func TestLinearBatchedMatchesReference(t *testing.T) {
	a := linearAlgo(16, 8, 0.01)
	crossValidate(t, a, cfg(8, 1), randTuples(256, 17, 2), 2, 1e-3)
}

func TestLogisticMatchesReference(t *testing.T) {
	a := logisticAlgo(12, 4, 0.1)
	crossValidate(t, a, cfg(4, 2), randTuples(128, 13, 3), 2, 1e-3)
}

func TestSVMMatchesReference(t *testing.T) {
	tuples := randTuples(128, 9, 4)
	for _, tp := range tuples {
		if tp[8] >= 0 {
			tp[8] = 1
		} else {
			tp[8] = -1
		}
	}
	a := svmAlgo(8, 8, 0.05, 0.01)
	crossValidate(t, a, cfg(8, 1), tuples, 2, 1e-3)
}

func TestLRMFMatchesReference(t *testing.T) {
	const rows, f = 20, 6
	rng := rand.New(rand.NewSource(5))
	tuples := make([][]float64, 100)
	for i := range tuples {
		tuples[i] = []float64{
			float64(rng.Intn(10)),      // user row 0..9
			float64(10 + rng.Intn(10)), // item row 10..19
			float64(float32(rng.NormFloat64())),
		}
	}
	a := lrmfAlgo(rows, f, 0.05)
	g, p := mustCompile(t, a)
	init := make([]float64, rows*f)
	for i := range init {
		init[i] = 0.1 * float64(i%7)
	}
	it, err := hdfg.NewInterp(g, init)
	if err != nil {
		t.Fatal(err)
	}
	m, err := engine.NewMachine(p, cfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	init32 := make([]float32, len(init))
	for i, v := range init {
		init32[i] = float32(v)
	}
	if err := m.SetModel(init32); err != nil {
		t.Fatal(err)
	}
	if err := it.Epoch(tuples); err != nil {
		t.Fatal(err)
	}
	if err := m.RunEpoch(toF32(tuples), 1); err != nil {
		t.Fatal(err)
	}
	ref, got := it.Model(), m.Model()
	for i := range ref {
		if math.Abs(float64(got[i])-ref[i]) > 1e-3 {
			t.Fatalf("model[%d]: %v vs %v", i, got[i], ref[i])
		}
	}
}

func TestRowUpdatesWithMergeRejected(t *testing.T) {
	a := lrmfAlgo(10, 4, 0.1)
	// Force a merge node in.
	if _, err := a.Merge(a.RowUpdates[0].Val, 4, "+"); err != nil {
		t.Fatal(err)
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(g); err == nil {
		t.Error("row updates + merge should be rejected")
	}
}

func TestConvergenceProgram(t *testing.T) {
	a := linearAlgo(6, 4, 0.1)
	grad := a.MergeNode.Args[0]
	a.SetConvergence(dsl.Lt(dsl.Norm(grad, 1), a.Meta(1e-5)))
	g, p := mustCompile(t, a)
	if p.ConvSlot.Len != 1 {
		t.Fatalf("conv slot = %v", p.ConvSlot)
	}
	if len(p.Convergence) == 0 {
		t.Fatal("no convergence instructions")
	}
	m, err := engine.NewMachine(p, cfg(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Zero labels + zero model: gradient 0 -> converged after first epoch.
	tuples := make([][]float32, 8)
	for i := range tuples {
		tuples[i] = make([]float32, 7)
		for j := 0; j < 6; j++ {
			tuples[i][j] = float32(i + j)
		}
	}
	epochs := 0
	for done := false; !done && epochs < 50; epochs++ {
		if err := m.RunEpoch(tuples, g.MergeCoef); err != nil {
			t.Fatal(err)
		}
		if done, err = m.Converged(); err != nil {
			t.Fatal(err)
		}
	}
	if epochs != 1 {
		t.Errorf("epochs = %d, want 1", epochs)
	}
}

func TestContractionLowering(t *testing.T) {
	// sigma(mo*in, 2) with mo=[5][10], in=[2][10] -> [5][2]: validate the
	// compiled program computes a generalized mat-mat contraction.
	a := dsl.NewAlgo("c")
	mo := a.Model(5, 10)
	in := a.Input(2, 10)
	s := dsl.Sigma(dsl.Mul(mo, in), 2)
	// Model update: mo - 0*anything keeps model; we only check s's value,
	// so route s into convergence.
	a.SetModel(mo)
	a.SetEpochs(1)
	a.SetConvergence(dsl.Lt(dsl.Norm(dsl.Norm(s, 1), 1), a.Meta(1e30)))
	g, p := mustCompile(t, a)
	m, err := engine.NewMachine(p, cfg(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	model := make([]float32, 50)
	for i := range model {
		model[i] = float32(rng.NormFloat64())
	}
	if err := m.SetModel(model); err != nil {
		t.Fatal(err)
	}
	tuple := make([]float32, 20)
	for i := range tuple {
		tuple[i] = float32(rng.NormFloat64())
	}
	if err := m.RunBatch([][]float32{tuple}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Converged(); err != nil {
		t.Fatal(err)
	}
	// Cross-check against the interpreter.
	it, err := hdfg.NewInterp(g, f64(model))
	if err != nil {
		t.Fatal(err)
	}
	if err := it.StepBatch([][]float64{f64(tuple)}); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Converged(); err != nil {
		t.Fatal(err)
	}
	// Converged must agree (both false, threshold enormous means true).
}

func f64(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func TestEstimateMatchesDynamicWithMerge(t *testing.T) {
	a := linearAlgo(32, 8, 0.01)
	g, p := mustCompile(t, a)
	c := cfg(8, 2)
	m, err := engine.NewMachine(p, c)
	if err != nil {
		t.Fatal(err)
	}
	tuples := toF32(randTuples(64, 33, 6))
	if err := m.RunEpoch(tuples, g.MergeCoef); err != nil {
		t.Fatal(err)
	}
	est := p.Estimate(c)
	want := est.EpochCycles(64, g.MergeCoef, c.Threads)
	if got := m.Stats().Cycles; got != want {
		t.Errorf("dynamic %d != static %d", got, want)
	}
}

func TestThreadScalingReducesCycles(t *testing.T) {
	a := linearAlgo(64, 16, 0.01)
	_, p := mustCompile(t, a)
	est1 := p.Estimate(cfg(1, 2))
	est8 := p.Estimate(cfg(8, 2))
	c1 := est1.EpochCycles(1024, 16, 1)
	c8 := est8.EpochCycles(1024, 16, 8)
	if c8 >= c1 {
		t.Errorf("8 threads (%d) should beat 1 thread (%d)", c8, c1)
	}
}

func TestCompiledProgramShape(t *testing.T) {
	_, p := mustCompile(t, linearAlgo(10, 8, 0.3))
	if p.ModelSlot.Len != 10 || p.InputSlot.Len != 11 {
		t.Errorf("model=%v input=%v", p.ModelSlot, p.InputSlot)
	}
	if !p.HasMerge() {
		t.Fatal("merge missing")
	}
	if p.MergeSrc.Len != 10 || p.MergeDst.Len != 10 {
		t.Errorf("merge src=%v dst=%v", p.MergeSrc, p.MergeDst)
	}
	if len(p.PerTuple) == 0 || len(p.PostMerge) == 0 {
		t.Errorf("perTuple=%d postMerge=%d", len(p.PerTuple), len(p.PostMerge))
	}
	if p.UpdatedSlot.Len != 10 {
		t.Errorf("updated = %v", p.UpdatedSlot)
	}
	if len(p.Consts) != 1 || p.Consts[0] != float32(0.3) {
		t.Errorf("consts = %v", p.Consts)
	}
}
