package hdfg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dana/internal/dsl"
)

// manualLinearSGD applies one plain-SGD linear regression step:
// w -= lr * (w·x - y) * x.
func manualLinearSGD(w []float64, x []float64, y, lr float64) {
	dot := 0.0
	for i := range w {
		dot += w[i] * x[i]
	}
	e := dot - y
	for i := range w {
		w[i] -= lr * e * x[i]
	}
}

func TestInterpSGDMatchesManual(t *testing.T) {
	const n = 8
	g, err := Translate(linearAlgo(n, 0, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	w0 := make([]float64, n)
	for i := range w0 {
		w0[i] = rng.NormFloat64()
	}
	it, err := NewInterp(g, w0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), w0...)
	for step := 0; step < 50; step++ {
		tuple := make([]float64, n+1)
		for i := range tuple {
			tuple[i] = rng.NormFloat64()
		}
		if err := it.StepBatch([][]float64{tuple}); err != nil {
			t.Fatal(err)
		}
		manualLinearSGD(want, tuple[:n], tuple[n], 0.05)
		for i := range want {
			if math.Abs(it.Model()[i]-want[i]) > 1e-12 {
				t.Fatalf("step %d: model[%d] = %v, want %v", step, i, it.Model()[i], want[i])
			}
		}
	}
}

func TestInterpBatchMergeIsSummedGradient(t *testing.T) {
	const n, batch = 4, 8
	g, err := Translate(linearAlgo(n, batch, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	it, err := NewInterp(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([][]float64, batch)
	gradSum := make([]float64, n)
	for b := range tuples {
		tuple := make([]float64, n+1)
		for i := range tuple {
			tuple[i] = rng.NormFloat64()
		}
		tuples[b] = tuple
		// With a zero model, error = -y, gradient = -y*x.
		for i := 0; i < n; i++ {
			gradSum[i] += -tuple[n] * tuple[i]
		}
	}
	if err := it.StepBatch(tuples); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := -0.01 * gradSum[i]
		if math.Abs(it.Model()[i]-want) > 1e-12 {
			t.Fatalf("model[%d] = %v, want %v", i, it.Model()[i], want)
		}
	}
}

func TestInterpLinearConverges(t *testing.T) {
	const n = 5
	a := linearAlgo(n, 8, 0.05)
	a.SetEpochs(200)
	g, err := Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	truth := make([]float64, n)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	tuples := make([][]float64, 256)
	for j := range tuples {
		tup := make([]float64, n+1)
		y := 0.0
		for i := 0; i < n; i++ {
			tup[i] = rng.NormFloat64()
			y += truth[i] * tup[i]
		}
		tup[n] = y
		tuples[j] = tup
	}
	it, err := NewInterp(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainInterp(it, tuples); err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(it.Model()[i]-truth[i]) > 1e-3 {
			t.Errorf("model[%d] = %v, want %v", i, it.Model()[i], truth[i])
		}
	}
}

func TestInterpConvergenceStopsTraining(t *testing.T) {
	a := linearAlgo(3, 4, 0.1)
	grad := a.MergeNode.Args[0]
	conv := dsl.Lt(dsl.Norm(grad, 1), a.Meta(1e-6))
	a.SetConvergence(conv)
	a.SetEpochs(10000)
	g, err := Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewInterp(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All-zero labels and a zero model: gradient is exactly zero, so
	// training converges after the first epoch.
	tuples := [][]float64{{1, 2, 3, 0}, {4, 5, 6, 0}, {7, 8, 9, 0}, {1, 1, 1, 0}}
	epochs, err := trainInterp(it, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if epochs != 1 {
		t.Errorf("epochs = %d, want 1", epochs)
	}
}

func TestInterpLogisticStep(t *testing.T) {
	// Logistic regression via builder: w -= lr*(sigmoid(w·x) - y)*x.
	const n = 6
	a := dsl.NewAlgo("logit")
	mo := a.Model(n)
	in := a.Input(n)
	out := a.Output()
	lr := a.Meta(0.3)
	s := dsl.Sigma(dsl.Mul(mo, in), 1)
	p := dsl.Sigmoid(s)
	er := dsl.Sub(p, out)
	grad := dsl.Mul(er, in)
	moUp := dsl.Sub(mo, dsl.Mul(lr, grad))
	a.SetModel(moUp)
	a.SetEpochs(1)
	g, err := Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewInterp(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuple := []float64{1, -1, 0.5, 2, 0, 1, 1}
	if err := it.StepBatch([][]float64{tuple}); err != nil {
		t.Fatal(err)
	}
	// Zero model: sigmoid(0)=0.5, err=-0.5, w = -0.3 * -0.5 * x = 0.15x.
	for i := 0; i < n; i++ {
		want := 0.15 * tuple[i]
		if math.Abs(it.Model()[i]-want) > 1e-12 {
			t.Errorf("model[%d] = %v, want %v", i, it.Model()[i], want)
		}
	}
}

func TestInterpLRMFRowUpdates(t *testing.T) {
	const rows, f = 6, 3
	a := dsl.NewAlgo("lrmf")
	mo := a.Model(rows, f)
	u := a.Input()
	v := a.Input()
	r := a.Output()
	lr := a.Meta(0.1)
	ur := dsl.Gather(mo, u)
	vr := dsl.Gather(mo, v)
	pred := dsl.Sigma(dsl.Mul(ur, vr), 1)
	e := dsl.Sub(pred, r)
	uNew := dsl.Sub(ur, dsl.Mul(lr, dsl.Mul(e, vr)))
	vNew := dsl.Sub(vr, dsl.Mul(lr, dsl.Mul(e, ur)))
	a.SetModelRow(u, uNew)
	a.SetModelRow(v, vNew)
	a.SetEpochs(1)
	g, err := Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	m0 := make([]float64, rows*f)
	for i := range m0 {
		m0[i] = float64(i%5) * 0.1
	}
	it, err := NewInterp(g, m0)
	if err != nil {
		t.Fatal(err)
	}
	uIdx, vIdx := 1, 4
	rating := 2.0
	// Manual reference.
	uRow := append([]float64(nil), m0[uIdx*f:(uIdx+1)*f]...)
	vRow := append([]float64(nil), m0[vIdx*f:(vIdx+1)*f]...)
	pred0 := 0.0
	for i := 0; i < f; i++ {
		pred0 += uRow[i] * vRow[i]
	}
	e0 := pred0 - rating
	wantU := make([]float64, f)
	wantV := make([]float64, f)
	for i := 0; i < f; i++ {
		wantU[i] = uRow[i] - 0.1*e0*vRow[i]
		wantV[i] = vRow[i] - 0.1*e0*uRow[i]
	}
	if err := it.StepBatch([][]float64{{float64(uIdx), float64(vIdx), rating}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f; i++ {
		if math.Abs(it.Model()[uIdx*f+i]-wantU[i]) > 1e-12 {
			t.Errorf("u[%d] = %v, want %v", i, it.Model()[uIdx*f+i], wantU[i])
		}
		if math.Abs(it.Model()[vIdx*f+i]-wantV[i]) > 1e-12 {
			t.Errorf("v[%d] = %v, want %v", i, it.Model()[vIdx*f+i], wantV[i])
		}
	}
	// Untouched rows stay put.
	if it.Model()[0] != m0[0] || it.Model()[5*f] != m0[5*f] {
		t.Error("row update touched unrelated rows")
	}
}

func TestInterpGatherOutOfRange(t *testing.T) {
	a := dsl.NewAlgo("oob")
	mo := a.Model(4, 2)
	u := a.Input()
	a.Output()
	ur := dsl.Gather(mo, u)
	a.SetModelRow(u, ur)
	a.SetEpochs(1)
	g, err := Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewInterp(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.StepBatch([][]float64{{99, 0}}); err == nil {
		t.Error("out-of-range gather should fail")
	}
}

func TestInterpTupleWidthChecked(t *testing.T) {
	g, err := Translate(linearAlgo(4, 0, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewInterp(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.StepBatch([][]float64{{1, 2}}); err == nil {
		t.Error("short tuple should fail")
	}
}

func TestInterpInitModelSizeChecked(t *testing.T) {
	g, err := Translate(linearAlgo(4, 0, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInterp(g, []float64{1}); err == nil {
		t.Error("wrong model size should fail")
	}
}

// Property: one batched step with merge coefficient k on k copies of the
// same tuple equals one SGD step with learning rate scaled by k.
func TestBatchOfIdenticalTuplesProperty(t *testing.T) {
	const n = 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tuple := make([]float64, n+1)
		for i := range tuple {
			tuple[i] = rng.NormFloat64()
		}
		const k = 4
		gB, err := Translate(linearAlgo(n, k, 0.01))
		if err != nil {
			return false
		}
		gS, err := Translate(linearAlgo(n, 0, float64(k)*0.01))
		if err != nil {
			return false
		}
		itB, _ := NewInterp(gB, nil)
		itS, _ := NewInterp(gS, nil)
		batch := make([][]float64, k)
		for i := range batch {
			batch[i] = tuple
		}
		if err := itB.StepBatch(batch); err != nil {
			return false
		}
		if err := itS.StepBatch([][]float64{tuple}); err != nil {
			return false
		}
		for i := range itB.Model() {
			if math.Abs(itB.Model()[i]-itS.Model()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInterpRemainingOps(t *testing.T) {
	// Exercise pi, gaussian, gt, div, and sqrt through one expression:
	// conv = sqrt(pi(gaussian(mo / in), 1)) > 0.5
	a := dsl.NewAlgo("ops")
	mo := a.Model(3)
	in := a.Input(3)
	a.Output()
	g := dsl.Gaussian(dsl.Div(mo, in))
	p := dsl.Pi(g, 1)
	s := dsl.Sqrt(p)
	conv := dsl.Gt(s, a.Meta(0.5))
	a.SetModel(mo)
	a.SetConvergence(conv)
	a.SetEpochs(1)
	g2, err := Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewInterp(g2, []float64{0.1, -0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	tuple := []float64{1, 2, -1, 0}
	if err := it.StepBatch([][]float64{tuple}); err != nil {
		t.Fatal(err)
	}
	// Manual: x_i = mo_i / in_i = {0.1, -0.1, -0.3};
	// gaussian = exp(-x^2); product; sqrt; > 0.5.
	prod := 1.0
	for _, x := range []float64{0.1, -0.1, -0.3} {
		prod *= math.Exp(-x * x)
	}
	want := math.Sqrt(prod) > 0.5
	got, err := it.Converged()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Converged = %v, want %v (sqrt(prod)=%v)", got, want, math.Sqrt(prod))
	}
}

func TestInterpMatrixAxisReductions(t *testing.T) {
	// sigma over both axes of a [2,3] intermediate.
	a := dsl.NewAlgo("axes")
	mo := a.Model(2, 3)
	in := a.Input()
	a.Output()
	scaled := dsl.Mul(mo, in)    // scalar broadcast over the matrix
	rows := dsl.Sigma(scaled, 2) // [2]: row sums
	cols := dsl.Sigma(scaled, 1) // [3]: column sums
	tot := dsl.Sigma(rows, 1)
	conv := dsl.Lt(dsl.Add(tot, dsl.Sigma(cols, 1)), a.Meta(1e18))
	a.SetModel(mo)
	a.SetConvergence(conv)
	a.SetEpochs(1)
	g, err := Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewInterp(g, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := it.StepBatch([][]float64{{2, 0}}); err != nil {
		t.Fatal(err)
	}
	// The reductions feed only the convergence check, so they evaluate
	// in the per-epoch stage.
	if _, err := it.Converged(); err != nil {
		t.Fatal(err)
	}
	// rows = {12, 30}; cols = {10, 14, 18}; totals both 42.
	var rowsN, colsN *Node
	for _, n := range g.Nodes {
		if n.Op == dsl.OpSigma && n.Shape.Equal(Shape{2}) {
			rowsN = n
		}
		if n.Op == dsl.OpSigma && n.Shape.Equal(Shape{3}) {
			colsN = n
		}
	}
	if rowsN == nil || colsN == nil {
		t.Fatal("reduction nodes missing")
	}
	if v := it.vals[rowsN.ID]; v[0] != 12 || v[1] != 30 {
		t.Errorf("row sums = %v", v)
	}
	if v := it.vals[colsN.ID]; v[0] != 10 || v[1] != 14 || v[2] != 18 {
		t.Errorf("col sums = %v", v)
	}
}

// trainInterp runs the algorithm's epoch budget (at least one epoch),
// stopping after the first epoch that converges; it returns the epochs
// run.
func trainInterp(it *Interp, tuples [][]float64) (int, error) {
	limit := max(it.G.Epochs, 1)
	for e := 1; e <= limit; e++ {
		if err := it.Epoch(tuples); err != nil {
			return e - 1, err
		}
		if done, err := it.Converged(); err != nil || done {
			return e, err
		}
	}
	return limit, nil
}
