package dsl_test

import (
	"testing"

	"dana/internal/dsl"
	"dana/internal/fuzzcorpus"
	"dana/internal/hdfg"
)

// dslSeeds are valid UDFs (the paper's §4.3 linear-regression example
// and variants for every construct: merge, nonlinears, gather/row
// updates, convergence) plus near-miss malformed ones.
func dslSeeds() []string {
	return []string{
		// Paper example: linear regression with merge.
		`mo  = dana.model([10])
in  = dana.input([10])
out = dana.output()
lr  = dana.meta(0.3)
linearR = dana.algo(mo, in, out)
s    = sigma(mo * in, 1)
er   = s - out
grad = er * in
up   = lr * grad
mo_up = mo - up
merge_coef = dana.meta(8)
grad = linearR.merge(grad, merge_coef, "+")
linearR.setModel(mo_up)
linearR.setEpochs(100)`,
		// Logistic with sigmoid.
		`mo = dana.model([4])
in = dana.input([4])
out = dana.output()
lr = dana.meta(0.1)
logR = dana.algo(mo, in, out)
s = sigma(mo * in, 1)
p = sigmoid(s)
er = p - out
grad = er * in
mo_up = mo - lr * grad
logR.setModel(mo_up)
logR.setEpochs(3)`,
		// SVM with the comparison indicator.
		`mo = dana.model([4])
in = dana.input([4])
out = dana.output()
lr = dana.meta(0.05)
lam = dana.meta(0.01)
one = dana.meta(1)
svm = dana.algo(mo, in, out)
s = sigma(mo * in, 1)
margin = out * s
ind = margin < one
hinge = ind * (out * in)
grad = (lam * mo) - hinge
mo_up = mo - lr * grad
svm.setModel(mo_up)
svm.setEpochs(2)`,
		// Malformed: missing algo declaration.
		`mo = dana.model([4])
s = sigma(mo * mo, 1)`,
		// Malformed: unbalanced parens and bad call.
		`mo = dana.model([4)
x = dana.unknown(`,
		// Empty and whitespace.
		"",
		"\n\t  \n",
	}
}

// FuzzDSLParse chains the whole front half of the system on arbitrary
// source text: parse → validate → translate to hDFG → interpret two
// epochs. Each stage may reject; none may panic.
func FuzzDSLParse(f *testing.F) {
	for _, s := range dslSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		a, err := dsl.Parse(src)
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			return
		}
		g, err := hdfg.Translate(a)
		if err != nil {
			return
		}
		// Size-guard before interpreting: fuzzed dims can be huge.
		if g.ModelSize() > 1<<12 || g.TupleWidth() > 1<<12 || g.TupleWidth() < 0 || g.ModelSize() < 0 {
			return
		}
		it, err := hdfg.NewInterp(g, nil)
		if err != nil {
			return
		}
		tuple := make([]float64, g.TupleWidth())
		for i := range tuple {
			tuple[i] = 0.5
		}
		limit := g.Epochs // the algorithm's budget, at most 2
		if limit <= 0 || limit > 2 {
			limit = 2
		}
		for e := 0; e < limit; e++ {
			if it.Epoch([][]float64{tuple, tuple}) != nil {
				break
			}
			if done, err := it.Converged(); err != nil || done {
				break
			}
		}
	})
}

// TestWriteDSLParseCorpus regenerates the committed seed corpus when
// DANA_WRITE_FUZZ_CORPUS is set.
func TestWriteDSLParseCorpus(t *testing.T) {
	if !fuzzcorpus.ShouldWrite() {
		t.Skipf("set %s=1 to regenerate the corpus", fuzzcorpus.WriteEnv)
	}
	if err := fuzzcorpus.WriteStrings("testdata/fuzz/FuzzDSLParse", dslSeeds()); err != nil {
		t.Fatal(err)
	}
}
