package dana

import (
	"errors"
	"strings"
	"testing"

	"dana/internal/storage"
)

func openSmall(t *testing.T) *Engine {
	t.Helper()
	eng, err := Open(Config{PageSize: 8 << 10, PoolBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestOpenValidatesPageSize(t *testing.T) {
	if _, err := Open(Config{PageSize: 1234}); err == nil {
		t.Error("bad page size accepted")
	}
	if _, err := Open(Config{}); err != nil {
		t.Errorf("zero config should use defaults: %v", err)
	}
}

func TestPublicQuickstartFlow(t *testing.T) {
	eng := openSmall(t)
	// Plain SQL works.
	if _, err := eng.SQL("CREATE TABLE t (a float4, b float4); INSERT INTO t VALUES (1, 2)"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.SQL("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 1 {
		t.Errorf("count = %v", res.Rows[0][0])
	}

	// Load a paper workload, register a UDF from DSL source, train via SQL.
	d, err := eng.LoadWorkload("Patient", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := `
mo = dana.model([384])
in = dana.input([384])
out = dana.output()
lr = dana.meta(0.0013)
linearR = dana.algo(mo, in, out)
s = sigma(mo * in, 1)
er = s - out
grad = er * in
mo_up = mo - lr * grad
merge_coef = dana.meta(16)
g2 = linearR.merge(grad, merge_coef, "+")
linearR.setModel(mo_up)
linearR.setEpochs(8)
`
	if _, err := eng.RegisterUDFSource(src, 16); err != nil {
		t.Fatal(err)
	}
	out, err := eng.SQL("SELECT * FROM dana.linearR('" + d.Rel.Name + "')")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 384 {
		t.Fatalf("model rows = %d", len(out.Rows))
	}
	if !strings.Contains(out.Msg, "epochs") {
		t.Errorf("msg = %q", out.Msg)
	}
}

func TestBuilderAPIAndTrain(t *testing.T) {
	eng := openSmall(t)
	d, err := eng.LoadWorkload("Remote Sensing LR", 0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAlgo("logit54")
	mo := a.Model(54)
	in := a.Input(54)
	out := a.Output()
	lr := a.Meta(0.04)
	s := Sigma(Mul(mo, in), 1)
	p := Sigmoid(s)
	grad := Mul(Sub(p, out), in)
	a.MustMerge(grad, 32, "+")
	a.SetModel(Sub(mo, Mul(lr, grad)))
	a.SetEpochs(4)
	if err := eng.RegisterUDF(a, 32); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Train("logit54", d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 4 || len(res.Model) != 54 {
		t.Errorf("epochs=%d model=%d", res.Epochs, len(res.Model))
	}
	if res.Design.AUs <= 0 {
		t.Errorf("design = %+v", res.Design)
	}
}

func TestBaselinesThroughPublicAPI(t *testing.T) {
	eng := openSmall(t)
	d, err := eng.LoadWorkload("Blog Feedback", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	algo := LinearRegression{NFeatures: 280, LR: 0.0018}
	mad, err := eng.TrainMADlib(d.Rel.Name, algo, 5)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := eng.TrainGreenplum(d.Rel.Name, algo, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mad.FinalLoss <= 0 || gp.FinalLoss <= 0 {
		t.Errorf("losses: madlib %v greenplum %v", mad.FinalLoss, gp.FinalLoss)
	}
	if mad.Tuples != gp.Tuples {
		t.Errorf("tuple counts differ: %d vs %d", mad.Tuples, gp.Tuples)
	}
}

// TestScansSkipDeadLinePointer: a deleted tuple leaves a dead line
// pointer, which every heap scan through the pool skips, as
// PostgreSQL's seq scan does — SQL and both CPU baselines read the live
// tuples — while the accelerated path still refuses the unvacuumed
// table with its typed error.
func TestScansSkipDeadLinePointer(t *testing.T) {
	eng := openSmall(t)
	d, err := eng.LoadWorkload("WLAN", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Rel.Delete(storage.TID{Page: 0, Item: 1}); err != nil {
		t.Fatal(err)
	}
	live := d.Rel.NumTuples()
	res, err := eng.SQL("SELECT COUNT(*) FROM " + d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got != float64(live) || live != d.Tuples-1 {
		t.Errorf("COUNT(*) = %v, live tuples %d of %d generated", got, live, d.Tuples)
	}
	const epochs = 2
	mad, err := eng.TrainMADlib(d.Rel.Name, d.MLAlgorithm(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := eng.TrainGreenplum(d.Rel.Name, d.MLAlgorithm(), 4, epochs)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*BaselineResult{"madlib": mad, "greenplum": gp} {
		if r.Tuples != int64(epochs*live) {
			t.Errorf("%s: %d tuple updates, want %d", name, r.Tuples, epochs*live)
		}
	}
	if pins := eng.Pool().PinnedCount(); pins != 0 {
		t.Errorf("%d pages left pinned", pins)
	}
	a, err := d.DSLAlgo(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterUDF(a, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Train(a.Name, d.Rel.Name); !errors.Is(err, storage.ErrBadItem) || !strings.Contains(err.Error(), "VACUUM") {
		t.Errorf("Train on the unvacuumed table = %v, want ErrBadItem naming VACUUM", err)
	}
}

func TestWorkloadLookups(t *testing.T) {
	if len(Workloads()) != 14 {
		t.Errorf("workloads = %d", len(Workloads()))
	}
	w, err := WorkloadByName("Netflix")
	if err != nil || w.Topology[2] != 10 {
		t.Errorf("Netflix lookup: %v %v", w, err)
	}
	eng := openSmall(t)
	if _, err := eng.LoadWorkload("nope", 0.1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if fpga := eng.FPGA(); fpga.DSPs != 6840 {
		t.Errorf("FPGA = %+v", fpga)
	}
	if p := eng.CostParams(); p.FPGAClockHz != 150e6 {
		t.Errorf("cost params = %+v", p)
	}
}

func TestParseUDFExported(t *testing.T) {
	a, err := ParseUDF(`
mo = dana.model([4])
in = dana.input([4])
out = dana.output()
al = dana.algo(mo, in, out)
g = (mo * in) - out
al.setModel(mo - g)
al.setEpochs(1)
`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "al" {
		t.Errorf("name = %q", a.Name)
	}
}

func TestWarmColdCacheControls(t *testing.T) {
	eng := openSmall(t)
	d, err := eng.LoadWorkload("WLAN", 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.WarmCache(d.Rel.Name); err != nil {
		t.Fatal(err)
	}
	res, err := eng.SQL("SELECT COUNT(*) FROM " + d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != float64(d.Tuples) {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if eng.Pool().Stats().Misses != 0 {
		t.Errorf("warm scan missed %d times", eng.Pool().Stats().Misses)
	}
	if err := eng.ColdCache(); err != nil {
		t.Fatal(err)
	}
	eng.Pool().ResetStats()
	if _, err := eng.SQL("SELECT COUNT(*) FROM " + d.Rel.Name); err != nil {
		t.Fatal(err)
	}
	if eng.Pool().Stats().Misses == 0 {
		t.Error("cold scan had no misses")
	}
	if err := eng.WarmCache("ghost"); err == nil {
		t.Error("warming a missing table succeeded")
	}
}

func TestRenderUDFPublic(t *testing.T) {
	a, err := ParseUDF(`
mo = dana.model([3])
in = dana.input([3])
out = dana.output()
al = dana.algo(mo, in, out)
g = (sigma(mo * in, 1) - out) * in
al.setModel(mo - 0.1 * g)
al.setEpochs(2)
`)
	if err != nil {
		t.Fatal(err)
	}
	src := RenderUDF(a)
	if _, err := ParseUDF(src); err != nil {
		t.Fatalf("rendered UDF does not re-parse: %v\n%s", err, src)
	}
}
