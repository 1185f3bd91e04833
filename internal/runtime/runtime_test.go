package runtime

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dana/internal/algos"
	"dana/internal/backend"
	"dana/internal/catalog"
	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/dsl"
	"dana/internal/hdfg"
	"dana/internal/ml"
	"dana/internal/storage"
)

func smallSystem(t *testing.T) *System {
	t.Helper()
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.Cost.PoolBytes = 32 << 20
	return New(opts)
}

func deployScaled(t *testing.T, s *System, name string, scale float64) *datagen.Dataset {
	t.Helper()
	w, err := datagen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := datagen.Generate(w, scale, s.Opts.PageSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEndToEndLinearThroughSQL(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "Patient", 0.02)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(10)
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	res, err := s.DB.Exec("SELECT * FROM dana.linearR('patient')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 384 {
		t.Fatalf("model rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.Msg, "DAnA trained") {
		t.Errorf("msg = %q", res.Msg)
	}
	// The trained model must actually fit the data: compare loss against
	// an untrained model.
	var tuples [][]float64
	if err := d.Rel.Scan(func(_ storage.TID, vals []float64) error {
		tuples = append(tuples, append([]float64(nil), vals...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	model := make([]float64, 384)
	for _, r := range res.Rows {
		model[int(r[0])] = r[1]
	}
	alg := d.MLAlgorithm()
	zero := make([]float64, 384)
	if got, base := ml.MeanLoss(alg, model, tuples), ml.MeanLoss(alg, zero, tuples); got > base/3 {
		t.Errorf("trained loss %v vs untrained %v: insufficient learning", got, base)
	}
}

func TestTrainMatchesInterpreter(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "Remote Sensing LR", 0.001)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(3)
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 3 {
		t.Errorf("epochs = %d", res.Epochs)
	}
	// Golden model: the hDFG interpreter over the same tuples.
	g, err := hdfg.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	it, err := hdfg.NewInterp(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tuples [][]float64
	if err := d.Rel.Scan(func(_ storage.TID, vals []float64) error {
		f32 := make([]float64, len(vals))
		for i, v := range vals {
			f32[i] = float64(float32(v))
		}
		tuples = append(tuples, f32)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if err := it.Epoch(tuples); err != nil {
			t.Fatal(err)
		}
	}
	ref := it.Model()
	for i := range ref {
		diff := math.Abs(float64(res.Model[i]) - ref[i])
		if diff/math.Max(1, math.Abs(ref[i])) > 1e-3 {
			t.Fatalf("model[%d]: engine %v vs interpreter %v", i, res.Model[i], ref[i])
		}
	}
	if res.Engine.Tuples != int64(3*len(tuples)) {
		t.Errorf("engine processed %d tuples, want %d", res.Engine.Tuples, 3*len(tuples))
	}
	if res.Access.Pages == 0 || res.Access.Cycles == 0 {
		t.Errorf("access stats empty: %+v", res.Access)
	}
	if res.SimulatedSeconds <= 0 {
		t.Error("no simulated time")
	}
	if s.DB.Pool.PinnedCount() != 0 {
		t.Error("training leaked page pins")
	}
}

func TestTrainLRMFFunctional(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "Netflix", 0.0005)
	a, err := d.DSLAlgo(1)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(2)
	if _, err := s.Register(a, 1, d.Tuples); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train("lrmf", d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design.Engine.Threads != 1 {
		t.Errorf("LRMF threads = %d, want 1", res.Design.Engine.Threads)
	}
	if len(res.Model) != (d.Topology[0]+d.Topology[1])*d.Topology[2] {
		t.Errorf("model size = %d", len(res.Model))
	}
}

func TestDAnABeatsMAD_libOnFunctionalCycles(t *testing.T) {
	// The functional pipeline's simulated accelerator seconds must beat
	// the modeled MADlib CPU time for the same scaled run.
	s := smallSystem(t)
	d := deployScaled(t, s, "Remote Sensing LR", 0.002)
	a, err := d.DSLAlgo(64)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(3)
	if _, err := s.Register(a, 64, d.Tuples); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	// Modeled MADlib compute: per-tuple overhead x tuples x epochs.
	cpu := float64(3*d.Tuples) * (s.Opts.Cost.TupleBaseSec + float64(d.Rel.Schema.NumCols())*s.Opts.Cost.ColumnDeformSec)
	accel := res.SimulatedSeconds - cost.OverheadSec(s.Opts.Cost, res.Epochs)
	if accel >= cpu {
		t.Errorf("accelerator %.4fs not faster than modeled CPU %.4fs", accel, cpu)
	}
}

func TestTrainUnknownUDFOrTable(t *testing.T) {
	s := smallSystem(t)
	if _, err := s.Train("ghost", "t"); err == nil {
		t.Error("unknown UDF accepted")
	}
	d := deployScaled(t, s, "WLAN", 0.01)
	a, err := d.DSLAlgo(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(a, 4, d.Tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train("logisticR", "ghost_table"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestTrainSchemaMismatch(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "WLAN", 0.01) // 520-feature table
	a := algos.Linear(10, algos.Hyper{LR: 0.1, Epochs: 1})
	if _, err := s.Register(a, 1, d.Tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train("linearR", d.Rel.Name); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestTrainRefusesDeadTuples: a Delete leaves a dead line pointer with
// its storage, which the direct walker would decode and the row-fed
// backends would skip. Train refuses the relation typed whichever
// backend is asked for; after Vacuum the accelerator and the CPU backend
// train on the same live tuples.
func TestTrainRefusesDeadTuples(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "Patient", 0.02)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(2)
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	if err := d.Rel.Delete(storage.TID{Page: 0, Item: 3}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", backend.NameCPU, backend.NameAuto} {
		s.Opts.Backend = name
		_, err := s.Train(a.Name, d.Rel.Name)
		if !errors.Is(err, storage.ErrBadItem) || !strings.Contains(err.Error(), "VACUUM") {
			t.Errorf("backend %q: Train after Delete = %v, want ErrBadItem naming VACUUM", name, err)
		}
	}

	if err := d.Rel.Vacuum(); err != nil {
		t.Fatal(err)
	}
	var tuples [][]float64
	if err := d.Rel.Scan(func(_ storage.TID, vals []float64) error {
		row := make([]float64, len(vals))
		for i, v := range vals {
			row[i] = float64(float32(v))
		}
		tuples = append(tuples, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tuples) != d.Tuples-1 {
		t.Fatalf("%d live tuples after Vacuum, want %d", len(tuples), d.Tuples-1)
	}
	s.Opts.Backend = ""
	acc, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(acc.Epochs * len(tuples)); acc.Engine.Tuples != want || acc.Access.Tuples != want {
		t.Errorf("accelerator: engine %d, strider %d tuples over %d epochs, want %d",
			acc.Engine.Tuples, acc.Access.Tuples, acc.Epochs, want)
	}
	s.Opts.Backend = backend.NameCPU
	cpu, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	udf, err := s.Catalog().UDF(a.Name)
	if err != nil {
		t.Fatal(err)
	}
	it, err := hdfg.NewInterp(udf.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < cpu.Epochs; e++ {
		if err := it.Epoch(tuples); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range it.Model() {
		if math.Float32bits(cpu.Model[i]) != math.Float32bits(float32(v)) {
			t.Fatalf("cpu model[%d] = %v, interpreter over the %d live tuples %v", i, cpu.Model[i], len(tuples), v)
		}
	}
}

// TestTrainSeesEveryHeapMutation: a Train after a Delete and Vacuum,
// after an Insert into the page the last Train read, and after one that
// starts a page, extracts exactly the live tuples. The buffer pool
// re-reads only the pages a mutation touched: each Insert costs one miss.
func TestTrainSeesEveryHeapMutation(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "Patient", 0.02)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(1)
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	var last *TrainResult
	train := func(what string) {
		t.Helper()
		res, err := s.Train(a.Name, d.Rel.Name)
		if err != nil {
			t.Fatal(err)
		}
		if live := int64(d.Rel.NumTuples()); res.Engine.Tuples != live || res.Access.Tuples != live {
			t.Errorf("%s: engine %d, strider %d tuples of %d live", what, res.Engine.Tuples, res.Access.Tuples, live)
		}
		last = res
	}
	train("first")
	if err := d.Rel.Delete(storage.TID{Page: 0, Item: 0}); err != nil {
		t.Fatal(err)
	}
	if err := d.Rel.Vacuum(); err != nil {
		t.Fatal(err)
	}
	train("after Delete and Vacuum")
	row := make([]float64, d.Rel.Schema.NumCols())
	for _, what := range []string{"after an Insert into the last page", "after an Insert that starts a page"} {
		tid, err := d.Rel.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		misses := last.Pool.Misses
		train(what)
		if got := last.Pool.Misses - misses; got != 1 {
			t.Errorf("%s (page %d): %d pool misses, want 1", what, tid.Page, got)
		}
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	s := smallSystem(t)
	w, _ := datagen.ByName("Patient")
	d, err := datagen.Generate(w, 0.01, s.Opts.PageSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(d); err != nil {
		t.Fatal(err)
	}
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	// Converge when the merged gradient norm is below a loose bound
	// (trivially true after the first epoch).
	grad := a.MergeNode.Args[0]
	a.SetConvergence(dsl.Lt(dsl.Norm(grad, 1), a.Meta(1e9)))
	a.SetEpochs(1000)
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs >= 20 {
		t.Errorf("did not converge early: %d epochs", res.Epochs)
	}
}

func TestAcceleratorCatalogRecordComplete(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "Remote Sensing LR", 0.001)
	a, err := d.DSLAlgo(16)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := s.Register(a, 16, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's catalog record: design, schedule, operation map, and
	// both instruction streams (§6.2).
	if acc.OperationMap == "" || acc.ScheduledCycles <= 0 {
		t.Errorf("schedule missing: map=%d bytes cycles=%d", len(acc.OperationMap), acc.ScheduledCycles)
	}
	if len(acc.StriderProg) == 0 || len(acc.Program.PerTuple) == 0 {
		t.Error("instruction streams missing")
	}
	if !strings.Contains(acc.OperationMap, "ILP") {
		t.Errorf("operation map malformed:\n%s", acc.OperationMap)
	}
	// The record survives serialization.
	data, err := catalog.ExportAccelerator(acc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := catalog.ImportAccelerator(data); err != nil {
		t.Fatal(err)
	}
}
