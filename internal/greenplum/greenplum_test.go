package greenplum_test

import (
	"errors"
	"math"
	"testing"

	"dana/internal/backend"
	"dana/internal/backend/backendtest"
	"dana/internal/datagen"
	"dana/internal/greenplum"
	"dana/internal/hdfg"
	"dana/internal/ml"
	"dana/internal/storage"
)

// setup generates a Table 3 workload and compiles its UDF at merge
// coefficient 1 (plain IGD, the baselines' training rule); rows are the
// table's live tuples in heap order.
func setup(t *testing.T, workload string, scale float64) (*datagen.Dataset, backend.Program, [][]float64) {
	t.Helper()
	w, err := datagen.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	d, err := datagen.Generate(w, scale, storage.PageSize8K, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.DSLAlgo(1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	if err := d.Rel.Scan(func(_ storage.TID, vals []float64) error {
		rows = append(rows, append([]float64(nil), vals...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return d, backend.Program{Graph: g, MergeCoef: 1}, rows
}

// segmentsEnv is the conformance environment at a segment count.
func segmentsEnv(segments int) backend.Env {
	env := backendtest.Env()
	env.Segments = segments
	return env
}

// trainOn configures be for p and runs epochs epochs over rows.
func trainOn(t *testing.T, be backend.Backend, p backend.Program, rows [][]float64, epochs int) []float64 {
	t.Helper()
	if err := be.Configure(p); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		if err := be.RunEpoch(&backend.Stream{Rows64: rows}); err != nil {
			t.Fatal(err)
		}
	}
	return be.Model()
}

func TestSegmentedTrainingConverges(t *testing.T) {
	d, p, rows := setup(t, "Patient", 0.02)
	alg := d.MLAlgorithm()
	seg := ml.MeanLoss(alg, trainOn(t, greenplum.NewSharded(segmentsEnv(8)), p, rows, 10), rows)
	// Model averaging should still learn: compare against plain IGD,
	// the one-segment baseline.
	single := ml.MeanLoss(alg, trainOn(t, greenplum.NewSharded(segmentsEnv(1)), p, rows, 10), rows)
	// Model averaging converges more slowly than pure IGD, but must
	// still land well below the untrained baseline loss (~0.5 for this
	// workload) while staying within two orders of magnitude of IGD.
	if seg > 0.1 {
		t.Errorf("segmented training failed to learn: loss %v", seg)
	}
	if seg > 100*single+1e-6 {
		t.Errorf("segmented loss %v vs IGD loss %v", seg, single)
	}
}

// TestSingleSegmentMatchesMADlib: one segment is MADlib's IGD, so the
// one-segment model is bit-identical to the cpu backend's over the
// table's tuples in heap order.
func TestSingleSegmentMatchesMADlib(t *testing.T) {
	_, p, rows := setup(t, "Blog Feedback", 0.02)
	env := segmentsEnv(1)
	gm := trainOn(t, greenplum.NewSharded(env), p, rows, 3)
	mm := trainOn(t, backend.NewCPU(env), p, rows, 3)
	for i := range gm {
		if math.Float64bits(gm[i]) != math.Float64bits(mm[i]) {
			t.Fatalf("model[%d]: %v vs %v", i, gm[i], mm[i])
		}
	}
}

func TestTrainReducesLoss(t *testing.T) {
	d, p, rows := setup(t, "Patient", 0.02)
	alg := d.MLAlgorithm()
	l1 := ml.MeanLoss(alg, trainOn(t, greenplum.NewSharded(segmentsEnv(1)), p, rows, 1), rows)
	l10 := ml.MeanLoss(alg, trainOn(t, greenplum.NewSharded(segmentsEnv(1)), p, rows, 10), rows)
	if l10 >= l1 {
		t.Errorf("more epochs did not reduce loss: %v -> %v", l1, l10)
	}
}

// TestTrainChargesIO: a cold job is priced with the disk reads that
// bring the table into the pool, a warm one without them.
func TestTrainChargesIO(t *testing.T) {
	sc := backendtest.GenScenario(3)
	env := backendtest.Env()
	p, err := backendtest.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	warm := backendtest.JobFor(sc, p)
	cold := warm
	cold.Warm = false
	be := greenplum.NewSharded(env)
	wc, err := be.EstimateCost(warm)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := be.EstimateCost(cold)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Breakdown.IOSec <= 0 || cc.Seconds <= wc.Seconds {
		t.Errorf("cold run priced no I/O: cold %+v, warm %+v", cc.Breakdown, wc.Breakdown)
	}
}

// TestLRMFTraining: the MADlib baseline (the cpu backend) trains LRMF,
// while the Greenplum baseline refuses it typed: model averaging has no
// meaningful semantics for row-sparse factor models.
func TestLRMFTraining(t *testing.T) {
	d, p, rows := setup(t, "Netflix", 0.0005)
	cpu := backend.NewCPU(segmentsEnv(1))
	if err := cpu.Configure(p); err != nil {
		t.Fatal(err)
	}
	alg := d.MLAlgorithm()
	before := ml.MeanLoss(alg, cpu.Model(), rows)
	model := trainOn(t, cpu, p, rows, 5)
	if len(model) != alg.ModelSize() {
		t.Errorf("model size = %d", len(model))
	}
	if after := ml.MeanLoss(alg, model, rows); !(after > 0 && after < before) {
		t.Errorf("loss %v -> %v", before, after)
	}
	if err := greenplum.NewSharded(segmentsEnv(8)).Configure(p); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("sharded Configure on LRMF = %v, want ErrUnsupported", err)
	}
}

// TestSchemaMismatchRejected: rows of another width than the UDF's
// tuple fail the epoch.
func TestSchemaMismatchRejected(t *testing.T) {
	_, p, rows := setup(t, "WLAN", 0.01)
	be := greenplum.NewSharded(segmentsEnv(4))
	if err := be.Configure(p); err != nil {
		t.Fatal(err)
	}
	narrow := make([][]float64, len(rows))
	for i, r := range rows {
		narrow[i] = r[:3]
	}
	if err := be.RunEpoch(&backend.Stream{Rows64: narrow}); err == nil {
		t.Error("rows of the wrong width accepted")
	}
}

// TestSegmentsValidated: a segment count below one is the default
// fan-out, and a program without a graph is refused typed.
func TestSegmentsValidated(t *testing.T) {
	_, p, rows := setup(t, "WLAN", 0.01)
	want := trainOn(t, greenplum.NewSharded(segmentsEnv(backend.DefaultSegments)), p, rows, 2)
	for _, segs := range []int{0, -1} {
		got := trainOn(t, greenplum.NewSharded(segmentsEnv(segs)), p, rows, 2)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("segments=%d: model[%d] %v, want the %d-segment %v", segs, i, got[i], backend.DefaultSegments, want[i])
			}
		}
	}
	if err := greenplum.NewSharded(segmentsEnv(4)).Configure(backend.Program{}); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("Configure without a graph = %v, want ErrUnsupported", err)
	}
}

func TestMoreSegmentsThanTuples(t *testing.T) {
	_, p, rows := setup(t, "WLAN", 0.001) // tiny: 64 tuples min
	if len(rows) >= 128 {
		t.Fatalf("%d rows, want fewer than the 128 segments", len(rows))
	}
	model := trainOn(t, greenplum.NewSharded(segmentsEnv(128)), p, rows, 1)
	for i, v := range model {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("model[%d] = %v", i, v)
		}
	}
}
