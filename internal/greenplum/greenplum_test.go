package greenplum

import (
	"math"
	"testing"

	"dana/internal/bufpool"
	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/ml"
	"dana/internal/storage"
)

func setup(t *testing.T, workload string, scale float64) (*bufpool.Pool, *datagen.Dataset) {
	t.Helper()
	w, err := datagen.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	d, err := datagen.Generate(w, scale, storage.PageSize8K, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool := bufpool.New(512, storage.PageSize8K, cost.Default().Disk)
	if err := pool.AttachRelation(d.Rel); err != nil {
		t.Fatal(err)
	}
	return pool, d
}

func TestSegmentedTrainingConverges(t *testing.T) {
	pool, d := setup(t, "Patient", 0.02)
	c, err := New(pool, d.Rel, d.MLAlgorithm(), 8)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := c.Train(10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 8 || st.Epochs != 10 {
		t.Errorf("stats = %+v", st)
	}
	if st.Tuples != int64(10*d.Tuples) {
		t.Errorf("tuples = %d", st.Tuples)
	}
	// Model averaging should still learn: compare against plain IGD,
	// the one-segment cluster.
	igd, err := New(pool, d.Rel, d.MLAlgorithm(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, single, err := igd.Train(10)
	if err != nil {
		t.Fatal(err)
	}
	// Model averaging converges more slowly than pure IGD, but must
	// still land well below the untrained baseline loss (~0.5 for this
	// workload) while staying within two orders of magnitude of IGD.
	if st.FinalLoss > 0.1 {
		t.Errorf("segmented training failed to learn: loss %v", st.FinalLoss)
	}
	if st.FinalLoss > 100*single.FinalLoss+1e-6 {
		t.Errorf("segmented loss %v vs IGD loss %v", st.FinalLoss, single.FinalLoss)
	}
}

// TestSingleSegmentMatchesMADlib: one segment is MADlib's IGD, so the
// model from the pool scans is bit-identical to ml.TrainSGD over the
// table's tuples in heap order.
func TestSingleSegmentMatchesMADlib(t *testing.T) {
	pool, d := setup(t, "Blog Feedback", 0.02)
	c, err := New(pool, d.Rel, d.MLAlgorithm(), 1)
	if err != nil {
		t.Fatal(err)
	}
	gm, _, err := c.Train(3)
	if err != nil {
		t.Fatal(err)
	}
	var tuples [][]float64
	if err := d.Rel.Scan(func(_ storage.TID, vals []float64) error {
		tuples = append(tuples, append([]float64(nil), vals...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mm := ml.InitModel(d.MLAlgorithm(), 1)
	if err := ml.TrainSGD(d.MLAlgorithm(), mm, tuples, 3); err != nil {
		t.Fatal(err)
	}
	for i := range gm {
		if math.Float64bits(gm[i]) != math.Float64bits(mm[i]) {
			t.Fatalf("model[%d]: %v vs %v", i, gm[i], mm[i])
		}
	}
}

func TestTrainReducesLoss(t *testing.T) {
	pool, d := setup(t, "Patient", 0.02)
	c, err := New(pool, d.Rel, d.MLAlgorithm(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, st1, err := c.Train(1)
	if err != nil {
		t.Fatal(err)
	}
	_, st10, err := c.Train(10)
	if err != nil {
		t.Fatal(err)
	}
	if st10.FinalLoss >= st1.FinalLoss {
		t.Errorf("more epochs did not reduce loss: %v -> %v", st1.FinalLoss, st10.FinalLoss)
	}
	if st10.Tuples != int64(10*d.Tuples) {
		t.Errorf("tuples = %d, want %d", st10.Tuples, 10*d.Tuples)
	}
	if st10.Epochs != 10 {
		t.Errorf("epochs = %d", st10.Epochs)
	}
	if pool.PinnedCount() != 0 {
		t.Error("trainer leaked pins")
	}
}

func TestTrainChargesIO(t *testing.T) {
	pool, d := setup(t, "WLAN", 0.05)
	c, err := New(pool, d.Rel, d.MLAlgorithm(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := c.Train(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pool.Misses == 0 || st.Pool.IOSeconds <= 0 {
		t.Errorf("cold run recorded no I/O: %+v", st.Pool)
	}
}

func TestLRMFTraining(t *testing.T) {
	pool, d := setup(t, "Netflix", 0.0005)
	c, err := New(pool, d.Rel, d.MLAlgorithm(), 1)
	if err != nil {
		t.Fatal(err)
	}
	model, st, err := c.Train(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(model) != d.MLAlgorithm().ModelSize() {
		t.Errorf("model size = %d", len(model))
	}
	if st.FinalLoss <= 0 {
		t.Errorf("final loss = %v", st.FinalLoss)
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	pool, d := setup(t, "WLAN", 0.01)
	if _, err := New(pool, d.Rel, ml.Linear{NFeatures: 3, LR: 0.1}, 1); err == nil {
		t.Error("mismatched algorithm accepted")
	}
}

func TestSegmentsValidated(t *testing.T) {
	pool, d := setup(t, "WLAN", 0.01)
	if _, err := New(pool, d.Rel, d.MLAlgorithm(), 0); err == nil {
		t.Error("0 segments accepted")
	}
	if _, err := New(pool, d.Rel, ml.Linear{NFeatures: 1, LR: 0.1}, 4); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestMoreSegmentsThanTuples(t *testing.T) {
	pool, d := setup(t, "WLAN", 0.001) // tiny: 64 tuples min
	c, err := New(pool, d.Rel, d.MLAlgorithm(), 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Train(1); err != nil {
		t.Fatal(err)
	}
}
